// Command vzfigs emits plot-ready CSV series for the paper's panel
// figures: one file per registry experiment that defines a series
// (core.Experiment.Series), month-by-country matrices that a plotting
// script can render directly. The world is built at its default monthly
// resolution.
//
// Usage:
//
//	vzfigs -out DIR
package main

import (
	"flag"
	"log"
	"os"
	"path/filepath"

	"vzlens/internal/core"
	"vzlens/internal/report"
	"vzlens/internal/world"
)

func main() {
	out := flag.String("out", "figs", "output directory")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("vzfigs: ")

	w, err := world.Build(world.Config{})
	if err != nil {
		log.Fatal(err)
	}
	var ids []string
	for _, e := range core.Experiments() {
		if e.Series != nil {
			ids = append(ids, e.ID)
		}
	}
	secs, err := report.Select(w, ids)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	for _, s := range secs {
		path := filepath.Join(*out, s.SeriesFile)
		if err := os.WriteFile(path, []byte(s.SeriesCSV()), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", path)
	}
}

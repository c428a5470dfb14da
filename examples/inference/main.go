// Inference demonstrates how the relationship files the paper consumes
// come to exist: simulate the route-collector view of the synthetic
// region, run Gao-style relationship inference over the observed AS
// paths, and compare the inferred CANTV provider set against ground
// truth — before and after the US transit departures.
//
//	go run ./examples/inference
package main

import (
	"fmt"
	"log"
	"time"

	"vzlens/internal/bgp"
	"vzlens/internal/geo"
	"vzlens/internal/months"
	"vzlens/internal/world"
)

func main() {
	w, err := world.Build(world.Config{})
	if err != nil {
		log.Fatal(err)
	}
	collectors := w.DefaultCollectors()

	// Origins: every access network in the region — the richer the
	// vantage, the more relationship edges the collector shadow reveals.
	var origins []bgp.ASN
	for _, cc := range geo.LACNICCountries() {
		origins = append(origins, w.Nets[cc].Eyeballs...)
	}

	for _, m := range []months.Month{
		months.New(2013, time.January), // the connectivity peak
		months.New(2020, time.January), // after the departures
	} {
		paths := w.CollectorPaths(m, collectors, origins)
		inferred := bgp.InferRelationships(paths, bgp.InferConfig{})
		truthGraph := w.MonthTopology(m).Graph()

		truth := truthGraph.Providers(world.ASCANTV)
		got := inferred.Providers(world.ASCANTV)
		acc := bgp.InferAccuracy(truthGraph, inferred)

		fmt.Printf("--- %s ---\n", m)
		fmt.Printf("collector paths observed:   %d\n", len(paths))
		fmt.Printf("ground-truth providers:     %v\n", truth)
		fmt.Printf("inferred providers:         %v\n", got)
		fmt.Printf("edge accuracy (restricted): %.0f%%\n\n", acc*100)
	}

	fmt.Println("The inferred files drive Figures 8 and 9: the US departures")
	fmt.Println("are visible purely from the collector-path shadow. Providers")
	fmt.Println("that only ever appear next to CANTV (no counter-votes from")
	fmt.Println("other paths) can be missed — the vantage-point sensitivity")
	fmt.Println("that makes real relationship inference hard.")
}

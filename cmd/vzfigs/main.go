// Command vzfigs emits plot-ready CSV series for the paper's panel
// figures: one file per figure, month-by-country matrices that a plotting
// script can render directly.
//
// Usage:
//
//	vzfigs -out DIR [-quick]
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"path/filepath"
	"time"

	"vzlens/internal/core"
	"vzlens/internal/months"
	"vzlens/internal/world"
)

func main() {
	out := flag.String("out", "figs", "output directory")
	quick := flag.Bool("quick", false, "quarterly campaign resolution")
	flag.Parse()

	cfg := world.Config{}
	if *quick {
		cfg.Step = 3
	}
	w, err := world.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.SetFlags(0)
	log.SetPrefix("vzfigs: ")

	write := func(name, content string) {
		path := filepath.Join(*out, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", path)
	}

	write("fig3_facilities.csv", core.Fig3Facilities(w).PerCountry.CSV())
	write("fig5_ipv6.csv", core.Fig5IPv6().Panel.CSV())
	fig11 := core.Fig11Bandwidth(w.Config.Seed, months.New(2007, time.July), months.New(2024, time.January), w.Config.Step)
	write("fig11_bandwidth.csv", fig11.Panel.CSV())
	write("fig13_gdp.csv", core.Fig13GDPRank().Panel.CSV())
	write("fig17_probes.csv", core.Fig17AtlasFootprint(w).PerCountry.CSV())

	tc, cc := w.BaselineCampaigns(context.Background())
	write("fig12_gpdns_rtt.csv", core.Fig12GPDNS(tc).Panel.CSV())
	fig20 := core.Fig20ProbeGeo(w.Fleet, tc, months.New(2023, time.December))
	write("fig20_probe_geo.csv", fig20.Table().CSV())

	write("fig6_rootdns.csv", core.Fig6RootDNS(cc).PerCountry.CSV())
	write("fig16_root_origins.csv", core.Fig16RootOrigins(cc).Table().CSV())
}

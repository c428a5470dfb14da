// Command vzreport builds the synthetic world and regenerates every
// table and figure of the paper, printing each as an aligned text table
// with the headline statistics the paper reports.
//
// Usage:
//
//	vzreport [-quick] [-seed N] [-only fig12,table1,...]
//
// -quick runs the measurement campaigns at quarterly instead of monthly
// resolution, with slightly coarser statistics. It is about 4x faster:
// a full run took 0.67 s against 2.6 s monthly (median of 3 runs each,
// 2-vCPU Xeon container).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"vzlens/internal/atlas"
	"vzlens/internal/core"
	"vzlens/internal/months"
	"vzlens/internal/report"
	"vzlens/internal/world"
)

func main() {
	quick := flag.Bool("quick", false, "quarterly campaign resolution")
	format := flag.String("format", "text", "output format: text or csv")
	seed := flag.Int64("seed", 0, "world seed (0 = default)")
	only := flag.String("only", "", "comma-separated experiment ids (default all)")
	markdown := flag.String("md", "", "write the full markdown report to this file and exit")
	flag.Parse()

	cfg := world.Config{Seed: *seed}
	if *quick {
		cfg.Step = 3
	}
	w, err := world.Build(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vzreport: %v\n", err)
		os.Exit(1)
	}

	if *markdown != "" {
		f, err := os.Create(*markdown)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vzreport: %v\n", err)
			os.Exit(1)
		}
		if err := report.Generate(f, w, report.Options{IncludeCampaigns: true}); err != nil {
			fmt.Fprintf(os.Stderr, "vzreport: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "vzreport: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *markdown)
		return
	}

	selected := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(strings.ToLower(id)); id != "" {
			selected[id] = true
		}
	}
	want := func(id string) bool { return len(selected) == 0 || selected[id] }
	render := func(t *core.Table) string {
		if *format == "csv" {
			return t.CSV()
		}
		return t.Text()
	}

	type experiment struct {
		id  string
		run func() *core.Table
	}
	experiments := []experiment{
		{"fig1", func() *core.Table { return core.Fig1Economy().Table() }},
		{"fig2", func() *core.Table { return core.Fig2AddressSpace(w).Table() }},
		{"fig3", func() *core.Table { return core.Fig3Facilities(w).Table() }},
		{"fig4", func() *core.Table { return core.Fig4Cables(w).Table() }},
		{"fig5", func() *core.Table { return core.Fig5IPv6().Table() }},
		{"fig7", func() *core.Table {
			return core.Fig7Offnets(w, []string{"Google", "Akamai", "Facebook", "Netflix"}).Table()
		}},
		{"fig8", func() *core.Table { return core.Fig8CANTV(w).Table() }},
		{"fig9", func() *core.Table { return core.Fig9TransitHeatmap(w).Table() }},
		{"fig10", func() *core.Table { return core.Fig10IXPHeatmap(w).Table() }},
		{"fig11", func() *core.Table {
			return core.Fig11Bandwidth(w.Config.Seed, months.New(2007, time.July), months.New(2024, time.January), w.Config.Step).Table()
		}},
		{"table1", func() *core.Table { return core.Table1Eyeballs(w).Table() }},
		{"fig13", func() *core.Table { return core.Fig13GDPRank().Table() }},
		{"fig14", func() *core.Table { return core.Fig14PrefixVisibility(w).Table() }},
		{"fig15", func() *core.Table { return core.Fig15FacilityMembers(w).Table() }},
		{"fig17", func() *core.Table { return core.Fig17AtlasFootprint(w).Table() }},
		{"fig18", func() *core.Table {
			return core.Fig7Offnets(w, []string{"Microsoft", "Cloudflare", "Amazon", "Limelight", "CDNetworks", "Alibaba"}).Table()
		}},
		{"fig19", func() *core.Table { return core.Fig19ThirdParty().Table() }},
		{"fig21", func() *core.Table { return core.Fig21USIXPs(w).Table() }},
	}
	for _, e := range experiments {
		if !want(e.id) {
			continue
		}
		fmt.Printf("== %s ==\n%s\n", e.id, render(e.run()))
	}

	if want("signatures") {
		fmt.Printf("== signatures ==\n%s\n", render(core.CrisisSignatures(w, nil).Table()))
	}

	// Campaign-backed experiments run last: they dominate runtime.
	needTrace := want("fig12") || want("fig20")
	needChaos := want("fig6") || want("fig16")
	var (
		tc *atlas.TraceCampaign
		cc *atlas.ChaosCampaign
	)
	switch {
	case needTrace && needChaos:
		tc, cc = w.BaselineCampaigns(context.Background())
	case needTrace:
		tc = w.TraceCampaign()
	case needChaos:
		cc = w.ChaosCampaign()
	}
	if needTrace {
		if want("fig12") {
			fmt.Printf("== fig12 ==\n%s\n", render(core.Fig12GPDNS(tc).Table()))
		}
		if want("fig20") {
			m := months.New(2023, time.December)
			fmt.Printf("== fig20 ==\n%s\n", render(core.Fig20ProbeGeo(w.Fleet, tc, m).Table()))
		}
	}
	if needChaos {
		if want("fig6") {
			fmt.Printf("== fig6 ==\n%s\n", render(core.Fig6RootDNS(cc).Table()))
		}
		if want("fig16") {
			fmt.Printf("== fig16 ==\n%s\n", render(core.Fig16RootOrigins(cc).Table()))
		}
	}
	if len(selected) > 0 {
		known := map[string]bool{"fig6": true, "fig12": true, "fig16": true, "fig20": true, "signatures": true}
		for _, e := range experiments {
			known[e.id] = true
		}
		for id := range selected {
			if !known[id] {
				fmt.Fprintf(os.Stderr, "vzreport: unknown experiment %q\n", id)
				os.Exit(2)
			}
		}
	}
}

// Package report renders the full reproduction as one markdown document:
// every experiment's table, framed by the paper's narrative, plus the
// automated crisis signatures — the evaluation section regenerated.
package report

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"vzlens/internal/atlas"
	"vzlens/internal/core"
	"vzlens/internal/months"
	"vzlens/internal/world"
)

// Options configures generation.
type Options struct {
	// IncludeCampaigns simulates the Atlas campaigns (slower) and adds
	// the four campaign-backed experiments.
	IncludeCampaigns bool
}

// section pairs narrative with the table that backs it.
type section struct {
	title     string
	narrative string
	table     *core.Table
}

// Generate writes the document to w.
func Generate(w io.Writer, wd *world.World, opts Options) error {
	sections := []section{
		{
			"The crisis in macro numbers (Figure 1)",
			"Venezuela's downfall tracks the collapse of its oil exports: " +
				"production, GDP per capita and population all fall from " +
				"their peaks while inflation explodes.",
			core.Fig1Economy().Table(),
		},
		{
			"The incumbent's address space (Figure 2)",
			"CANTV has originated the largest share of Venezuela's address " +
				"space throughout; Telefonica narrowed the gap until the " +
				"crisis, then withdrew a block of /17s in mid-2016.",
			core.Fig2AddressSpace(wd).Table(),
		},
		{
			"Peering facilities (Figure 3)",
			"The region tripled its colocation footprint since 2018; " +
				"Venezuela hosts four facilities out of more than five hundred.",
			core.Fig3Facilities(wd).Table(),
		},
		{
			"Submarine connectivity (Figure 4)",
			"Latin America quadrupled its submarine cable count since 2000. " +
				"Venezuela's only addition is the ALBA-1 link built to give " +
				"Cuba access to the Internet.",
			core.Fig4Cables(wd).Table(),
		},
		{
			"IPv6 rollout (Figure 5)",
			"A network that is not growing has no reason to deploy IPv6: " +
				"Venezuela sits near zero while the region passes twenty percent.",
			core.Fig5IPv6().Table(),
		},
		{
			"Hypergiant off-nets (Figures 7 and 18)",
			"Google and Akamai deployed inside Venezuela before the crisis; " +
				"Facebook and Netflix, arriving later, largely skipped it.",
			core.Fig7Offnets(wd, []string{"Google", "Akamai", "Facebook", "Netflix"}).Table(),
		},
		{
			"CANTV's interdomain connectivity (Figures 8 and 9)",
			"Upstream providers grew to eleven by 2013 and collapsed to " +
				"three by 2020 as every US carrier but Columbus Networks left.",
			core.Fig8CANTV(wd).Table(),
		},
		{
			"US transit departures (Figure 9)",
			"The departure timeline of CANTV's US-registered providers.",
			core.Fig9TransitHeatmap(wd).Table(),
		},
		{
			"IXP presence (Figure 10)",
			"Neighbors keep local traffic local through their exchanges; " +
				"Venezuela peers nowhere but a single network at Equinix Bogota.",
			core.Fig10IXPHeatmap(wd).Table(),
		},
		{
			"Download speeds (Figure 11)",
			"A decade below one megabit per second, then a partial recovery " +
				"as fiber plans arrive — still a fraction of the regional mean.",
			core.Fig11Bandwidth(wd.Config.Seed, months.New(2007, time.July), months.New(2024, time.January), wd.Config.Step).Table(),
		},
		{
			"The eyeball market (Table 1)",
			"The state operator holds more than a fifth of the country's users.",
			core.Table1Eyeballs(wd).Table(),
		},
		{
			"GDP rank trajectory (Figure 13)",
			"From the region's third-richest economy to its bottom quartile.",
			core.Fig13GDPRank().Table(),
		},
		{
			"Telefonica prefix visibility (Figure 14)",
			"The withdrawn /17s and their 2023 reappearance as aggregates.",
			core.Fig14PrefixVisibility(wd).Table(),
		},
		{
			"Venezuelan facilities (Figure 15, Table 2)",
			"Only the La Urbina site has attracted a meaningful membership.",
			core.Fig15FacilityMembers(wd).Table(),
		},
		{
			"Atlas coverage (Figure 17)",
			"The replica regression is not a measurement artifact: Venezuela " +
				"ranks sixth in the region by probe count.",
			core.Fig17AtlasFootprint(wd).Table(),
		},
		{
			"Third-party dependence (Figure 19)",
			"Venezuela trails the region on third-party DNS, CA and CDN " +
				"adoption — ahead of only Bolivia.",
			core.Fig19ThirdParty().Table(),
		},
		{
			"US IXP presence (Figure 21)",
			"Seven small Venezuelan networks peer in the United States, " +
				"covering about seven percent of the country's users.",
			core.Fig21USIXPs(wd).Table(),
		},
	}

	var campaigns []section
	var chaos *atlas.ChaosCampaign
	if opts.IncludeCampaigns {
		var tc *atlas.TraceCampaign
		tc, chaos = wd.BaselineCampaigns(context.Background())
		campaigns = []section{
			{
				"Root DNS replicas (Figure 6)",
				"Distinct CHAOS TXT strings map each country's replicas; " +
					"Venezuela's two instances disappear while the region doubles.",
				core.Fig6RootDNS(chaos).Table(),
			},
			{
				"Latency to Google Public DNS (Figure 12)",
				"With no domestic replica, Venezuelan queries cross the " +
					"Caribbean: roughly double the regional median RTT.",
				core.Fig12GPDNS(tc).Table(),
			},
			{
				"Root origins serving Venezuela (Figure 16)",
				"After the withdrawal, the US answers most Venezuelan root " +
					"queries, with Latin American alternatives second.",
				core.Fig16RootOrigins(chaos).Table(),
			},
			{
				"Probe geography (Figure 20)",
				"Only probes homed to Colombia at the border dip under ten " +
					"milliseconds; Caracas cannot.",
				core.Fig20ProbeGeo(wd.Fleet, tc, months.New(2023, time.December)).Table(),
			},
		}
	}

	if _, err := fmt.Fprintf(w, "# Ten years of the Venezuelan crisis — reproduction report\n\n"+
		"Generated by vzlens (seed %d, %d-month campaign step).\n\n", wd.Config.Seed, wd.Config.Step); err != nil {
		return err
	}
	for _, s := range append(sections, campaigns...) {
		if err := writeSection(w, s); err != nil {
			return err
		}
	}
	// Closing: the automated detector sweep.
	closing := section{
		"Automated crisis signatures",
		"The anomaly detectors recover the narrative without being " +
			"pointed at it: the bandwidth flatline, the upstream collapse, " +
			"the Telefonica withdrawal, and the divergence from the region.",
		core.CrisisSignatures(wd, chaos).Table(),
	}
	return writeSection(w, closing)
}

// writeSection renders one narrative + markdown table.
func writeSection(w io.Writer, s section) error {
	if _, err := fmt.Fprintf(w, "## %s\n\n%s\n\n", s.title, s.narrative); err != nil {
		return err
	}
	if err := writeMarkdownTable(w, s.table); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// writeMarkdownTable renders a core.Table as a GitHub-flavored table.
func writeMarkdownTable(w io.Writer, t *core.Table) error {
	row := func(cells []string) string {
		escaped := make([]string, len(cells))
		for i, c := range cells {
			escaped[i] = strings.ReplaceAll(c, "|", "\\|")
		}
		return "| " + strings.Join(escaped, " | ") + " |\n"
	}
	if _, err := io.WriteString(w, row(t.Header)); err != nil {
		return err
	}
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	if _, err := io.WriteString(w, row(sep)); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if _, err := io.WriteString(w, row(r)); err != nil {
			return err
		}
	}
	return nil
}

package core

import (
	"sort"
	"time"

	"vzlens/internal/atlas"
	"vzlens/internal/months"
	"vzlens/internal/series"
	"vzlens/internal/world"
)

// Experiment is one entry in the canonical experiment registry, the
// only experiment list: the HTTP API, the golden suite, vzreport, the
// markdown report and vzfigs all read it, so an experiment added here
// is automatically served, snapshotted, reported and plotted.
type Experiment struct {
	// ID is the stable experiment identifier (fig1..fig21, table1): the
	// httpapi route, the vzreport selector and the golden snapshot name.
	ID string
	// Title and Narrative head the experiment's report section.
	Title, Narrative string
	// Campaign names the simulated measurement campaign the experiment
	// consumes: "" for none, "trace" for the traceroute campaign,
	// "chaos" for the CHAOS root-DNS sweep. Callers simulate each
	// campaign once and share it across experiments.
	Campaign string
	// Run renders the experiment's table. tc and cc must be non-nil
	// exactly when Campaign says so; Run never simulates on its own.
	Run func(w *world.World, tc *atlas.TraceCampaign, cc *atlas.ChaosCampaign) *Table
	// Series, when non-nil, renders the plot-ready CSV series vzfigs
	// writes to SeriesFile; it takes the same arguments as Run.
	Series     func(w *world.World, tc *atlas.TraceCampaign, cc *atlas.ChaosCampaign) string
	SeriesFile string
}

// Experiments returns the full registry in paper order. The slice is
// freshly allocated; callers may reorder it.
func Experiments() []Experiment {
	type (
		runFunc    = func(*world.World, *atlas.TraceCampaign, *atlas.ChaosCampaign) *Table
		seriesFunc = func(*world.World, *atlas.TraceCampaign, *atlas.ChaosCampaign) string
	)
	none := func(fn func(*world.World) *Table) runFunc {
		return func(w *world.World, _ *atlas.TraceCampaign, _ *atlas.ChaosCampaign) *Table { return fn(w) }
	}
	panel := func(fn func(*world.World) *series.Panel) seriesFunc {
		return func(w *world.World, _ *atlas.TraceCampaign, _ *atlas.ChaosCampaign) string { return fn(w).CSV() }
	}
	tableCSV := func(run runFunc) seriesFunc {
		return func(w *world.World, tc *atlas.TraceCampaign, cc *atlas.ChaosCampaign) string {
			return run(w, tc, cc).CSV()
		}
	}
	fig11 := func(w *world.World) Fig11Result {
		return Fig11Bandwidth(w.Config.Seed, months.New(2007, time.July), months.New(2024, time.January), w.Config.Step)
	}
	fig16 := func(_ *world.World, _ *atlas.TraceCampaign, cc *atlas.ChaosCampaign) *Table {
		return Fig16RootOrigins(cc).Table()
	}
	fig20 := func(w *world.World, tc *atlas.TraceCampaign, _ *atlas.ChaosCampaign) *Table {
		return Fig20ProbeGeo(w.Fleet, tc, months.New(2023, time.December)).Table()
	}
	return []Experiment{
		{ID: "fig1", Title: "The crisis in macro numbers (Figure 1)",
			Narrative: "Venezuela's downfall tracks the collapse of its oil exports: production, " +
				"GDP per capita and population all fall from their peaks while inflation explodes.",
			Run: none(func(*world.World) *Table { return Fig1Economy().Table() })},
		{ID: "fig2", Title: "The incumbent's address space (Figure 2)",
			Narrative: "CANTV has originated the largest share of Venezuela's address space throughout; " +
				"Telefonica narrowed the gap until the crisis, then withdrew a block of /17s in mid-2016.",
			Run: none(func(w *world.World) *Table { return Fig2AddressSpace(w).Table() })},
		{ID: "fig3", Title: "Peering facilities (Figure 3)",
			Narrative: "The region tripled its colocation footprint since 2018; " +
				"Venezuela hosts four facilities out of more than five hundred.",
			Run:        none(func(w *world.World) *Table { return Fig3Facilities(w).Table() }),
			Series:     panel(func(w *world.World) *series.Panel { return Fig3Facilities(w).PerCountry }),
			SeriesFile: "fig3_facilities.csv"},
		{ID: "fig4", Title: "Submarine connectivity (Figure 4)",
			Narrative: "Latin America quadrupled its submarine cable count since 2000. Venezuela's only " +
				"addition is the ALBA-1 link built to give Cuba access to the Internet.",
			Run: none(func(w *world.World) *Table { return Fig4Cables(w).Table() })},
		{ID: "fig5", Title: "IPv6 rollout (Figure 5)",
			Narrative: "A network that is not growing has no reason to deploy IPv6: " +
				"Venezuela sits near zero while the region passes twenty percent.",
			Run:        none(func(*world.World) *Table { return Fig5IPv6().Table() }),
			Series:     panel(func(*world.World) *series.Panel { return Fig5IPv6().Panel }),
			SeriesFile: "fig5_ipv6.csv"},
		{ID: "fig6", Title: "Root DNS replicas (Figure 6)", Campaign: "chaos",
			Narrative: "Distinct CHAOS TXT strings map each country's replicas; " +
				"Venezuela's two instances disappear while the region doubles.",
			Run: func(_ *world.World, _ *atlas.TraceCampaign, cc *atlas.ChaosCampaign) *Table {
				return Fig6RootDNS(cc).Table()
			},
			Series: func(_ *world.World, _ *atlas.TraceCampaign, cc *atlas.ChaosCampaign) string {
				return Fig6RootDNS(cc).PerCountry.CSV()
			},
			SeriesFile: "fig6_rootdns.csv"},
		{ID: "fig7", Title: "Hypergiant off-nets (Figure 7)",
			Narrative: "Google and Akamai deployed inside Venezuela before the crisis; " +
				"Facebook and Netflix, arriving later, largely skipped it.",
			Run: none(func(w *world.World) *Table {
				return Fig7Offnets(w, []string{"Google", "Akamai", "Facebook", "Netflix"}).Table()
			})},
		{ID: "fig8", Title: "CANTV's interdomain connectivity (Figure 8)",
			Narrative: "Upstream providers grew to eleven by 2013 and collapsed to " +
				"three by 2020 as every US carrier but Columbus Networks left.",
			Run: none(func(w *world.World) *Table { return Fig8CANTV(w).Table() })},
		{ID: "fig9", Title: "US transit departures (Figure 9)",
			Narrative: "The departure timeline of CANTV's US-registered providers.",
			Run:       none(func(w *world.World) *Table { return Fig9TransitHeatmap(w).Table() })},
		{ID: "fig10", Title: "IXP presence (Figure 10)",
			Narrative: "Neighbors keep local traffic local through their exchanges; " +
				"Venezuela peers nowhere but a single network at Equinix Bogota.",
			Run: none(func(w *world.World) *Table { return Fig10IXPHeatmap(w).Table() })},
		{ID: "fig11", Title: "Download speeds (Figure 11)",
			Narrative: "A decade below one megabit per second, then a partial recovery " +
				"as fiber plans arrive — still a fraction of the regional mean.",
			Run:        none(func(w *world.World) *Table { return fig11(w).Table() }),
			Series:     panel(func(w *world.World) *series.Panel { return fig11(w).Panel }),
			SeriesFile: "fig11_bandwidth.csv"},
		{ID: "fig12", Title: "Latency to Google Public DNS (Figure 12)", Campaign: "trace",
			Narrative: "With no domestic replica, Venezuelan queries cross the " +
				"Caribbean: roughly double the regional median RTT.",
			Run: func(_ *world.World, tc *atlas.TraceCampaign, _ *atlas.ChaosCampaign) *Table {
				return Fig12GPDNS(tc).Table()
			},
			Series: func(_ *world.World, tc *atlas.TraceCampaign, _ *atlas.ChaosCampaign) string {
				return Fig12GPDNS(tc).Panel.CSV()
			},
			SeriesFile: "fig12_gpdns_rtt.csv"},
		{ID: "table1", Title: "The eyeball market (Table 1)",
			Narrative: "The state operator holds more than a fifth of the country's users.",
			Run:       none(func(w *world.World) *Table { return Table1Eyeballs(w).Table() })},
		{ID: "fig13", Title: "GDP rank trajectory (Figure 13)",
			Narrative:  "From the region's third-richest economy to its bottom quartile.",
			Run:        none(func(*world.World) *Table { return Fig13GDPRank().Table() }),
			Series:     panel(func(*world.World) *series.Panel { return Fig13GDPRank().Panel }),
			SeriesFile: "fig13_gdp.csv"},
		{ID: "fig14", Title: "Telefonica prefix visibility (Figure 14)",
			Narrative: "The withdrawn /17s and their 2023 reappearance as aggregates.",
			Run:       none(func(w *world.World) *Table { return Fig14PrefixVisibility(w).Table() })},
		{ID: "fig15", Title: "Venezuelan facilities (Figure 15, Table 2)",
			Narrative: "Only the La Urbina site has attracted a meaningful membership.",
			Run:       none(func(w *world.World) *Table { return Fig15FacilityMembers(w).Table() })},
		{ID: "fig16", Title: "Root origins serving Venezuela (Figure 16)", Campaign: "chaos",
			Narrative: "After the withdrawal, the US answers most Venezuelan root " +
				"queries, with Latin American alternatives second.",
			Run: fig16, Series: tableCSV(fig16), SeriesFile: "fig16_root_origins.csv"},
		{ID: "fig17", Title: "Atlas coverage (Figure 17)",
			Narrative: "The replica regression is not a measurement artifact: Venezuela " +
				"ranks sixth in the region by probe count.",
			Run:        none(func(w *world.World) *Table { return Fig17AtlasFootprint(w).Table() }),
			Series:     panel(func(w *world.World) *series.Panel { return Fig17AtlasFootprint(w).PerCountry }),
			SeriesFile: "fig17_probes.csv"},
		{ID: "fig18", Title: "The other hypergiants (Figure 18)",
			Narrative: "None of the six smaller hypergiants — Microsoft, Cloudflare, Amazon, Limelight, " +
				"CDNetworks and Alibaba — hosts an off-net that serves Venezuelan users.",
			Run: none(func(w *world.World) *Table {
				return Fig7Offnets(w, []string{"Microsoft", "Cloudflare", "Amazon", "Limelight", "CDNetworks", "Alibaba"}).Table()
			})},
		{ID: "fig19", Title: "Third-party dependence (Figure 19)",
			Narrative: "Venezuela trails the region on third-party DNS, CA and CDN " +
				"adoption — ahead of only Bolivia.",
			Run: none(func(*world.World) *Table { return Fig19ThirdParty().Table() })},
		{ID: "fig20", Title: "Probe geography (Figure 20)", Campaign: "trace",
			Narrative: "Only probes homed to Colombia at the border dip under ten " +
				"milliseconds; Caracas cannot.",
			Run: fig20, Series: tableCSV(fig20), SeriesFile: "fig20_probe_geo.csv"},
		{ID: "fig21", Title: "US IXP presence (Figure 21)",
			Narrative: "Seven small Venezuelan networks peer in the United States, " +
				"covering about seven percent of the country's users.",
			Run: none(func(w *world.World) *Table { return Fig21USIXPs(w).Table() })},
	}
}

// ExperimentIDs returns every registered ID, sorted.
func ExperimentIDs() []string {
	exps := Experiments()
	ids := make([]string, 0, len(exps))
	for _, e := range exps {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

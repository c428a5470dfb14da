// Benchmarks regenerating every table and figure of the paper's
// evaluation, one per experiment, plus ablation benchmarks for the design
// choices called out in DESIGN.md. Each benchmark prints the headline
// rows it reproduces once, then times regeneration.
//
//	go test -bench=. -benchmem
package vzlens

import (
	"context"
	"fmt"
	"net/url"
	"os"
	"sync"
	"testing"
	"time"

	"vzlens/internal/atlas"
	"vzlens/internal/bgp"
	"vzlens/internal/core"
	"vzlens/internal/dnsplane"
	"vzlens/internal/dnsroot"
	"vzlens/internal/dnswire"
	"vzlens/internal/facts"
	"vzlens/internal/geo"
	"vzlens/internal/mlab"
	"vzlens/internal/months"
	"vzlens/internal/netsim"
	"vzlens/internal/obs"
	"vzlens/internal/offnet"
	"vzlens/internal/query"
	"vzlens/internal/resultstore"
	"vzlens/internal/scenario"
	"vzlens/internal/sweep"
	"vzlens/internal/world"
)

// benchWorld is shared across benchmarks; campaigns run at quarterly
// resolution to keep the full suite fast while preserving the headline
// statistics.
var (
	benchOnce  sync.Once
	benchW     *world.World
	benchTrace *atlas.TraceCampaign
	benchChaos *atlas.ChaosCampaign
)

// mustBuild is the bench-only panicking form of world.Build.
func mustBuild(cfg world.Config) *world.World {
	w, err := world.Build(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

func setup() {
	benchOnce.Do(func() {
		benchW = mustBuild(world.Config{Step: 3})
		benchTrace = benchW.TraceCampaign()
		benchChaos = benchW.ChaosCampaign()
	})
}

// printed tracks which experiment summaries have been shown, so each
// prints exactly once across benchmark reruns.
var printed sync.Map

func showOnce(id string, table *core.Table) {
	if _, loaded := printed.LoadOrStore(id, true); !loaded {
		fmt.Printf("\n%s\n", table.Text())
	}
}

func BenchmarkFig1Economy(b *testing.B) {
	var r core.Fig1Result
	for i := 0; i < b.N; i++ {
		r = core.Fig1Economy()
	}
	showOnce("fig1", r.Table())
	b.ReportMetric(r.OilDropPct, "oil_drop_%")
	b.ReportMetric(r.GDPDropPct, "gdp_drop_%")
}

func BenchmarkFig2AddressSpace(b *testing.B) {
	setup()
	var r core.Fig2Result
	for i := 0; i < b.N; i++ {
		r = core.Fig2AddressSpace(benchW)
	}
	showOnce("fig2", r.Table())
	b.ReportMetric(r.CANTVPeakShare*100, "cantv_peak_%")
}

func BenchmarkFig3Facilities(b *testing.B) {
	setup()
	var r core.Fig3Result
	for i := 0; i < b.N; i++ {
		r = core.Fig3Facilities(benchW)
	}
	showOnce("fig3", r.Table())
	b.ReportMetric(float64(r.RegionEnd), "facilities_2024")
}

func BenchmarkFig4Cables(b *testing.B) {
	setup()
	var r core.Fig4Result
	for i := 0; i < b.N; i++ {
		r = core.Fig4Cables(benchW)
	}
	showOnce("fig4", r.Table())
	b.ReportMetric(float64(r.RegionAt2024), "cables_2024")
}

func BenchmarkFig5IPv6(b *testing.B) {
	var r core.Fig5Result
	for i := 0; i < b.N; i++ {
		r = core.Fig5IPv6()
	}
	showOnce("fig5", r.Table())
	b.ReportMetric(r.VELatest, "ve_ipv6_%")
}

func BenchmarkFig6RootDNS(b *testing.B) {
	setup()
	var r core.Fig6Result
	for i := 0; i < b.N; i++ {
		r = core.Fig6RootDNS(benchChaos)
	}
	showOnce("fig6", r.Table())
	b.ReportMetric(float64(r.RegionEnd), "replicas_2024")
}

func BenchmarkFig7Offnets(b *testing.B) {
	setup()
	var r core.Fig7Result
	for i := 0; i < b.N; i++ {
		r = core.Fig7Offnets(benchW, []string{"Google", "Akamai", "Facebook", "Netflix"})
	}
	showOnce("fig7", r.Table())
	b.ReportMetric(r.VEAverage["Google"]*100, "ve_google_%")
}

func BenchmarkFig8CANTV(b *testing.B) {
	setup()
	var r core.Fig8Result
	for i := 0; i < b.N; i++ {
		r = core.Fig8CANTV(benchW)
	}
	showOnce("fig8", r.Table())
	b.ReportMetric(float64(r.PeakUpstreams), "peak_upstreams")
	b.ReportMetric(float64(r.TroughUpstreams), "trough_upstreams")
}

func BenchmarkFig9TransitHeatmap(b *testing.B) {
	setup()
	var r core.Fig9Result
	for i := 0; i < b.N; i++ {
		r = core.Fig9TransitHeatmap(benchW)
	}
	showOnce("fig9", r.Table())
	b.ReportMetric(float64(len(r.USDepartures)), "us_departures")
}

func BenchmarkFig10IXPHeatmap(b *testing.B) {
	setup()
	var r core.Fig10Result
	for i := 0; i < b.N; i++ {
		r = core.Fig10IXPHeatmap(benchW)
	}
	showOnce("fig10", r.Table())
	b.ReportMetric(r.ARShareAtARIX*100, "arix_share_%")
}

func BenchmarkFig11Bandwidth(b *testing.B) {
	var r core.Fig11Result
	lo, hi := months.New(2007, time.July), months.New(2024, time.January)
	for i := 0; i < b.N; i++ {
		r = core.Fig11Bandwidth(1, lo, hi, 3)
	}
	showOnce("fig11", r.Table())
	b.ReportMetric(r.VEJuly2023, "ve_mbps_2023")
}

func BenchmarkFig12GPDNS(b *testing.B) {
	setup()
	var r core.Fig12Result
	for i := 0; i < b.N; i++ {
		r = core.Fig12GPDNS(benchTrace)
	}
	showOnce("fig12", r.Table())
	b.ReportMetric(r.VE2023H2, "ve_rtt_ms")
	b.ReportMetric(r.VEOverRegion, "ve_over_region")
}

func BenchmarkTable1Eyeballs(b *testing.B) {
	setup()
	var r core.Table1Result
	for i := 0; i < b.N; i++ {
		r = core.Table1Eyeballs(benchW)
	}
	showOnce("table1", r.Table())
	b.ReportMetric(r.CANTVShare*100, "cantv_share_%")
}

func BenchmarkFig13GDPRank(b *testing.B) {
	var r core.Fig13Result
	for i := 0; i < b.N; i++ {
		r = core.Fig13GDPRank()
	}
	showOnce("fig13", r.Table())
	b.ReportMetric(float64(r.Ranks[2020]), "ve_rank_2020")
}

func BenchmarkFig14PrefixVisibility(b *testing.B) {
	setup()
	var r core.Fig14Result
	for i := 0; i < b.N; i++ {
		r = core.Fig14PrefixVisibility(benchW)
	}
	showOnce("fig14", r.Table())
	b.ReportMetric(float64(len(r.Withdrawn)), "withdrawn_prefixes")
}

func BenchmarkFig15FacilityMembers(b *testing.B) {
	setup()
	var r core.Fig15Result
	for i := 0; i < b.N; i++ {
		r = core.Fig15FacilityMembers(benchW)
	}
	showOnce("fig15", r.Table())
	b.ReportMetric(float64(r.Latest["Cirion La Urbina"]), "cirion_members")
}

func BenchmarkFig16RootOrigins(b *testing.B) {
	setup()
	var r core.Fig16Result
	for i := 0; i < b.N; i++ {
		r = core.Fig16RootOrigins(benchChaos)
	}
	showOnce("fig16", r.Table())
	b.ReportMetric(float64(len(r.LatestTop)), "origin_countries")
}

func BenchmarkFig17AtlasFootprint(b *testing.B) {
	setup()
	var r core.Fig17Result
	for i := 0; i < b.N; i++ {
		r = core.Fig17AtlasFootprint(benchW)
	}
	showOnce("fig17", r.Table())
	b.ReportMetric(float64(r.VE2024), "ve_probes_2024")
}

func BenchmarkFig18AllHypergiants(b *testing.B) {
	setup()
	var r core.Fig7Result
	for i := 0; i < b.N; i++ {
		r = core.Fig7Offnets(benchW, []string{
			"Microsoft", "Cloudflare", "Amazon", "Limelight", "CDNetworks", "Alibaba",
		})
	}
	showOnce("fig18", r.Table())
	b.ReportMetric(r.VEAverage["Cloudflare"]*100, "ve_cloudflare_%")
}

func BenchmarkFig19ThirdParty(b *testing.B) {
	var r core.Fig19Result
	for i := 0; i < b.N; i++ {
		r = core.Fig19ThirdParty()
	}
	showOnce("fig19", r.Table())
	b.ReportMetric(r.VE.DNS, "ve_dns")
	b.ReportMetric(r.VE.CDN, "ve_cdn")
}

func BenchmarkFig20ProbeGeo(b *testing.B) {
	setup()
	var r core.Fig20Result
	m := months.New(2023, time.December)
	for i := 0; i < b.N; i++ {
		r = core.Fig20ProbeGeo(benchW.Fleet, benchTrace, m)
	}
	showOnce("fig20", r.Table())
	b.ReportMetric(float64(r.Under10), "border_probes")
}

func BenchmarkFig21USIXPs(b *testing.B) {
	setup()
	var r core.Fig21Result
	for i := 0; i < b.N; i++ {
		r = core.Fig21USIXPs(benchW)
	}
	showOnce("fig21", r.Table())
	b.ReportMetric(float64(r.VENetworks), "ve_networks")
	b.ReportMetric(r.VEShare*100, "ve_share_%")
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationRTTEstimator compares the paper's estimator (median of
// per-probe minimums) against a naive mean over raw samples, reporting
// how much congestion noise the naive estimator absorbs.
func BenchmarkAblationRTTEstimator(b *testing.B) {
	setup()
	m := months.New(2023, time.September) // on the quarterly campaign grid
	var robust, naive float64
	for i := 0; i < b.N; i++ {
		robust, _ = benchTrace.CountryMedian("VE", m)
		naive, _ = benchTrace.CountryMeanNaive("VE", m)
	}
	b.ReportMetric(robust, "median_of_min_ms")
	b.ReportMetric(naive, "naive_mean_ms")
	b.ReportMetric(naive-robust, "noise_absorbed_ms")
}

// BenchmarkAblationOrgAggregation compares organization-level off-net
// coverage (as2org+) with raw per-AS accounting for Google in Venezuela.
func BenchmarkAblationOrgAggregation(b *testing.B) {
	setup()
	hosts := benchW.OffnetHosts("Google", "VE", 2021)
	var withOrg, withoutOrg float64
	for i := 0; i < b.N; i++ {
		withOrg = offnet.Coverage("VE", hosts, benchW.Pop, benchW.Orgs)
		withoutOrg = offnet.Coverage("VE", hosts, benchW.Pop, nil)
	}
	b.ReportMetric(withOrg*100, "org_coverage_%")
	b.ReportMetric(withoutOrg*100, "as_coverage_%")
}

// BenchmarkAblationCatchmentPolicy compares BGP shortest-path catchment
// with naive geographic-nearest selection for a Caracas vantage point:
// geography predicts a nearby Colombian replica, BGP delivers Miami.
func BenchmarkAblationCatchmentPolicy(b *testing.B) {
	setup()
	m := months.New(2023, time.June)
	resolver := netsim.NewResolver(benchW.MonthTopology(m))
	sites := benchW.GPDNSSitesAt(m)
	probe := atlas.Probe{ASN: world.ASCANTV, Country: "VE"}
	if veProbes := benchW.Fleet.ActiveIn("VE", m); len(veProbes) > 0 {
		probe = veProbes[0]
	}
	var bgpLat, geoLat float64
	for i := 0; i < b.N; i++ {
		_, bgpLat, _ = resolver.CatchmentFrom(probe.ASN, probe.City, sites, netsim.PolicyBGP)
		_, geoLat, _ = resolver.CatchmentFrom(probe.ASN, probe.City, sites, netsim.PolicyGeo)
	}
	b.ReportMetric(bgpLat, "bgp_oneway_ms")
	b.ReportMetric(geoLat, "geo_oneway_ms")
}

// BenchmarkAblationSpeedEstimator compares median and mean download-speed
// aggregation under the heavy-tailed NDT distribution: the mean is pulled
// far above the typical user's experience.
func BenchmarkAblationSpeedEstimator(b *testing.B) {
	m := months.New(2023, time.July)
	gen := mlab.NewGenerator(1)
	archive := mlab.NewArchive()
	archive.Add(gen.Draw("VE", m, 10000))
	var median, mean float64
	for i := 0; i < b.N; i++ {
		median, _ = archive.Median("VE", m)
		mean, _ = archive.Mean("VE", m)
	}
	b.ReportMetric(median, "ve_median_mbps")
	b.ReportMetric(mean, "ve_mean_mbps")
}

// BenchmarkCrisisSignatures times the automated detector sweep across
// every Venezuelan series (the future-work extension).
func BenchmarkCrisisSignatures(b *testing.B) {
	setup()
	var r core.SignaturesResult
	for i := 0; i < b.N; i++ {
		r = core.CrisisSignatures(benchW, benchChaos)
	}
	showOnce("signatures", r.Table())
	b.ReportMetric(float64(len(r.Signatures)), "signatures")
}

// --- System benchmarks: the simulator itself ---

// BenchmarkWorldBuild times constructing the synthetic region.
func BenchmarkWorldBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = mustBuild(world.Config{Step: 3})
	}
}

// BenchmarkTraceCampaignMonth times one monthly snapshot of the GPDNS
// traceroute campaign (every probe, catchment plus samples).
func BenchmarkTraceCampaignMonth(b *testing.B) {
	m := months.New(2023, time.July)
	w := mustBuild(world.Config{TraceStart: m, TraceEnd: m})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.TraceCampaign()
	}
}

// BenchmarkChaosCampaignMonth times one monthly snapshot of the built-in
// CHAOS measurements (every probe, all thirteen letters).
func BenchmarkChaosCampaignMonth(b *testing.B) {
	m := months.New(2023, time.July)
	w := mustBuild(world.Config{ChaosStart: m, ChaosEnd: m})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.ChaosCampaign()
	}
}

// campaignWorkerCounts are the pool sizes the full-campaign benchmarks
// sweep; the workers=1 row is the sequential baseline the parallel rows
// are judged against.
var campaignWorkerCounts = []int{1, 4, 8}

// BenchmarkTraceCampaignFull times the complete multi-year traceroute
// campaign (2014-03..2024-01, quarterly) at several worker-pool sizes.
// Each iteration builds a fresh world so no topology or tree cache
// carries over between pool sizes.
func BenchmarkTraceCampaignFull(b *testing.B) {
	for _, workers := range campaignWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := mustBuild(world.Config{Step: 3, Workers: workers})
				_ = w.TraceCampaign()
			}
		})
	}
}

// BenchmarkChaosCampaignFull times the complete multi-year CHAOS sweep
// (2016-01..2024-01, quarterly, thirteen letters) at several worker-pool
// sizes.
func BenchmarkChaosCampaignFull(b *testing.B) {
	for _, workers := range campaignWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := mustBuild(world.Config{Step: 3, Workers: workers})
				_ = w.ChaosCampaign()
			}
		})
	}
}

// BenchmarkTraceCampaignWarm times a full traceroute replay on a world
// whose kernel caches that outlive a pass (interned topologies and
// distance table, site lists, probe-class snapshots, arena pool) are
// already hot. Path trees are not: each replay is a baseline pass of
// its own, so it rebuilds the trees it needs and drops them when it
// returns. Allocations are the month partitions, the rebuilt trees and
// scheduling.
func BenchmarkTraceCampaignWarm(b *testing.B) {
	w := mustBuild(world.Config{Step: 3, Workers: 1})
	_ = w.TraceCampaign()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.TraceCampaign()
	}
}

// BenchmarkChaosCampaignWarm is BenchmarkTraceCampaignWarm for the
// thirteen-letter CHAOS sweep; it too rebuilds its path trees per
// replay, and its TXT intern table stays hot.
func BenchmarkChaosCampaignWarm(b *testing.B) {
	w := mustBuild(world.Config{Step: 3, Workers: 1})
	_ = w.ChaosCampaign()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.ChaosCampaign()
	}
}

// BenchmarkValleyFreeTree times one single-source valley-free
// shortest-path tree over the full topology.
func BenchmarkValleyFreeTree(b *testing.B) {
	setup()
	m := months.New(2023, time.July)
	topo := benchW.MonthTopology(m)
	srcs := benchW.Nets["VE"].Eyeballs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := netsim.NewResolver(topo)
		_ = r.PathInfoFrom(srcs[i%len(srcs)], world.ASGoogle)
	}
}

// BenchmarkChaosParse times the 13-format CHAOS TXT extraction.
func BenchmarkChaosParse(b *testing.B) {
	setup()
	names := []struct {
		letter byte
		txt    string
	}{
		{'L', "ccs01.l.root-servers.org"},
		{'L', "aa.ve-mar.l.root"},
		{'F', "gru1a.f.root-servers.org"},
		{'K', "ns1.cl-scl.k.ripe.net"},
		{'I', "s1.bog"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := names[i%len(names)]
		if _, err := dnsroot.ParseInstance(dnsroot.Letter(n.letter), n.txt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationReplicaDetection quantifies the CHAOS methodology's
// coverage (Section 8): distinct strings detected by the probe fleet
// against instances actually deployed in the region.
func BenchmarkAblationReplicaDetection(b *testing.B) {
	setup()
	m := months.New(2023, time.October) // on the chaos campaign quarterly grid
	var detected, deployed int
	for i := 0; i < b.N; i++ {
		counts := benchChaos.SitesByCountry(m, "")
		detected = 0
		for _, cc := range geo.LACNICCountries() {
			detected += counts[cc]
		}
		deployed = 0
		for cc, n := range benchW.Roots.CountByCountry(m) {
			if c, ok := geo.LookupCountry(cc); ok && c.LACNIC {
				deployed += n
			}
		}
	}
	b.ReportMetric(float64(detected), "detected")
	b.ReportMetric(float64(deployed), "deployed")
	b.ReportMetric(float64(detected)/float64(deployed), "coverage")
}

// BenchmarkScenarioOverlayDense times deriving a counterfactual view of
// the full topology: a copy-on-write overlay over a warm base, its
// patched dense build, and one valley-free resolution through it. The
// allocation count scales with the edit list, not the topology — the
// gap against BenchmarkScenarioDenseRebuild is why the scenario engine
// can replay whole campaigns without per-month graph rebuilds.
func BenchmarkScenarioOverlayDense(b *testing.B) {
	setup()
	topo := benchW.MonthTopology(months.New(2023, time.July))
	edits := []netsim.Edit{
		{Op: netsim.EditRemoveLink, A: 6762, B: 8048, Kind: bgp.ProviderCustomer},
		{Op: netsim.EditAddLink, A: 8048, B: 3816, Kind: bgp.PeerPeer},
	}
	src := benchW.Nets["VE"].Eyeballs[0]
	topo.HasAS(src) // warm the base's dense build
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		over, err := topo.Overlay(edits)
		if err != nil {
			b.Fatal(err)
		}
		if info := netsim.NewResolver(over).PathInfoFrom(src, world.ASGoogle); !info.OK {
			b.Fatal("unreachable under overlay")
		}
	}
}

// BenchmarkScenarioDenseRebuild is the from-scratch control for the
// overlay benchmark: the same counterfactual month rebuilt by replaying
// every link and location into a fresh topology before resolving.
func BenchmarkScenarioDenseRebuild(b *testing.B) {
	setup()
	topo := benchW.MonthTopology(months.New(2023, time.July))
	g := topo.Graph()
	ases := g.ASes()
	type link struct{ a, b bgp.ASN }
	var p2c, p2p []link
	located := map[bgp.ASN]geo.City{}
	for _, a := range ases {
		for _, c := range g.Customers(a) {
			p2c = append(p2c, link{a, c})
		}
		for _, p := range g.Peers(a) {
			if a < p {
				p2p = append(p2p, link{a, p})
			}
		}
		if city, ok := topo.Location(a); ok {
			located[a] = city
		}
	}
	src := benchW.Nets["VE"].Eyeballs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re := netsim.New()
		for _, l := range p2c {
			re.AddLink(l.a, l.b, bgp.ProviderCustomer)
		}
		for _, l := range p2p {
			re.AddLink(l.a, l.b, bgp.PeerPeer)
		}
		for asn, city := range located {
			re.Locate(asn, city)
		}
		if info := netsim.NewResolver(re).PathInfoFrom(src, world.ASGoogle); !info.OK {
			b.Fatal("unreachable after rebuild")
		}
	}
}

// BenchmarkSweepWindowedReplay times one sweep spec through the
// scenario engine against warm baseline campaigns: the op's one-year
// edit window means only the months inside it re-simulate, the rest
// splice from the baseline. This per-spec cost, times the batch size,
// is what a sweep's wall clock scales with.
func BenchmarkSweepWindowedReplay(b *testing.B) {
	setup()
	eng := scenario.NewEngine(scenario.Options{
		World:         benchW,
		BaselineTrace: func(context.Context) (*atlas.TraceCampaign, error) { return benchTrace, nil },
		BaselineChaos: func(context.Context) (*atlas.ChaosCampaign, error) { return benchChaos, nil },
	})
	spec := &scenario.Spec{
		ID:  "bench-depeer",
		Ops: []scenario.Op{{Op: scenario.OpDepeer, ASN: 6762, From: "2023-01", Until: "2024-01"}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	var recomputed, reused int
	for i := 0; i < b.N; i++ {
		_, st, err := eng.RunWith(context.Background(), spec, scenario.RunConfig{SkipTables: true})
		if err != nil {
			b.Fatal(err)
		}
		recomputed = st.TraceMonthsRecomputed + st.ChaosMonthsRecomputed
		reused = st.TraceMonthsReused + st.ChaosMonthsReused
	}
	b.ReportMetric(float64(recomputed), "months_recomputed")
	b.ReportMetric(float64(reused), "months_reused")
}

// BenchmarkSweepResume times restarting a process over a finished
// 52-spec sweep journal: open, CRC-verify and replay the journal,
// re-expand the manifest, and serve the sweep — the startup cost a
// crash adds, with zero re-simulation (the injected runner would fail
// the benchmark if any spec ran again).
func BenchmarkSweepResume(b *testing.B) {
	setup()
	store, err := resultstore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	cheap := func(context.Context, *scenario.Spec) (*scenario.Diff, scenario.RunStats, error) {
		return &scenario.Diff{}, scenario.RunStats{}, nil
	}
	seed := sweep.NewManager(sweep.Options{World: benchW, Store: store, Workers: 8, RunSpec: cheap})
	if _, err := seed.Start(&sweep.Request{ID: "bench", Family: sweep.FamilyRootEach}); err != nil {
		b.Fatal(err)
	}
	for {
		if st, ok := seed.Get("bench"); ok && st.State == sweep.StateDone {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := seed.Drain(context.Background()); err != nil {
		b.Fatal(err)
	}
	poison := func(context.Context, *scenario.Spec) (*scenario.Diff, scenario.RunStats, error) {
		b.Fatal("resume re-simulated a journaled spec")
		return nil, scenario.RunStats{}, nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := sweep.NewManager(sweep.Options{World: benchW, Store: store, RunSpec: poison})
		restored, err := m.Resume()
		if err != nil || restored != 52 {
			b.Fatalf("Resume = %d, %v; want 52 restored", restored, err)
		}
		m.Kill()
	}
}

// BenchmarkFactBuild times producing one full fact-lake generation:
// both campaigns simulate concurrently, every month encodes into a dictionary-coded
// columnar partition, the SCD2 dimensions derive from the world, and
// the generation commits durably (tmp+fsync+rename, manifest last).
func BenchmarkFactBuild(b *testing.B) {
	setup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lake, err := facts.Open(b.TempDir(), benchW.Config.Scope())
		if err != nil {
			b.Fatal(err)
		}
		if err := lake.Build(context.Background(), benchW); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdStart times what a vzserve start pays before it is
// ready: a fresh world at the served quarterly resolution, then one
// fact-lake generation built from it, its two campaigns simulating
// concurrently as vzserve's warm-up runs them. Unlike
// BenchmarkFactBuild, no topology, site list or distance table carries
// over between iterations.
func BenchmarkColdStart(b *testing.B) {
	reg := obs.NewRegistry()
	netsim.InstrumentMetrics(reg)
	bfs := reg.Counter("vz_netsim_tree_bfs_total", "")
	catchments := reg.Counter("vz_netsim_catchments_total", "")
	bfs0, catchments0 := bfs.Value(), catchments.Value()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := mustBuild(world.Config{Step: 3})
		lake, err := facts.Open(b.TempDir(), w.Config.Scope())
		if err != nil {
			b.Fatal(err)
		}
		if err := lake.Build(context.Background(), w); err != nil {
			b.Fatal(err)
		}
	}
	// Work counts repeat exactly from run to run, where ns/op carries
	// the host's noise.
	b.ReportMetric(float64(bfs.Value()-bfs0)/float64(b.N), "tree_bfs/op")
	b.ReportMetric(float64(catchments.Value()-catchments0)/float64(b.N), "catchments/op")
}

// benchLake lazily builds one lake generation shared by the query
// benchmarks.
var (
	benchLakeOnce sync.Once
	benchLake     *facts.Lake
	benchLakeErr  error
)

func setupLake() (*facts.Lake, error) {
	setup()
	benchLakeOnce.Do(func() {
		dir, err := os.MkdirTemp("", "vzlens-bench-lake-*")
		if err != nil {
			benchLakeErr = err
			return
		}
		benchLake, benchLakeErr = facts.Open(dir, benchW.Config.Scope())
		if benchLakeErr == nil {
			benchLakeErr = benchLake.Build(context.Background(), benchW)
		}
	})
	return benchLake, benchLakeErr
}

// BenchmarkQueryWindow is the ad-hoc query layer's headline perf pin: a
// warm two-year median-RTT window grouped by country. Warm means every
// in-window partition is already decoded and cached, so the run is pure
// columnar aggregation — each partition reduced to per-probe minima,
// one percentile per country-month — with allocations bounded by
// groups × months, never by row count.
func BenchmarkQueryWindow(b *testing.B) {
	lake, err := setupLake()
	if err != nil {
		b.Fatal(err)
	}
	eng := query.New(lake)
	p, err := query.ParseParams(url.Values{
		"metric": {"median_rtt"}, "from": {"2018-01"}, "to": {"2019-10"},
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Run(p); err != nil { // decode the window once
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Run(p)
		if err != nil || res.Partitions == 0 || len(res.Groups) == 0 {
			b.Fatalf("query failed: %+v err=%v", res, err)
		}
	}
}

// BenchmarkDNSQuery is the DNS data plane's headline perf pin: one
// warm CHAOS identification query — parse, route through the answer
// cache, build the response — must cost 0 allocs/op and stay well
// under 100µs. The no-ECS form resolves from the default Venezuelan
// vantage.
func BenchmarkDNSQuery(b *testing.B) {
	setup()
	r := dnsplane.NewResolver(benchW, zeroMonth)
	pkt, err := dnswire.EncodeQuery(1, dnswire.Question{
		Name: "hostname.bind.l", Type: dnswire.TypeTXT, Class: dnswire.ClassCH,
	})
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, 0, 4096)
	if out, _ := r.Handle(pkt, dst); out == nil {
		b.Fatal("warmup query dropped")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, info := r.Handle(pkt, dst)
		if out == nil || info.Rcode != 0 {
			b.Fatalf("query failed: %+v", info)
		}
	}
}

// BenchmarkDNSQueryECS times the EDNS0 path: an IN A query for a
// vanity name carrying a probe-identifying client subnet, answered
// with the OPT + ECS echo. Same 0-alloc contract.
func BenchmarkDNSQueryECS(b *testing.B) {
	setup()
	r := dnsplane.NewResolver(benchW, zeroMonth)
	pkt, err := dnswire.EncodeQuery(2, dnswire.Question{
		Name: "l.root-servers.vz", Type: dnswire.TypeA, Class: dnswire.ClassIN,
	})
	if err != nil {
		b.Fatal(err)
	}
	ecs := &dnswire.ECS{Family: dnswire.ECSFamilyIPv4, SourcePrefix: 32, AddrLen: 4}
	ecs.Addr[0], ecs.Addr[3] = 10, 1 // probe 1: CANTV, Caracas
	pkt = dnswire.AppendQueryOPT(pkt, 1232, ecs)
	dst := make([]byte, 0, 4096)
	if out, _ := r.Handle(pkt, dst); out == nil {
		b.Fatal("warmup query dropped")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, info := r.Handle(pkt, dst)
		if out == nil || info.Rcode != 0 || info.Source != dnsplane.SourceProbe {
			b.Fatalf("query failed: %+v", info)
		}
	}
}

// zeroMonth asks NewResolver for its default month (the campaign end).
var zeroMonth months.Month

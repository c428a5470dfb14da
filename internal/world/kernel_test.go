package world

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"vzlens/internal/atlas"
	"vzlens/internal/dnsroot"
	"vzlens/internal/geo"
	"vzlens/internal/months"
	"vzlens/internal/netsim"
	"vzlens/internal/obs"
)

// refTopologyFor is the pre-kernel resolver path: the faithful monthly
// topology, with scenario overlays stacked on it directly. The kernel
// must be observationally identical to this.
func refTopologyFor(t *testing.T, w *World, m months.Month, plan *ScenarioPlan) *netsim.Resolver {
	t.Helper()
	base := w.MonthTopology(m)
	if plan == nil {
		return netsim.NewResolver(base)
	}
	ov, err := base.Overlay(plan.editsAt(m, base))
	if err != nil {
		t.Fatalf("reference overlay %s: %v", m, err)
	}
	return netsim.NewResolver(ov)
}

// refTraceMonth replays the pre-columnar traceroute inner loop: one
// catchment and one fresh rand.New per probe, straight appends.
func refTraceMonth(t *testing.T, w *World, m months.Month, plan *ScenarioPlan) []atlas.TraceSample {
	t.Helper()
	resolver := refTopologyFor(t, w, m, plan)
	sites := w.gpdnsSitesFor(m, plan)
	var out []atlas.TraceSample
	for _, p := range w.Fleet.ActiveAt(m) {
		local := localizeSites(sites, p)
		_, oneWay, err := resolver.CatchmentFrom(p.ASN, p.City, local, w.Config.Policy)
		if err != nil {
			continue
		}
		access := AccessDelayMs(p.Country, m)
		rng := rand.New(rand.NewSource(sampleSeed(w.Config.Seed, m, p.ID)))
		for s := 0; s < w.Config.SamplesPerProbe; s++ {
			out = append(out, atlas.TraceSample{
				Month: m, ProbeID: p.ID, ProbeCC: p.Country,
				RTTms: netsim.RTT(oneWay, access, rng),
			})
		}
	}
	return out
}

// refChaosMonth replays the pre-columnar CHAOS inner loop, rendering
// each TXT answer per probe.
func refChaosMonth(t *testing.T, w *World, m months.Month, plan *ScenarioPlan) []atlas.ChaosResult {
	t.Helper()
	resolver := refTopologyFor(t, w, m, plan)
	probes := w.Fleet.ActiveAt(m)
	var out []atlas.ChaosResult
	for _, letter := range dnsroot.Letters() {
		sites, insts := w.rootSitesFor(letter, m, plan)
		if len(sites) == 0 {
			continue
		}
		for _, p := range probes {
			local := localizeSites(sites, p)
			idx, _, err := resolver.CatchmentIndex(p.ASN, p.City, local, w.Config.Policy)
			if err != nil {
				continue
			}
			out = append(out, atlas.ChaosResult{
				Month: m, ProbeID: p.ID, ProbeCC: p.Country,
				Letter: letter, TXT: insts[idx].ChaosName(m),
			})
		}
	}
	return out
}

// traceSamples is a trace month's partition as rows.
func traceSamples(p *atlas.TracePartition) []atlas.TraceSample {
	return atlas.NewTraceCampaignOf([]*atlas.TracePartition{p}).Samples()
}

// chaosMonth emits one CHAOS month as rows from the kernel's cells, in
// the letter-major, probe-minor order chaosPartition codes them: the
// rows the differential tests compare with the pre-kernel loop and with
// the string-keyed coder. A nil arena checks one out for the call.
func (w *World) chaosMonth(_ context.Context, m months.Month, plan *ScenarioPlan, ar *campaignArena) []atlas.ChaosResult {
	if ar == nil {
		ar, _ = w.acquireArena()
		defer w.releaseArena(ar)
	}
	var txts [16][]string
	mc, total := w.chaosCells(m, plan, ar, &txts)
	nc := len(w.classKeys)
	out := make([]atlas.ChaosResult, 0, total)
	for li, letter := range dnsroot.Letters() {
		txt := txts[li]
		if txt == nil {
			continue
		}
		base := li * nc
		for i, c := range mc.classOf {
			if !ar.ok[base+int(c)] {
				continue
			}
			out = append(out, atlas.ChaosResult{
				Month:   m,
				ProbeID: int(mc.ids[i]),
				ProbeCC: w.classKeys[c].country,
				Letter:  letter,
				TXT:     txt[ar.idx[base+int(c)]],
			})
		}
	}
	return out
}

// kernelTestPlan exercises every edit family at once against the
// kernel's overlay-on-overlay path: a depeer (walks the kernel month's
// effective adjacency), a relocation (drops the shared edge-delay
// cache), and GPDNS/root site changes (bypass list interning).
func kernelTestPlan(t *testing.T) *ScenarioPlan {
	t.Helper()
	ccs, ok := geo.LookupIATA("CCS")
	if !ok {
		t.Fatal("CCS unknown")
	}
	bog, ok := geo.LookupIATA("BOG")
	if !ok {
		t.Fatal("BOG unknown")
	}
	from, until := mm(2016, time.January), mm(2024, time.January)
	return &ScenarioPlan{
		Key:     "kernel-mixed",
		Depeers: []ScenarioDepeer{{ASN: ASTelefonica, From: from, Until: until}},
		Moves:   []ScenarioMove{{ASN: 21826, City: bog, From: from, Until: until}},
		GPDNS:   []ScenarioGPDNSSite{{Host: ASCANTV, City: ccs, From: from}},
		Roots: []ScenarioRootReplica{{
			Letter: dnsroot.Letter('L'), Host: ASCANTV, City: ccs, From: from,
		}},
	}
}

// TestKernelMonthsMatchReference is the columnar kernel's ground-truth
// check: for months spanning the CANTV provider timeline (and under a
// mixed scenario plan), traceMonth and chaosMonth must reproduce the
// pre-kernel per-probe loops byte for byte — same samples, same order,
// same RTT bits.
func TestKernelMonthsMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation")
	}
	w, err := Build(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ms := []months.Month{
		mm(2014, time.March), // trace campaign start, US providers still in
		mm(2016, time.July),  // mid-exodus
		mm(2019, time.January),
		mm(2023, time.July), // post-exodus, fiber-era access delay
	}
	for _, plan := range []*ScenarioPlan{nil, kernelTestPlan(t)} {
		name := "baseline"
		if plan != nil {
			name = plan.Key
		}
		for _, m := range ms {
			t.Run(fmt.Sprintf("%s/%s", name, m), func(t *testing.T) {
				gotT := traceSamples(w.traceMonth(ctx, m, plan, nil))
				wantT := refTraceMonth(t, w, m, plan)
				if !equalTraceSamples(gotT, wantT) {
					t.Errorf("traceMonth diverges from reference (%d vs %d samples)", len(gotT), len(wantT))
				}
				gotC := w.chaosMonth(ctx, m, plan, nil)
				wantC := refChaosMonth(t, w, m, plan)
				if !equalChaosResults(gotC, wantC) {
					t.Errorf("chaosMonth diverges from reference (%d vs %d results)", len(gotC), len(wantC))
				}
			})
		}
	}
}

// TestWindowedCrossSpecDeterminism guards the arena pool's isolation
// contract: scratch reused across sweep specs must not leak state. Spec
// A's windowed replay is run, a different spec dirties the shared
// arenas (and every kernel cache), and A is run again — both runs must
// match each other and the unwindowed full replay exactly.
func TestWindowedCrossSpecDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation")
	}
	w := windowedTestWorld(t)
	ctx := context.Background()
	baseTC := w.TraceCampaign()
	baseCC := w.ChaosCampaign()
	plans := windowedPlans(t)
	a, b := plans["depeer_window"], plans["event_shift"]

	a1TC, _ := w.TraceCampaignScenarioWindowed(ctx, a, baseTC)
	a1CC, _ := w.ChaosCampaignScenarioWindowed(ctx, a, baseCC)
	if _, n := w.TraceCampaignScenarioWindowed(ctx, b, baseTC); n == 0 {
		t.Fatal("interleaved spec recomputed nothing; it cannot dirty the arenas")
	}
	w.ChaosCampaignScenarioWindowed(ctx, b, baseCC)
	a2TC, _ := w.TraceCampaignScenarioWindowed(ctx, a, baseTC)
	a2CC, _ := w.ChaosCampaignScenarioWindowed(ctx, a, baseCC)

	if !equalTraceSamples(a1TC.Samples(), a2TC.Samples()) {
		t.Error("trace replay of spec A changed after running spec B on the same arenas")
	}
	if !equalChaosResults(a1CC.Results(), a2CC.Results()) {
		t.Error("chaos replay of spec A changed after running spec B on the same arenas")
	}
	fullTC := w.traceCampaign(ctx, a)
	fullCC := w.chaosCampaign(ctx, a)
	if !equalTraceSamples(a1TC.Samples(), fullTC.Samples()) {
		t.Error("windowed spec A diverges from its full replay")
	}
	if !equalChaosResults(a1CC.Results(), fullCC.Results()) {
		t.Error("windowed chaos spec A diverges from its full replay")
	}
}

// TestCampaignKernelAllocs pins the steady-state allocation behavior
// the columnar rewrite bought: a warm trace month allocates only its
// output partition (the partition, its four exactly-sized columns and
// its dictionary: 6 allocations for the whole month-to-partition step,
// where emitting samples and coding them into a partition took 2 + 10),
// the CHAOS kernel's row emission only its output slice, and arena
// checkout allocates nothing once the pool is primed.
func TestCampaignKernelAllocs(t *testing.T) {
	m := mm(2023, time.July)
	w, err := Build(Config{
		TraceStart: m, TraceEnd: m, ChaosStart: m, ChaosEnd: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ar, _ := w.acquireArena()
	defer w.releaseArena(ar)
	w.traceMonth(ctx, m, nil, ar)
	w.chaosMonth(ctx, m, nil, ar)

	if allocs := testing.AllocsPerRun(10, func() {
		w.traceMonth(ctx, m, nil, ar)
	}); allocs > 6 {
		t.Errorf("warm traceMonth: %.1f allocs/run, want <= 6 (output partition only)", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		w.chaosMonth(ctx, m, nil, ar)
	}); allocs > 2 {
		t.Errorf("warm chaosMonth: %.1f allocs/run, want <= 2 (output slice only)", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		a, _ := w.acquireArena()
		w.releaseArena(a)
	}); allocs >= 1 {
		t.Errorf("warm arena acquire/release: %.2f allocs/run, want < 1", allocs)
	}
}

// TestCampaignArenaPoolRace hammers the shared kernel state — arena
// pool, class/site/localization/TXT memos, per-signature resolvers —
// from concurrent full campaigns. Its assertions are determinism
// checks; its real teeth are `go test -race`.
func TestCampaignArenaPoolRace(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation")
	}
	w, err := Build(Config{
		TraceStart: mm(2019, time.January), TraceEnd: mm(2020, time.January),
		ChaosStart: mm(2019, time.January), ChaosEnd: mm(2020, time.January),
		Step: 3, Workers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 4
	traces := make([]*atlas.TraceCampaign, runs)
	chaoses := make([]*atlas.ChaosCampaign, runs)
	var wg sync.WaitGroup
	for g := 0; g < runs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			traces[g] = w.TraceCampaign()
			chaoses[g] = w.ChaosCampaign()
		}(g)
	}
	wg.Wait()
	for g := 1; g < runs; g++ {
		if !equalTraceSamples(traces[0].Samples(), traces[g].Samples()) {
			t.Errorf("concurrent trace campaign %d diverged", g)
		}
		if !equalChaosResults(chaoses[0].Results(), chaoses[g].Results()) {
			t.Errorf("concurrent chaos campaign %d diverged", g)
		}
	}
}

// TestKernelSignatureInterning checks the kernel's resolver economy:
// months with identical Venezuelan wiring must share one resolver, and
// distinct signatures must not.
func TestKernelSignatureInterning(t *testing.T) {
	w, err := Build(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// 2023-07 and 2023-08: same providers (post-2022 set is stable), same
	// capped customer count.
	a := w.kernelTopologyAt(mm(2023, time.July))
	b := w.kernelTopologyAt(mm(2023, time.August))
	if a != b {
		t.Error("same-signature months built distinct resolvers")
	}
	// 2013-06 vs 2013-08: Verizon leaves in 2013-07.
	c := w.kernelTopologyAt(mm(2013, time.June))
	d := w.kernelTopologyAt(mm(2013, time.August))
	if c == d {
		t.Error("provider departure did not change the kernel signature")
	}
	if sig := kernelSigAt(mm(2013, time.June)); sig == kernelSigAt(mm(2013, time.August)) {
		t.Errorf("kernelSigAt equal across Verizon's departure: %+v", sig)
	}
}

// TestKernelTreesLiveOnlyForPasses pins the path-tree lifecycle, read
// off vz_netsim_tree_bfs_total. Concurrent baseline passes share every
// tree: at Step 3 the trace and CHAOS campaigns run 200 BFS traversals
// together, where one tree per (signature, source) took 1,705. The 200
// are 113 trees on the kernel base, one per source outside CANTV's
// 33-AS customer cone, which every signature borrows; 48 own trees of
// the (signature, source) pairs whose source is inside the cone; and
// 39 own trees of (signature, source) pairs outside it whose hop bound
// into the cone could not rule out a cone-hosted root replica. When
// the last pass returns the trees are dropped, so a DNS answer
// afterwards (its client is in CANTV) rebuilds its source's tree (one
// traversal) and keeps it until the next pass ends. A pass over
// rebuilt trees produces the same partitions. The last round runs the
// passes again with DNS answers racing them, for -race: the answers
// never change, and the passes share their trees with the racers.
func TestKernelTreesLiveOnlyForPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("four Step 3 campaign passes")
	}
	reg := obs.NewRegistry()
	netsim.InstrumentMetrics(reg)
	bfs := reg.Counter("vz_netsim_tree_bfs_total", "")
	w := mustBuild(Config{Step: 3})
	// A Venezuelan probe at the DNS plane's pinned month asks every
	// letter; its source tree is one the passes build too.
	dm := w.DefaultDNSMonth()
	var client atlas.Probe
	for _, p := range w.Fleet.ActiveAt(dm) {
		if p.Country == "VE" {
			client = p
			break
		}
	}
	if client.ID == 0 {
		t.Fatalf("no Venezuelan probe active at %s", dm)
	}
	answers := func() []DNSAnswer {
		var out []DNSAnswer
		for _, l := range dnsroot.Letters() {
			a, err := w.DNSAnswerAt(l, dm, client.Country, client.ASN, client.City, nil)
			if err != nil {
				t.Errorf("DNSAnswerAt %c: %v", l, err)
			}
			out = append(out, a)
		}
		return out
	}

	n := bfs.Value()
	tc, cc := w.BaselineCampaigns(context.Background())
	if got := bfs.Value() - n; got != 200 {
		t.Errorf("concurrent baseline passes ran %d tree BFS, want 200", got)
	}
	n = bfs.Value()
	want := answers()
	if got := bfs.Value() - n; got != 1 {
		t.Errorf("DNS answers after the passes ran %d tree BFS, want 1 (its dropped tree rebuilt)", got)
	}
	n = bfs.Value()
	answers()
	if got := bfs.Value() - n; got != 0 {
		t.Errorf("repeated DNS answers ran %d tree BFS, want 0 (the rebuilt tree is kept)", got)
	}

	again := w.TraceCampaign()
	if !reflect.DeepEqual(again.Partitions(), tc.Partitions()) {
		t.Error("trace campaign over rebuilt trees diverges from the first run")
	}

	stop := make(chan struct{})
	var racers sync.WaitGroup
	for g := 0; g < 2; g++ {
		racers.Add(1)
		go func() {
			defer racers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := answers(); !reflect.DeepEqual(got, want) {
					t.Errorf("DNS answers racing the passes: %+v, want %+v", got, want)
					return
				}
			}
		}()
	}
	n = bfs.Value()
	tc2, cc2 := w.BaselineCampaigns(context.Background())
	close(stop)
	racers.Wait()
	// A racer that answers after the last pass drops the trees
	// rebuilds its own once more.
	if got := bfs.Value() - n; got < 200 || got > 201 {
		t.Errorf("passes raced by DNS answers ran %d tree BFS, want 200 (+1 for a rebuild after the drop)", got)
	}
	if !reflect.DeepEqual(tc2.Partitions(), tc.Partitions()) || !reflect.DeepEqual(cc2.Partitions(), cc.Partitions()) {
		t.Error("passes raced by DNS answers diverge from the first run")
	}
}

// TestSharedCatchmentsMatchOwnTrees is the exactness check of borrowed
// trees: over seeds 1–8 at Steps 1 and 3, inside a baseline pass, every
// baseline (month, site list, class) answer the kernel gives through
// its borrowed trees and the pass's memo equals the answer of a plain
// resolver over the same signature overlay, which prices every source
// over its own full tree. Seed 1 runs under the geo policy too. The
// answers must include shared and unshared ones, so both paths run.
func TestSharedCatchmentsMatchOwnTrees(t *testing.T) {
	if testing.Short() {
		t.Skip("sixteen worlds' baseline catchments")
	}
	type run struct {
		seed   int64
		step   int
		policy netsim.CatchmentPolicy
	}
	var runs []run
	for seed := int64(1); seed <= 8; seed++ {
		for _, step := range []int{1, 3} {
			runs = append(runs, run{seed: seed, step: step})
		}
	}
	runs = append(runs, run{seed: 1, step: 3, policy: netsim.PolicyGeo})
	for _, rc := range runs {
		w := mustBuild(Config{Seed: rc.seed, Step: rc.step, Policy: rc.policy})
		label := fmt.Sprintf("seed %d step %d policy %d", rc.seed, rc.step, rc.policy)
		ms := w.campaignMonths(w.Config.TraceStart, w.Config.TraceEnd)
		ms = append(ms, w.campaignMonths(w.Config.ChaosStart, w.Config.ChaosEnd)...)
		oracles := map[*netsim.Resolver]*netsim.Resolver{}
		shared, unshared := 0, 0
		w.beginBaselinePass()
		for _, m := range ms {
			r := w.kernelTopologyAt(m)
			oracle, ok := oracles[r]
			if !ok {
				oracle = netsim.NewResolver(r.Topology())
				oracles[r] = oracle
			}
			mc := w.classesAt(m)
			lists := []*netsim.SiteList{w.traceSiteListAt(m, nil)}
			for _, l := range dnsroot.Letters() {
				if rl := w.rootSiteListAt(l, m, nil); len(rl.insts) > 0 {
					lists = append(lists, rl.sites)
				}
			}
			for _, list := range lists {
				memo := w.listMemoFor(r, nil, list)
				for _, c := range mc.classes {
					k := &w.classKeys[c]
					got, gotErr := w.catchment(memo, r, c, list)
					want, wantErr := oracle.CatchmentInfo(k.asn, k.city, k.country, list, rc.policy)
					if got.Shared {
						shared++
					} else {
						unshared++
					}
					if gotErr != wantErr || gotErr == nil && (got.Index != want.Index || got.Hops != want.Hops || math.Float64bits(got.Latency) != math.Float64bits(want.Latency)) {
						t.Fatalf("%s %s AS%d %s: shared path gave (site %d, %d hops, %v ms, %v), own tree (site %d, %d hops, %v ms, %v)",
							label, m, k.asn, k.city.Name, got.Index, got.Hops, got.Latency, gotErr, want.Index, want.Hops, want.Latency, wantErr)
					}
				}
			}
		}
		w.endBaselinePass()
		if shared == 0 || unshared == 0 {
			t.Errorf("%s: %d shared and %d unshared answers, want some of each", label, shared, unshared)
		}
	}
}

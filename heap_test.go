package vzlens

import (
	"context"
	"runtime"
	"testing"

	"vzlens/internal/atlas"
	"vzlens/internal/core"
	"vzlens/internal/facts"
	"vzlens/internal/netsim"
	"vzlens/internal/obs"
	"vzlens/internal/scenario"
	"vzlens/internal/world"
)

// TestColdStartRetainedHeap pins the live heap a cold start leaves
// behind: a fresh world at vzserve's default quarterly resolution, its
// fact lake built, and both campaigns simulated, measured as the
// HeapAlloc growth after two collections. Besides the campaigns
// themselves it is the campaign kernel's memos that outlive a pass
// (probe-class snapshots, root site lists, topologies); path trees are
// not among them, because the last baseline pass drops them. It is not
// parallel, so no other test allocates while it measures.
func TestColdStartRetainedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world, a fact lake and both campaigns")
	}
	const budgetMB = 6 // measured 2.96 MB (linux/amd64, Go 1.24)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)

	w := mustBuild(world.Config{Step: 3})
	lake, err := facts.Open(t.TempDir(), w.Config.Scope())
	if err != nil {
		t.Fatal(err)
	}
	tc, cc := w.TraceCampaign(), w.ChaosCampaign()
	if err := lake.BuildFrom(w, tc, cc); err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(w)
	runtime.KeepAlive(lake)
	runtime.KeepAlive(tc)
	runtime.KeepAlive(cc)

	retainedMB := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
	t.Logf("retained heap after a cold start: %.2f MB (budget %d MB)", retainedMB, budgetMB)
	if retainedMB > budgetMB {
		t.Errorf("cold start retains %.2f MB of heap, budget %d MB", retainedMB, budgetMB)
	}
}

// TestColdStartAllocBudget pins what a cold start allocates, not what
// it keeps: world.Build and facts.Lake.Build at vzserve's default
// quarterly resolution, measured as the growth of
// runtime.MemStats.TotalAlloc around them, and the number of catchment
// loops the lake build's baseline pass runs (vz_netsim_catchments_total).
// Allocation drives the collector on the start-up's critical path, so
// a change that allocates more shows here before it shows in the
// benchmark's setup time. Measured like the tests around it: not
// parallel, so no other test allocates or prices catchments meanwhile.
func TestColdStartAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world and a fact lake")
	}
	// Measured 9.25 MB (linux/amd64, Go 1.24), plus 10%.
	const budgetMB = 10.2
	// The pass prices every catchment answer it needs exactly once, so
	// the count repeats run to run: 15,382 (share key, site list,
	// class) answers fill the shared memo, 1,703 of them not flagged
	// Shared; those depend on the wiring, and 4,128 (resolver, site
	// list, class) answers fill the per-resolver memo, of which the
	// 1,703 were seeded by the shared pricing. 15,382 + 4,128 - 1,703.
	const wantCatchments = 17807
	reg := obs.NewRegistry()
	netsim.InstrumentMetrics(reg)
	catchments := reg.Counter("vz_netsim_catchments_total", "")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c0 := catchments.Value()

	w := mustBuild(world.Config{Step: 3})
	lake, err := facts.Open(t.TempDir(), w.Config.Scope())
	if err != nil {
		t.Fatal(err)
	}
	if err := lake.Build(context.Background(), w); err != nil {
		t.Fatal(err)
	}

	runtime.ReadMemStats(&after)
	if got := catchments.Value() - c0; got != wantCatchments {
		t.Errorf("the cold start priced %d catchments, want %d", got, wantCatchments)
	}
	allocMB := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("a cold start allocates %.2f MB (budget %.1f MB)", allocMB, budgetMB)
	if allocMB > budgetMB {
		t.Errorf("a cold start allocates %.2f MB, budget %.1f MB", allocMB, budgetMB)
	}
}

// TestServedRetainedHeap is TestColdStartRetainedHeap on the path a
// restarted vzserve serves: the lake is reopened over the directory a
// build wrote, so the campaigns come from its partitions decoded from
// disk, and the kernel's own campaigns are dropped. As there, no path
// tree outlives the passes that built the lake.
func TestServedRetainedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world and a fact lake")
	}
	const budgetMB = 6 // measured 3.01 MB (linux/amd64, Go 1.24)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)

	w := mustBuild(world.Config{Step: 3})
	dir := t.TempDir()
	built, err := facts.Open(dir, w.Config.Scope())
	if err != nil {
		t.Fatal(err)
	}
	if err := built.BuildFrom(w, w.TraceCampaign(), w.ChaosCampaign()); err != nil {
		t.Fatal(err)
	}
	lake, err := facts.Open(dir, w.Config.Scope())
	if err != nil {
		t.Fatal(err)
	}
	tc, err := lake.TraceCampaign()
	if err != nil {
		t.Fatal(err)
	}
	cc, err := lake.ChaosCampaign()
	if err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(w)
	runtime.KeepAlive(lake)
	runtime.KeepAlive(tc)
	runtime.KeepAlive(cc)

	retainedMB := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
	t.Logf("retained heap serving lake-built campaigns: %.2f MB (budget %d MB)", retainedMB, budgetMB)
	if retainedMB > budgetMB {
		t.Errorf("serving lake-built campaigns retains %.2f MB of heap, budget %d MB", retainedMB, budgetMB)
	}
}

// TestChaosCampaignRetainedHeap pins what the served CHAOS campaign
// alone costs: a Step-3 lake is built and reopened cold, and the heap
// is measured around its ChaosCampaign, which decodes every CHAOS
// partition from disk. A partition keeps two uint16 codes per row and
// its probe and answer tables, not five row columns. Measured like the
// tests above.
func TestChaosCampaignRetainedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world and a fact lake")
	}
	const budgetMB = 1.2 // measured 0.91 MB (linux/amd64, Go 1.24)
	w := mustBuild(world.Config{Step: 3})
	dir := t.TempDir()
	built, err := facts.Open(dir, w.Config.Scope())
	if err != nil {
		t.Fatal(err)
	}
	if err := built.BuildFrom(w, w.TraceCampaign(), w.ChaosCampaign()); err != nil {
		t.Fatal(err)
	}
	lake, err := facts.Open(dir, w.Config.Scope())
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)

	cc, err := lake.ChaosCampaign()
	if err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(w)
	runtime.KeepAlive(lake)

	if cc.Len() != 159224 {
		t.Fatalf("lake CHAOS campaign holds %d rows, want 159224", cc.Len())
	}
	retainedMB := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
	t.Logf("retained heap of the lake-built CHAOS campaign: %.2f MB (budget %.1f MB)", retainedMB, budgetMB)
	if retainedMB > budgetMB {
		t.Errorf("the lake-built CHAOS campaign retains %.2f MB of heap, budget %.1f MB", retainedMB, budgetMB)
	}
}

// TestArchiveRetainedHeap pins what Figures 8 and 9 leave behind on a
// fresh world at vzserve's default quarterly resolution: the
// relationship archive's memo keeps one graph per Venezuelan wiring
// signature and no per-month topology. Measured like the tests above.
func TestArchiveRetainedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world and its relationship archive")
	}
	const budgetMB = 1.5 // measured 0.77 MB (linux/amd64, Go 1.24)
	w := mustBuild(world.Config{Step: 3})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)

	f8 := core.Fig8CANTV(w)
	f9 := core.Fig9TransitHeatmap(w)

	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(w)

	if f8.PeakUpstreams == 0 || len(f9.History) == 0 {
		t.Fatal("Figures 8 and 9 came back empty")
	}
	retainedMB := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
	t.Logf("retained heap after Figures 8 and 9: %.2f MB (budget %.1f MB)", retainedMB, budgetMB)
	if retainedMB > budgetMB {
		t.Errorf("Figures 8 and 9 retain %.2f MB of heap, budget %.1f MB", retainedMB, budgetMB)
	}
}

// TestScenarioRunRetainedHeap pins what finished what-if runs leave
// behind: an engine handed a Step-3 world's baseline campaigns runs two
// 6-month depeers of CANTV's transit providers (3356 from 2016-01 and
// 23520 from 2019-04, the shape of vzbench's whatif warm-up), and the
// heap is measured around both runs. A run's overlay resolvers and
// their path trees live with its compiled plan, so they are garbage
// once the run returns. Measured like the tests above.
func TestScenarioRunRetainedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world, both campaigns and two scenario runs")
	}
	const budgetMB = 0.5 // measured 0.09 MB, 2.93 MB with a World-level plan cache (linux/amd64, Go 1.24)
	ctx := context.Background()
	w := mustBuild(world.Config{Step: 3})
	tc, cc := w.BaselineCampaigns(ctx)
	eng := scenario.NewEngine(scenario.Options{
		World:         w,
		BaselineTrace: func(context.Context) (*atlas.TraceCampaign, error) { return tc, nil },
		BaselineChaos: func(context.Context) (*atlas.ChaosCampaign, error) { return cc, nil },
	})
	specs := []*scenario.Spec{
		{ID: "depeer-3356", Ops: []scenario.Op{{Op: scenario.OpDepeer, ASN: 3356, From: "2016-01", Until: "2016-07"}}},
		{ID: "depeer-23520", Ops: []scenario.Op{{Op: scenario.OpDepeer, ASN: 23520, From: "2019-04", Until: "2019-10"}}},
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)

	for _, sp := range specs {
		diff, err := eng.Run(ctx, sp)
		if err != nil {
			t.Fatal(err)
		}
		if len(diff.Trace) == 0 {
			t.Fatalf("%s moved no trace median", sp.ID)
		}
	}

	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(w)
	runtime.KeepAlive(eng)
	runtime.KeepAlive(tc)
	runtime.KeepAlive(cc)

	retainedMB := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
	t.Logf("retained heap after two scenario runs: %.2f MB (budget %.1f MB)", retainedMB, budgetMB)
	if retainedMB > budgetMB {
		t.Errorf("two finished scenario runs retain %.2f MB of heap, budget %.1f MB", retainedMB, budgetMB)
	}
}

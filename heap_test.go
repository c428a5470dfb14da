package vzlens

import (
	"runtime"
	"testing"

	"vzlens/internal/core"
	"vzlens/internal/facts"
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

package world

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"vzlens/internal/atlas"
	"vzlens/internal/dnsroot"
	"vzlens/internal/months"
	"vzlens/internal/netsim"
	"vzlens/internal/obs"
)

// treeBFS installs a fresh netsim registry and returns its
// vz_netsim_tree_bfs_total counter: one tick per path tree built.
func treeBFS() *obs.Counter {
	reg := obs.NewRegistry()
	netsim.InstrumentMetrics(reg)
	return reg.Counter("vz_netsim_tree_bfs_total", "")
}

// planCells reports how many month resolvers plan's memo holds.
func planCells(plan *ScenarioPlan) int {
	plan.memo.mu.Lock()
	defer plan.memo.mu.Unlock()
	return len(plan.memo.cells)
}

// TestScenarioResolversLiveOnPlan pins where scenario resolvers live:
// on the compiled plan, one per (plan, month). Concurrent callers of
// one month get the same resolver, another month gets its own, and a
// second plan with the same Key shares nothing with the first.
func TestScenarioResolversLiveOnPlan(t *testing.T) {
	w := windowedTestWorld(t)
	plan := windowedPlans(t)["depeer_window"]
	m := months.New(2019, time.April)

	r := w.topologyFor(m, plan)
	var wg sync.WaitGroup
	got := make([]*netsim.Resolver, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = w.topologyFor(m, plan)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != r {
			t.Fatalf("call %d for %s returned another resolver", i, m)
		}
	}
	if w.topologyFor(m.Add(3), plan) == r {
		t.Errorf("%s and %s share one resolver", m, m.Add(3))
	}
	if n := planCells(plan); n != 2 {
		t.Errorf("plan memo holds %d months, want 2", n)
	}

	twin := windowedPlans(t)["depeer_window"]
	if twin.Key != plan.Key {
		t.Fatalf("twin key %q, want %q", twin.Key, plan.Key)
	}
	if w.topologyFor(m, twin) == r {
		t.Error("two plans with one Key share a resolver")
	}
	if n := planCells(twin); n != 1 {
		t.Errorf("twin memo holds %d months, want 1", n)
	}
}

// TestScenarioRunSharesTreesAcrossReplays counts path-tree BFS
// traversals over one run's windowed replays. The CHAOS replay reuses
// the trace replay's resolver for each month, so it builds only the
// trees the trace replay did not: a CHAOS replay on a fresh plan
// builds more, and either order builds the same union. Replaying again
// under the same plan builds nothing.
func TestScenarioRunSharesTreesAcrossReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation")
	}
	w := windowedTestWorld(t)
	ctx := context.Background()
	baseTC, baseCC := w.BaselineCampaigns(ctx)
	bfs := treeBFS()
	count := func(f func()) uint64 {
		n := bfs.Value()
		f()
		return bfs.Value() - n
	}
	replayTrace := func(plan *ScenarioPlan) func() {
		return func() { w.TraceCampaignScenarioWindowed(ctx, plan, baseTC) }
	}
	replayChaos := func(plan *ScenarioPlan) func() {
		return func() { w.ChaosCampaignScenarioWindowed(ctx, plan, baseCC) }
	}

	plan := windowedPlans(t)["depeer_window"]
	trace := count(replayTrace(plan))
	chaos := count(replayChaos(plan))

	twin := windowedPlans(t)["depeer_window"]
	chaosAlone := count(replayChaos(twin))
	traceAfter := count(replayTrace(twin))

	t.Logf("trace %d + chaos %d BFS; chaos alone %d + trace %d", trace, chaos, chaosAlone, traceAfter)
	if trace == 0 || chaosAlone == 0 {
		t.Fatal("the replays built no path trees")
	}
	if chaos >= chaosAlone {
		t.Errorf("CHAOS replay after the trace replay built %d trees, alone %d: it shared none", chaos, chaosAlone)
	}
	if trace+chaos != chaosAlone+traceAfter {
		t.Errorf("trace then CHAOS built %d trees, CHAOS then trace %d: a replay rebuilt a tree", trace+chaos, chaosAlone+traceAfter)
	}
	if again := count(func() { replayTrace(plan)(); replayChaos(plan)() }); again != 0 {
		t.Errorf("replaying under the same plan built %d trees, want 0", again)
	}
}

// TestScenarioPlanBoundToFirstWorld uses a plan filled by one World
// with a second World of another seed: the second World gets resolvers
// of its own, the plan's memo stays the first World's, and the
// second World's windowed campaigns under it equal those under a fresh
// plan.
func TestScenarioPlanBoundToFirstWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation")
	}
	ctx := context.Background()
	w1 := windowedTestWorld(t)
	cfg := w1.Config
	cfg.Seed = 7
	w2, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := windowedPlans(t)["depeer_window"]
	m := months.New(2019, time.April)
	tc1, _ := w1.TraceCampaignScenarioWindowed(ctx, plan, w1.TraceCampaign())
	filled := planCells(plan)

	if w2.topologyFor(m, plan) == w1.topologyFor(m, plan) {
		t.Error("the second World got the first World's resolver")
	}
	base2, chaos2 := w2.BaselineCampaigns(ctx)
	tc2, _ := w2.TraceCampaignScenarioWindowed(ctx, plan, base2)
	cc2, _ := w2.ChaosCampaignScenarioWindowed(ctx, plan, chaos2)
	if n := planCells(plan); n != filled {
		t.Errorf("the second World changed the plan's memo: %d months, want %d", n, filled)
	}

	fresh := windowedPlans(t)["depeer_window"]
	want2, _ := w2.TraceCampaignScenarioWindowed(ctx, fresh, base2)
	wantCC2, _ := w2.ChaosCampaignScenarioWindowed(ctx, fresh, chaos2)
	if !reflect.DeepEqual(tc2.Partitions(), want2.Partitions()) {
		t.Error("trace replay under a plan filled by another World diverges from a fresh plan")
	}
	if !reflect.DeepEqual(cc2.Partitions(), wantCC2.Partitions()) {
		t.Error("CHAOS replay under a plan filled by another World diverges from a fresh plan")
	}
	if reflect.DeepEqual(tc2.Partitions(), tc1.Partitions()) {
		t.Error("the second World's trace replay equals the first World's; the seeds should differ")
	}
}

// TestDNSAnswersBuildPlanOverlayOnce answers every letter for one
// client under one installed plan at the DNS plane's pinned month: the
// first round builds the month's overlay resolver and the client's
// one path tree, and repeated rounds, racing each other, build
// neither again and give the same answers.
func TestDNSAnswersBuildPlanOverlayOnce(t *testing.T) {
	w := windowedTestWorld(t)
	plan := kernelTestPlan(t)
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
			a, err := w.DNSAnswerAt(l, dm, client.Country, client.ASN, client.City, plan)
			if err != nil && err != ErrNoInstances {
				t.Errorf("DNSAnswerAt %c: %v", l, err)
			}
			out = append(out, a)
		}
		return out
	}

	bfs := treeBFS()
	n := bfs.Value()
	want := answers()
	if got := bfs.Value() - n; got != 1 {
		t.Errorf("first answers built %d path trees, want 1 (the client's)", got)
	}
	r := w.topologyFor(dm, plan)
	n = bfs.Value()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if got := answers(); !reflect.DeepEqual(got, want) {
					t.Errorf("repeated answers %+v, want %+v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := bfs.Value() - n; got != 0 {
		t.Errorf("repeated answers built %d path trees, want 0", got)
	}
	if w.topologyFor(dm, plan) != r || planCells(plan) != 1 {
		t.Errorf("repeated answers rebuilt the overlay: %d months memoized", planCells(plan))
	}
}

package httpapi

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vzlens/internal/atlas"
	"vzlens/internal/months"
	"vzlens/internal/query"
	"vzlens/internal/resultstore"
	"vzlens/internal/scenario"
	"vzlens/internal/world"
)

// queryTestConfig keeps /api/query integration tests to a handful of
// partitions.
func queryTestConfig() world.Config {
	return world.Config{
		TraceStart: months.New(2018, time.January),
		TraceEnd:   months.New(2019, time.January),
		ChaosStart: months.New(2018, time.January),
		ChaosEnd:   months.New(2019, time.January),
		Step:       6,
	}
}

func TestQueryEndpoint(t *testing.T) {
	w := mustBuild(queryTestConfig())
	h := NewWithOptions(w, Options{FactsDir: t.TempDir()})

	// Before the lake builds: 503 with Retry-After, never a 500.
	rec := getFrom(t, h, "/api/query?metric=median_rtt&from=2018-01&to=2019-01")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cold lake status = %d, want 503; body %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("cold-lake 503 missing Retry-After")
	}
	// Readiness reports the lake axis alongside the campaign caches.
	var ready struct {
		Campaigns map[string]bool `json:"campaigns"`
	}
	if err := json.Unmarshal(getFrom(t, h, "/readyz").Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if v, ok := ready.Campaigns["facts"]; !ok || v {
		t.Errorf("readyz facts = %v, %v; want present and false", v, ok)
	}

	// Warm builds the lake; the same URL flips to 200.
	h.Warm()
	rec = getFrom(t, h, "/api/query?metric=median_rtt&from=2018-01&to=2019-01&country=VE")
	if rec.Code != http.StatusOK {
		t.Fatalf("warm status = %d; body %s", rec.Code, rec.Body.String())
	}
	var res query.Result
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Metric != "median_rtt" || res.Partitions == 0 || len(res.Groups) != 1 || res.Groups[0].Key != "VE" {
		t.Errorf("unexpected result: %+v", res)
	}
	if err := json.Unmarshal(getFrom(t, h, "/readyz").Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if !ready.Campaigns["facts"] {
		t.Error("readyz facts still false after Warm")
	}

	// Bad parameters: 400 with the reason in the body.
	rec = getFrom(t, h, "/api/query?metric=median_rtt&from=2018-01&to=2019-01&percentile=200")
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "percentile") {
		t.Errorf("bad params: status %d body %s", rec.Code, rec.Body.String())
	}
	rec = getFrom(t, h, "/api/query?metric=median_rtt&from=2018-01&to=2019-01&typo=1")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown key: status %d", rec.Code)
	}

	// The query surface is observable: plan counter and lake gauges.
	metrics := getFrom(t, h, "/metrics").Body.String()
	for _, want := range []string{"vz_query_plans_total", "vz_query_bad_params_total", "vz_facts_ready 1", "vz_query_partitions_total"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestLakeJoinedBaselineByteIdentical is the fact-join equivalence
// contract: a scenario diff whose baseline campaigns were reconstructed
// from the fact lake serializes byte-identically to one whose baseline
// was freshly simulated. The kernels' emission contract (probes
// ascending, samples contiguous, months concatenated in order) is what
// makes lake reconstruction exact, so experiments, scenario diffs, and
// sweeps can all join against the lake instead of re-simulating.
func TestLakeJoinedBaselineByteIdentical(t *testing.T) {
	cfg := queryTestConfig()
	spec := cannedSpec(t, "cantv-depeer")

	sim := NewWithOptions(mustBuild(cfg), Options{Scenarios: []*scenario.Spec{spec}})
	rec := getFrom(t, sim, "/api/scenarios/cantv-depeer/diff")
	if rec.Code != http.StatusOK {
		t.Fatalf("simulated diff: %d %s", rec.Code, rec.Body.String())
	}
	simulated := rec.Body.String()

	joined := NewWithOptions(mustBuild(cfg), Options{
		FactsDir:  t.TempDir(),
		Scenarios: []*scenario.Spec{spec},
	})
	joined.Warm() // builds the lake; campaign caches reconstruct from it
	if tc, ok := joined.lakeTrace(); !ok || tc == nil {
		t.Fatal("lake-backed trace reconstruction unavailable after Warm")
	}
	rec = getFrom(t, joined, "/api/scenarios/cantv-depeer/diff")
	if rec.Code != http.StatusOK {
		t.Fatalf("lake-joined diff: %d %s", rec.Code, rec.Body.String())
	}
	if rec.Body.String() != simulated {
		t.Fatalf("lake-joined diff diverges from simulated baseline:\n lake: %s\n sim:  %s",
			rec.Body.String(), simulated)
	}
}

// corruptLakeFrame XORs mask into the middle byte of frame i of a fact
// table's segment ("trace" or "chaos") in the lake at dir, locating the
// frame through the committed manifest, and returns the segment's path.
func corruptLakeFrame(t *testing.T, dir, table string, i int, mask byte) string {
	t.Helper()
	raw, err := resultstore.ReadEntry(filepath.Join(dir, "manifest.vzr"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Trace, Chaos []struct{ Offset, Length int64 }
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	frames := man.Trace
	if table == "chaos" {
		frames = man.Chaos
	}
	segs, err := filepath.Glob(filepath.Join(dir, table+"-*.vzfs"))
	if err != nil || len(segs) != 1 || i >= len(frames) {
		t.Fatalf("%s segment %v (err %v) with %d frames, want one segment with frame %d", table, segs, err, len(frames), i)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[frames[i].Offset+frames[i].Length/2] ^= mask
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	return segs[0]
}

// TestQueryQuarantineHeals corrupts a partition's frame on disk, reopens the
// lake cold, and proves the full heal cycle: the first query answers
// 503 (the partition quarantines), the 503 forces a background rebuild
// even though the lake's generation is still committed (Ready alone
// must not short-circuit it — that was a real bug: the 503 looped
// forever), and the same query flips to 200.
func TestQueryQuarantineHeals(t *testing.T) {
	w := mustBuild(queryTestConfig())
	dir := t.TempDir()
	h1 := NewWithOptions(w, Options{FactsDir: dir})
	h1.Warm()

	corruptLakeFrame(t, dir, "trace", 1, 0xFF) // month TraceMonths()[1]

	h2 := NewWithOptions(w, Options{FactsDir: dir})
	url := "/api/query?metric=median_rtt&from=2018-01&to=2019-01&country=VE"
	rec := getFrom(t, h2, url)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("corrupt partition: status %d, want 503; body %s", rec.Code, rec.Body.String())
	}
	if h2.Lake().Quarantines() == 0 {
		t.Error("corrupt partition was not quarantined")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		rec = getFrom(t, h2, url)
		if rec.Code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query never healed: last status %d body %s", rec.Code, rec.Body.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestQueryLakeReload proves a second handler over the same facts
// directory serves queries without rebuilding (the manifest reloads).
func TestQueryLakeReload(t *testing.T) {
	w := mustBuild(queryTestConfig())
	dir := t.TempDir()
	h1 := NewWithOptions(w, Options{FactsDir: dir})
	h1.Warm()
	if !h1.Lake().Ready() {
		t.Fatal("lake not ready after Warm")
	}

	h2 := NewWithOptions(w, Options{FactsDir: dir})
	if !h2.Lake().Ready() {
		t.Fatal("reloaded lake not ready")
	}
	rec := getFrom(t, h2, "/api/query?metric=catchment_share&from=2018-01&to=2019-01&group_by=letter")
	if rec.Code != http.StatusOK {
		t.Fatalf("reloaded query status = %d; body %s", rec.Code, rec.Body.String())
	}
	var res query.Result
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 13 {
		t.Errorf("letter groups = %d, want 13", len(res.Groups))
	}
}

// TestLakeHonorsCampaignHooks: with a fact lake configured, the
// campaigns the handler serves and persists are the ones its
// TraceCampaign hook returns, not a second simulation of the world.
// The hook drops the world's first trace month, inside fig12's 2016 H1
// window, so a lake built from the world would serve a different fig12.
func TestLakeHonorsCampaignHooks(t *testing.T) {
	w := mustBuild(world.Config{
		TraceStart: months.New(2016, time.January),
		TraceEnd:   months.New(2016, time.April),
		ChaosStart: months.New(2016, time.January),
		ChaosEnd:   months.New(2016, time.January),
		Step:       3,
	})
	full := w.TraceCampaign()
	hooked := atlas.NewTraceCampaignOf(slices.Clone(full.Partitions()[1:]))
	hook := func() (*atlas.TraceCampaign, error) { return hooked, nil }

	plain := NewWithOptions(w, Options{TraceCampaign: hook})
	want := getFrom(t, plain, "/api/experiments/fig12")
	if want.Code != http.StatusOK {
		t.Fatalf("fig12 without a lake: %d %s", want.Code, want.Body.String())
	}
	unhooked := getFrom(t, NewWithOptions(w, Options{}), "/api/experiments/fig12")
	if unhooked.Body.String() == want.Body.String() {
		t.Fatal("the hook's campaign renders the same fig12 as the world's; the test cannot tell them apart")
	}

	laked := NewWithOptions(w, Options{FactsDir: t.TempDir(), TraceCampaign: hook})
	laked.Warm()
	got := getFrom(t, laked, "/api/experiments/fig12")
	if got.Code != http.StatusOK || got.Body.String() != want.Body.String() {
		t.Errorf("fig12 with a lake: %d, byte-equal to the hook's = %v", got.Code, got.Body.String() == want.Body.String())
	}
	if got, want := laked.Lake().TraceMonths(), hooked.Months(); !slices.Equal(got, want) {
		t.Errorf("lake trace months %v, hook's campaign %v", got, want)
	}
}

// TestPersistSkipsCommittedGeneration: a fill that finishes after a
// generation was built from the same two campaigns (a request that
// raced Warm's ensureLake, say) does not write that generation again.
func TestPersistSkipsCommittedGeneration(t *testing.T) {
	h := NewWithOptions(mustBuild(queryTestConfig()), Options{FactsDir: t.TempDir()})
	h.Warm()
	if !h.Lake().Ready() {
		t.Fatal("Warm did not commit a lake generation")
	}
	manifest := filepath.Join(h.Lake().Dir(), "manifest.vzr")
	before, err := os.Stat(manifest)
	if err != nil {
		t.Fatal(err)
	}
	h.persistCampaigns()
	after, err := os.Stat(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Error("persistCampaigns rewrote the generation built from the same campaigns")
	}
}

// TestStoreKeepsLakePerConfiguration: one store directory keeps the
// campaigns of every world configuration that used it, so switching to
// another configuration and back re-simulates nothing.
func TestStoreKeepsLakePerConfiguration(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfgB := queryTestConfig()
	cfgB.Step = 3
	wA, wB := mustBuild(queryTestConfig()), mustBuild(cfgB)
	NewWithOptions(wA, Options{Store: store}).Warm()
	NewWithOptions(wB, Options{Store: store}).Warm()

	var calls atomic.Int64
	h := NewWithOptions(wA, Options{
		Store: store,
		TraceCampaign: func() (*atlas.TraceCampaign, error) {
			calls.Add(1)
			return wA.TraceCampaign(), nil
		},
		ChaosCampaign: func() (*atlas.ChaosCampaign, error) {
			calls.Add(1)
			return wA.ChaosCampaign(), nil
		},
	})
	h.Warm()
	if n := calls.Load(); n != 0 {
		t.Errorf("back on the first configuration, %d campaigns re-simulated, want 0", n)
	}
	if !h.Lake().Ready() {
		t.Error("the first configuration's lake is not ready")
	}
}

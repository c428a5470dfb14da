package integration

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vzlens/internal/atlas"
	"vzlens/internal/httpapi"
	"vzlens/internal/resultstore"
	"vzlens/internal/world"
)

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

// TestSoakOverloadFaultRestart is the chaos/soak harness for the
// overload-protection layer: it hammers the real HTTP server with 64
// concurrent clients while the chaos campaign fails its first
// simulation, then restarts the server against the same result store,
// then corrupts a campaign partition in the store's fact lake. It
// asserts the load-shedding, request coalescing, crash-safe
// persistence, and quarantine contracts all at once, the way a
// production incident would exercise them together.
func TestSoakOverloadFaultRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation soak")
	}
	// One campaign month keeps each simulation fast while still
	// exercising the full pipeline.
	m := mm(2023, time.July)
	w := mustBuild(world.Config{
		TraceStart: m, TraceEnd: m,
		ChaosStart: m, ChaosEnd: m,
	})
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	var traceCalls, chaosCalls atomic.Int64
	newOptions := func(faulty bool, traceCalls, chaosCalls *atomic.Int64) httpapi.Options {
		return httpapi.Options{
			MaxInFlight:  4,
			MaxQueue:     8,
			QueueTimeout: 2 * time.Second,
			Store:        store,
			TraceCampaign: func() (*atlas.TraceCampaign, error) {
				traceCalls.Add(1)
				return w.TraceCampaign(), nil
			},
			ChaosCampaign: func() (*atlas.ChaosCampaign, error) {
				n := chaosCalls.Add(1)
				if faulty && n == 1 {
					return nil, errors.New("injected collector outage")
				}
				return w.ChaosCampaign(), nil
			},
		}
	}
	h1 := httpapi.NewWithOptions(w, newOptions(true, &traceCalls, &chaosCalls))
	srv1 := httptest.NewServer(h1)
	client := &http.Client{Timeout: 30 * time.Second}
	get := func(base, path string) (int, http.Header, string) {
		resp, err := client.Get(base + path)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
			return 0, nil, ""
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header, string(body)
	}

	baseline := runtime.NumGoroutine()

	// ---- Phase 1: overload wave with an injected campaign fault ----
	paths := []string{
		"/api/experiments/fig6",  // chaos-backed; first simulation fails
		"/api/experiments/fig12", // trace-backed
		"/api/experiments/fig4",
		"/api/experiments/fig8.csv",
		"/api/experiments/nope", // 404 path stays correct under load
		"/api/countries/VE",
	}
	var (
		wg            sync.WaitGroup
		shed          atomic.Int64
		missingRetry  atomic.Int64
		badStatus     atomic.Int64
		probeFailures atomic.Int64
	)
	stopProbes := make(chan struct{})
	// A liveness prober runs through the whole wave: health and
	// readiness must answer 200 no matter how saturated the gate is.
	// It has its own WaitGroup — it outlives the client wave.
	var probeWG sync.WaitGroup
	probeWG.Add(1)
	go func() {
		defer probeWG.Done()
		for {
			select {
			case <-stopProbes:
				return
			default:
			}
			for _, p := range []string{"/healthz", "/readyz"} {
				if code, _, _ := get(srv1.URL, p); code != http.StatusOK {
					probeFailures.Add(1)
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 6; j++ {
				code, hdr, _ := get(srv1.URL, paths[(i+j)%len(paths)])
				switch code {
				case http.StatusOK, http.StatusNotFound:
				case http.StatusServiceUnavailable, http.StatusTooManyRequests:
					shed.Add(1)
					if hdr.Get("Retry-After") == "" {
						missingRetry.Add(1)
					}
				default:
					badStatus.Add(1)
					t.Errorf("unexpected status %d for %s", code, paths[(i+j)%len(paths)])
				}
			}
		}(i)
	}
	// Let the wave finish, then stop the prober.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(3 * time.Minute):
		t.Fatal("soak wave did not complete")
	}
	close(stopProbes)
	probeWG.Wait()

	if missingRetry.Load() != 0 {
		t.Errorf("%d shed responses missing Retry-After", missingRetry.Load())
	}
	if probeFailures.Load() != 0 {
		t.Errorf("%d health/readiness probes failed under load", probeFailures.Load())
	}
	if badStatus.Load() != 0 {
		t.Errorf("%d responses outside the allowed status set (500 would mean a panic)", badStatus.Load())
	}
	t.Logf("wave: %d shed with Retry-After, trace sims %d, chaos sims %d",
		shed.Load(), traceCalls.Load(), chaosCalls.Load())

	// Coalescing: one trace simulation total; the chaos fault costs
	// exactly one extra attempt (the failure is never cached, the
	// retry succeeds, every other request coalesces or hits cache).
	if got := traceCalls.Load(); got != 1 {
		t.Errorf("trace simulations = %d, want exactly 1 per coalescing key", got)
	}
	if got := chaosCalls.Load(); got != 2 {
		t.Errorf("chaos simulations = %d, want 2 (one injected failure + one retry)", got)
	}

	// The retried campaign now serves. Capture reference bodies for the
	// bit-identical restart check.
	refs := map[string]string{}
	for _, p := range []string{"/api/experiments/fig6", "/api/experiments/fig12", "/api/experiments/fig4"} {
		code, _, body := get(srv1.URL, p)
		if code != http.StatusOK {
			t.Fatalf("%s after fault recovery = %d", p, code)
		}
		refs[p] = body
	}

	// Goroutines are bounded: the wave's workers, queue waiters, and
	// campaign pools are all gone once the load stops.
	client.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline+16 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+16 {
		t.Errorf("goroutines after wave = %d, baseline %d: unbounded growth", n, baseline)
	}

	// ---- Phase 2: restart against the same store ----
	srv1.Close()
	var traceCalls2, chaosCalls2 atomic.Int64
	h2 := httpapi.NewWithOptions(w, newOptions(false, &traceCalls2, &chaosCalls2))
	warmStart := time.Now()
	h2.Warm()
	warmTook := time.Since(warmStart)
	if traceCalls2.Load() != 0 || chaosCalls2.Load() != 0 {
		t.Errorf("restart re-simulated (trace %d, chaos %d), want warm from store",
			traceCalls2.Load(), chaosCalls2.Load())
	}
	t.Logf("restart warm from store took %v", warmTook)
	srv2 := httptest.NewServer(h2)
	for p, want := range refs {
		code, _, body := get(srv2.URL, p)
		if code != http.StatusOK {
			t.Fatalf("%s after restart = %d", p, code)
		}
		if body != want {
			t.Errorf("%s not bit-identical across restart", p)
		}
	}
	srv2.Close()

	// ---- Phase 3: a corrupted campaign partition is quarantined, not served ----
	// The store holds the campaigns in its fact lake, one segment per
	// fact table with a frame per campaign month.
	lakeDir := h2.Lake().Dir()
	if filepath.Dir(filepath.Dir(lakeDir)) != store.Dir() {
		t.Fatalf("fact lake at %s, want under the store %s", lakeDir, store.Dir())
	}
	corruptLakeFrame(t, lakeDir, "chaos", 0, 0x01) // a single flipped bit mid-payload

	var traceCalls3, chaosCalls3 atomic.Int64
	h3 := httpapi.NewWithOptions(w, newOptions(false, &traceCalls3, &chaosCalls3))
	h3.Warm()
	if got := chaosCalls3.Load(); got != 1 {
		t.Errorf("chaos simulations after corruption = %d, want 1 (recompute, not serve corrupt)", got)
	}
	if got := traceCalls3.Load(); got != 0 {
		t.Errorf("trace re-simulated %d times, its entry was intact", got)
	}
	q, err := os.ReadDir(filepath.Join(lakeDir, "quarantine"))
	if err != nil || len(q) == 0 {
		t.Errorf("corrupt partition not quarantined: %v, %v", q, err)
	}
	srv3 := httptest.NewServer(h3)
	defer srv3.Close()
	code, _, body := get(srv3.URL, "/api/experiments/fig6")
	if code != http.StatusOK || body != refs["/api/experiments/fig6"] {
		t.Errorf("fig6 after corruption recovery: code %d, identical=%v", code, body == refs["/api/experiments/fig6"])
	}
}

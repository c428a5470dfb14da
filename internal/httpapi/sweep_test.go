package httpapi

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"vzlens/internal/months"
	"vzlens/internal/resultstore"
	"vzlens/internal/sweep"
	"vzlens/internal/world"
)

// sweepTestConfig collapses every campaign to one month so a sweep's
// specs each simulate in milliseconds.
func sweepTestConfig() world.Config {
	m := months.New(2023, time.July)
	return world.Config{
		TraceStart: m, TraceEnd: m, ChaosStart: m, ChaosEnd: m, Step: 1,
	}
}

func newSweepHandler(t *testing.T, dir string) *Handler {
	t.Helper()
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := NewWithOptions(mustBuild(sweepTestConfig()), Options{Store: store})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		h.DrainSweeps(ctx) //nolint:errcheck // best-effort test cleanup
	})
	return h
}

// waitSweepDone polls GET /api/sweeps/{id} until the sweep reports
// state "done", returning the final status document.
func waitSweepDone(t *testing.T, h *Handler, id string) *sweep.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		rec := getFrom(t, h, "/api/sweeps/"+id)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET sweep %s: %d %s", id, rec.Code, rec.Body.String())
		}
		var st sweep.Status
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.State == sweep.StateDone {
			return &st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("sweep %s never reached done", id)
	return nil
}

func TestSweepLifecycle(t *testing.T) {
	h := newSweepHandler(t, t.TempDir())

	const body = `{"id":"s1","family":"root_each","letters":["L"],"iatas":["CCS","MAR"]}`
	rec := post(t, h, "/api/sweeps", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST sweep: %d %s", rec.Code, rec.Body.String())
	}
	st := waitSweepDone(t, h, "s1")
	if st.Total != 2 || st.Completed != 2 || st.Failed != 0 {
		t.Errorf("status = %+v", st)
	}
	if len(st.Leaderboard) != 2 || st.Leaderboard[0].Rank != 1 {
		t.Errorf("leaderboard = %+v", st.Leaderboard)
	}

	// Re-POSTing the identical request is idempotent: 200, same key.
	rec = post(t, h, "/api/sweeps", body)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), st.Key) {
		t.Errorf("idempotent re-POST: %d %s", rec.Code, rec.Body.String())
	}
	// Same id, different parameters: conflict.
	rec = post(t, h, "/api/sweeps", `{"id":"s1","family":"root_each","letters":["F"],"iatas":["CCS"]}`)
	if rec.Code != http.StatusConflict {
		t.Errorf("conflicting re-POST: %d %s", rec.Code, rec.Body.String())
	}

	rec = getFrom(t, h, "/api/sweeps")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"s1"`) {
		t.Errorf("list: %d %s", rec.Code, rec.Body.String())
	}
	rec = getFrom(t, h, "/api/sweeps/nope")
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown sweep: %d", rec.Code)
	}

	// The sweep metrics are visible on the handler's registry.
	rec = getFrom(t, h, "/metrics.json")
	for _, name := range []string{"vz_sweep_started_total", "vz_sweep_specs_completed_total"} {
		if !strings.Contains(rec.Body.String(), name) {
			t.Errorf("metrics.json missing %s", name)
		}
	}
}

func TestSweepBadRequestAndNoStore(t *testing.T) {
	h := newSweepHandler(t, t.TempDir())
	if rec := post(t, h, "/api/sweeps", `{"id":"s1"`); rec.Code != http.StatusBadRequest {
		t.Errorf("truncated JSON: %d", rec.Code)
	}
	if rec := post(t, h, "/api/sweeps", `{"id":"s1","family":"nope"}`); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown family: %d", rec.Code)
	}

	// Without a result store there is no journal, so sweeps are off.
	bare := NewWithOptions(mustBuild(sweepTestConfig()), Options{})
	if rec := post(t, bare, "/api/sweeps", `{"id":"s1","family":"root_each"}`); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("store-less POST: %d %s", rec.Code, rec.Body.String())
	}
	if rec := getFrom(t, bare, "/api/sweeps"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("store-less list: %d", rec.Code)
	}
}

// TestSweepRestartResume finishes a sweep, then builds a fresh handler
// over the same store directory: the new process serves the finished
// sweep from its journal, with the leaderboard intact and the restored
// results counted on the vz_sweep_specs_restored_total metric.
func TestSweepRestartResume(t *testing.T) {
	dir := t.TempDir()
	h1 := newSweepHandler(t, dir)
	rec := post(t, h1, "/api/sweeps", `{"id":"r1","family":"root_each","letters":["L","F"],"iatas":["CCS"]}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST sweep: %d %s", rec.Code, rec.Body.String())
	}
	before := waitSweepDone(t, h1, "r1")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h1.DrainSweeps(ctx); err != nil {
		t.Fatal(err)
	}

	h2 := newSweepHandler(t, dir)
	after := waitSweepDone(t, h2, "r1")
	b1, _ := json.Marshal(before.Leaderboard)
	b2, _ := json.Marshal(after.Leaderboard)
	if string(b1) != string(b2) {
		t.Errorf("leaderboard changed across restart:\n%s\n%s", b1, b2)
	}
	if after.Key != before.Key {
		t.Errorf("key changed across restart: %q vs %q", after.Key, before.Key)
	}
	rec = getFrom(t, h2, "/metrics.json")
	if !strings.Contains(rec.Body.String(), "vz_sweep_specs_restored_total") {
		t.Errorf("restored metric missing: %s", rec.Body.String())
	}
}

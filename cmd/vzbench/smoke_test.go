package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestVzbenchSmoke drives every workload for about a second against one
// real, traced vzserve, checks every response against the oracles, and
// derives the per-layer numbers from the scrapes and spans, so the
// harness cannot rot unnoticed. The full lifecycle (repeated set-ups,
// cold restarts, the untraced pass) is what a benchmark run adds.
func TestVzbenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a real vzserve")
	}
	b, err := setup("../..", t.TempDir(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b.warmup = 300 * time.Millisecond
	ds, err := newDirs(b.work)
	if err != nil {
		t.Fatal(err)
	}
	spansPath := filepath.Join(b.work, "spans.jsonl")
	s, setupTime, err := b.start(b.work, ds, false, "-trace", spansPath)
	if err != nil {
		t.Fatal(err)
	}
	defer s.kill()
	if setupTime <= 0 {
		t.Errorf("setup time %v", setupTime)
	}
	o, err := newHTTPOracle(b.w, ds.facts)
	if err != nil {
		t.Fatal(err)
	}
	var windows []*window
	for _, wl := range workloads {
		in, err := genInputs(b.w, wl, 7, b.warmup, b.length)
		if err != nil {
			t.Fatal(err)
		}
		var want [][]byte
		if len(in.dns) > 0 {
			want = dnsWant(b.w, in.dns)
		}
		win, err := b.measure(s, wl, in, want)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		r := &result{Workload: wl, Metrics: map[string]float64{}}
		verify(r, win, o.body)
		if r.Attempted == 0 || r.Failed != 0 {
			t.Errorf("%s: attempted %d failed %d: %v", wl, r.Attempted, r.Failed, r.Problems)
		}
		if win.ops() == 0 || win.p50ms() <= 0 || win.heapMB <= 0 {
			t.Errorf("%s: %d ops, p50 %v ms, live heap %v MB", wl, win.ops(), win.p50ms(), win.heapMB)
		}
		windows = append(windows, win)
	}
	if err := s.stop(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := readSpans(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for i, wl := range workloads {
		r := &result{Workload: wl, Traced: true, Metrics: map[string]float64{}}
		layerMetrics(r.Metrics, windows[i], spansIn(spans, windows[i]))
		check := map[string]string{
			"query_mix":   "query.exec_ms",
			"dns_mix":     "dns.span_us",
			"whatif":      "scenario.self_ms",
			"mixed_sweep": "proc.cpu_cores",
		}[wl]
		if r.Metrics[check] <= 0 {
			t.Errorf("%s: per-layer %s = %v, want > 0", wl, check, r.Metrics[check])
		}
		var out bytes.Buffer
		printContract(&out, r)
		var doc struct {
			Correct bool                       `json:"correct"`
			Metrics map[string]json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal(out.Bytes(), &doc); err != nil || !doc.Correct || len(doc.Metrics) != len(perLayer) {
			t.Errorf("%s: contract line %q (err %v)", wl, strings.TrimSpace(out.String()), err)
		}
	}
}

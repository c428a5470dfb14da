package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_total", "help")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("Value() = %d, want 42", got)
	}
	if again := reg.Counter("test_total", "help"); again != c {
		t.Error("re-registering the same counter returned a different instance")
	}
}

func TestLabeledChildrenAreDistinct(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("reqs_total", "h", L("class", "a"))
	b := reg.Counter("reqs_total", "h", L("class", "b"))
	if a == b {
		t.Fatal("different label values returned the same child")
	}
	a.Inc()
	if b.Value() != 0 {
		t.Error("incrementing one child leaked into its sibling")
	}
	if again := reg.Counter("reqs_total", "h", L("class", "a")); again != a {
		t.Error("same label set returned a different child")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("mixed", "h")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("mixed", "h")
}

func TestInvalidNamePanics(t *testing.T) {
	for _, bad := range []string{"", "9starts_with_digit", "has-dash", "has space", "ünïcode"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			NewRegistry().Counter(bad, "h")
		}()
	}
	// The valid edge cases must not panic.
	reg := NewRegistry()
	reg.Counter("_leading_underscore", "h")
	reg.Counter("ns:subsystem:name", "h")
	reg.Counter("x9", "h")
}

func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x_total", "h")
	g := reg.Gauge("x", "h")
	h := reg.Histogram("x_seconds", "h", LatencyBuckets)
	reg.GaugeFunc("x_fn", "h", func() float64 { return 1 })
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(2)
	h.Observe(0.5)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil metrics must read as zero")
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if buf.Len() != 0 {
		t.Error("nil registry rendered output")
	}
	if reg.snapshot() != nil {
		t.Error("nil registry introspection must return nil")
	}
}

func TestGauge(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("depth", "h")
	g.Set(4.5)
	g.Add(-1.5)
	if got := g.Value(); got != 3 {
		t.Errorf("Value() = %v, want 3", got)
	}
}

// TestHistogramBoundaries pins the le semantics: an observation equal
// to a bound lands in that bound's bucket (Prometheus buckets are
// less-than-or-equal), one above it spills to the next, and anything
// beyond the last bound lands in +Inf only.
func TestHistogramBoundaries(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", "h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.0, 1.0001, 2.0, 4.0, 4.0001, 100} {
		h.Observe(v)
	}
	sum, count, cum := h.snapshot()
	if count != 7 {
		t.Errorf("count = %d, want 7", count)
	}
	// le=1: {0.5, 1.0}; le=2: +{1.0001, 2.0}; le=4: +{4.0}; +Inf: +{4.0001, 100}
	want := []uint64{2, 4, 5, 7}
	for i, w := range want {
		if cum[i] != w {
			t.Errorf("cumulative[%d] = %d, want %d", i, cum[i], w)
		}
	}
	wantSum := 0.5 + 1.0 + 1.0001 + 2.0 + 4.0 + 4.0001 + 100
	if diff := sum - wantSum; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("sum = %v, want %v", sum, wantSum)
	}
}

func TestHistogramRejectsUnsortedBuckets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-increasing bucket bounds did not panic")
		}
	}()
	NewRegistry().Histogram("bad", "h", []float64{1, 1})
}

// TestConcurrentIncrements hammers every metric type from many
// goroutines; run under -race this doubles as the data-race proof, and
// the totals prove no increment was lost.
func TestConcurrentIncrements(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "h")
	g := reg.Gauge("g", "h")
	h := reg.Histogram("h_seconds", "h", []float64{0.5})
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.25)
			}
		}()
	}
	// Render concurrently with the increments to prove the cold path
	// does not race the hot path.
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	wg.Wait()
	const total = goroutines * per
	if c.Value() != total {
		t.Errorf("counter = %d, want %d", c.Value(), total)
	}
	if g.Value() != total {
		t.Errorf("gauge = %v, want %d", g.Value(), total)
	}
	if h.Count() != total {
		t.Errorf("histogram count = %d, want %d", h.Count(), total)
	}
	if want := float64(total) * 0.25; h.Sum() != want {
		t.Errorf("histogram sum = %v, want %v", h.Sum(), want)
	}
}

func TestPrometheusRendering(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("vz_reqs_total", "Requests.", L("class", "api")).Add(3)
	reg.Gauge("vz_depth", "Queue depth.").Set(2.5)
	reg.GaugeFunc("vz_fn", "Computed.", func() float64 { return 7 })
	h := reg.Histogram("vz_lat_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 exposition format", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# HELP vz_reqs_total Requests.",
		"# TYPE vz_reqs_total counter",
		`vz_reqs_total{class="api"} 3`,
		"# TYPE vz_depth gauge",
		"vz_depth 2.5",
		"vz_fn 7",
		"# TYPE vz_lat_seconds histogram",
		`vz_lat_seconds_bucket{le="0.1"} 1`,
		`vz_lat_seconds_bucket{le="1"} 2`,
		`vz_lat_seconds_bucket{le="+Inf"} 3`,
		"vz_lat_seconds_sum 5.55",
		"vz_lat_seconds_count 3",
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("rendering is missing %q\nfull body:\n%s", want, body)
		}
	}
}

// TestPrometheusEscaping pins the exposition-format escape rules: help
// text escapes backslash and newline; label values additionally escape
// double quotes.
func TestPrometheusEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("esc_total", "line one\nback\\slash", L("path", "a\"b\\c\nd")).Inc()
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	body := buf.String()
	if !strings.Contains(body, `# HELP esc_total line one\nback\\slash`) {
		t.Errorf("help not escaped:\n%s", body)
	}
	if !strings.Contains(body, `esc_total{path="a\"b\\c\nd"} 1`) {
		t.Errorf("label value not escaped:\n%s", body)
	}
	// Every rendered line must stay a single physical line.
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
	}
}

func TestSnapshotAndJSONHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "h", L("k", "v")).Add(5)
	reg.Histogram("h_seconds", "h", []float64{1}).Observe(0.5)
	rec := httptest.NewRecorder()
	reg.JSONHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics.json", nil))
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("JSON handler produced invalid JSON: %v\n%s", err, rec.Body.String())
	}
	if got, ok := doc[`c_total{k="v"}`].(float64); !ok || got != 5 {
		t.Errorf("counter in JSON = %v, want 5", doc[`c_total{k="v"}`])
	}
	hist, ok := doc["h_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("histogram missing from JSON: %v", doc)
	}
	if hist["count"].(float64) != 1 || hist["sum"].(float64) != 0.5 {
		t.Errorf("histogram doc = %v", hist)
	}
}

// spanLine is the emitted span schema (DESIGN.md §11).
type spanLine struct {
	Msg    string `json:"msg"`
	Trace  string `json:"trace"`
	Span   string `json:"span"`
	Parent string `json:"parent"`
	Name   string `json:"name"`
	DurUS  int64  `json:"dur_us"`
	Month  string `json:"month"`
}

func decodeSpans(t *testing.T, buf *bytes.Buffer) []spanLine {
	t.Helper()
	var out []spanLine
	dec := json.NewDecoder(buf)
	for dec.More() {
		var s spanLine
		if err := dec.Decode(&s); err != nil {
			t.Fatalf("span output is not JSON lines: %v", err)
		}
		out = append(out, s)
	}
	return out
}

// TestSpanNesting proves the trace facility's core contract: children
// inherit the root's trace ID, record their parent span ID, and each
// span emits exactly one line with a plausible duration.
func TestSpanNesting(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	ctx := WithTracer(context.Background(), tr)

	ctx, root := StartSpan(ctx, "http.request")
	if root == nil {
		t.Fatal("StartSpan returned nil with a tracer in context")
	}
	cctx, child := StartSpan(ctx, "campaign.trace")
	_, grandchild := StartSpan(cctx, "campaign.month")
	grandchild.SetAttr("month", "2023-12")
	grandchild.End()
	child.End()
	root.End()

	spans := decodeSpans(t, &buf)
	if len(spans) != 3 {
		t.Fatalf("got %d span lines, want 3", len(spans))
	}
	byName := map[string]spanLine{}
	for _, s := range spans {
		if s.Msg != "span" {
			t.Errorf("msg = %q, want span", s.Msg)
		}
		byName[s.Name] = s
	}
	r, c, g := byName["http.request"], byName["campaign.trace"], byName["campaign.month"]
	if r.Trace == "" || c.Trace != r.Trace || g.Trace != r.Trace {
		t.Errorf("trace IDs do not propagate: root=%q child=%q grandchild=%q", r.Trace, c.Trace, g.Trace)
	}
	if r.Parent != "" {
		t.Errorf("root has parent %q", r.Parent)
	}
	if c.Parent != r.Span {
		t.Errorf("child parent = %q, want root span %q", c.Parent, r.Span)
	}
	if g.Parent != c.Span {
		t.Errorf("grandchild parent = %q, want child span %q", g.Parent, c.Span)
	}
	if g.Month != "2023-12" {
		t.Errorf("attr month = %q, want 2023-12", g.Month)
	}
	if g.DurUS < 0 {
		t.Errorf("dur_us = %d, want >= 0", g.DurUS)
	}
	if s, _ := cctx.Value(ctxKeySpan).(*Span); s.TraceID().String() != r.Trace {
		t.Errorf("context span's trace ID = %v, want %s", s.TraceID(), r.Trace)
	}
}

// TestSpanWithoutTracer proves the off switch: no tracer in context
// means nil spans, and every span method is a safe no-op.
func TestSpanWithoutTracer(t *testing.T) {
	ctx, span := StartSpan(context.Background(), "anything")
	if span != nil {
		t.Fatal("StartSpan minted a span without a tracer")
	}
	span.SetAttr("k", "v")
	span.End()
	if span.TraceID() != 0 {
		t.Error("nil span trace ID must be zero")
	}
	if ctx.Value(ctxKeySpan) != nil {
		t.Error("untraced context carries a span")
	}
}

func TestTracerIDsAreUnique(t *testing.T) {
	tr := NewTracer(&bytes.Buffer{})
	seen := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		id := tr.newID()
		if seen[id] {
			t.Fatalf("duplicate ID after %d mints", i)
		}
		seen[id] = true
	}
}

func TestDebugMux(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dbg_total", "h").Inc()
	mux := DebugMux(reg)
	for _, path := range []string{"/metrics", "/metrics.json", "/debug/vars", "/debug/pprof/"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Errorf("GET %s = %d, want 200", path, rec.Code)
		}
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	reg := NewRegistry()
	reg.PublishExpvar("obs_test_reg")
	// A second publish of the same name must not panic (expvar itself
	// would); and a second registry reusing the name is silently ignored.
	reg.PublishExpvar("obs_test_reg")
	NewRegistry().PublishExpvar("obs_test_reg")
}

// BenchmarkCounterInc is the tentpole's hot-path contract: one counter
// increment allocates nothing.
func BenchmarkCounterInc(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("bench_total", "h", L("class", "bench"))
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
	if allocs := testing.AllocsPerRun(1000, func() { c.Inc() }); allocs != 0 {
		b.Fatalf("Counter.Inc allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkHistogramObserve proves observation is allocation-free too.
func BenchmarkHistogramObserve(b *testing.B) {
	reg := NewRegistry()
	h := reg.Histogram("bench_seconds", "h", LatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.005)
	}
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(0.005) }); allocs != 0 {
		b.Fatalf("Histogram.Observe allocates %.1f per op, want 0", allocs)
	}
}

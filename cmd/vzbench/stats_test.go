package main

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		p        float64
		min      int
		atMinVal float64 // nearest rank of 1..min
	}{
		{50, 20, 10},
		{90, 100, 90},
		{99, 1000, 990},
	} {
		if _, err := percentile(seq(c.min-1), c.p); err == nil {
			t.Errorf("p%g of %d samples: want a refusal (fewer than 10 beyond it)", c.p, c.min-1)
		}
		got, err := percentile(seq(c.min), c.p)
		if err != nil {
			t.Errorf("p%g of %d samples: %v", c.p, c.min, err)
			continue
		}
		if got != c.atMinVal {
			t.Errorf("p%g of 1..%d = %v, want %v", c.p, c.min, got, c.atMinVal)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 1.2, 9.9}, 1.2, 9.9},
		{[]float64{5, 1}, 0, 6},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, 20, 60},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestPromDelta(t *testing.T) {
	before := `# HELP vz_plans_total Plans.
# TYPE vz_plans_total counter
vz_plans_total 10
vz_http_requests_total{class="query"} 5
vz_http_requests_total{class="experiment"} 1
vz_lat_seconds_bucket{le="0.001"} 2
vz_lat_seconds_bucket{le="+Inf"} 4
vz_lat_seconds_sum 0.5
vz_lat_seconds_count 4
vz_span_seconds_sum{campaign="trace"} 1
vz_span_seconds_count{campaign="trace"} 2
`
	after := `vz_plans_total 25
vz_http_requests_total{class="query"} 12
vz_http_requests_total{class="experiment"} 1
vz_lat_seconds_bucket{le="0.001"} 3
vz_lat_seconds_bucket{le="+Inf"} 8
vz_lat_seconds_sum 1.7
vz_lat_seconds_count 8
vz_span_seconds_sum{campaign="trace"} 4 1700000000000
vz_span_seconds_count{campaign="trace"} 5
vz_new_total{a="x",b="y"} 3
`
	b, err := parseProm(strings.NewReader(before))
	if err != nil {
		t.Fatal(err)
	}
	a, err := parseProm(strings.NewReader(after))
	if err != nil {
		t.Fatal(err)
	}
	d := delta(b, a)
	for key, want := range map[string]float64{
		series("vz_plans_total"):                                15,
		series("vz_http_requests_total", "class", "query"):      7,
		series("vz_http_requests_total", "class", "experiment"): 0,
		series("vz_lat_seconds_bucket", "le", "+Inf"):           4,
		series("vz_new_total", "a", "x", "b", "y"):              3,
	} {
		if d[key] != want {
			t.Errorf("Δ %s = %v, want %v", key, d[key], want)
		}
	}
	if got := d.histMean("vz_lat_seconds"); got < 0.2999 || got > 0.3001 {
		t.Errorf("Δ histogram mean = %v, want 1.2/4 = 0.3", got)
	}
	if got := d.histMean("vz_span_seconds", "campaign", "trace"); got != 1 {
		t.Errorf("Δ labelled histogram mean = %v, want 3/3 = 1", got)
	}
	if got := d.histMean("vz_absent_seconds"); got != 0 {
		t.Errorf("mean of an absent histogram = %v, want 0", got)
	}
	if _, err := parseProm(strings.NewReader("vz_broken{a=\"b\" 1\n")); err == nil {
		t.Error("unbalanced label set parsed without error")
	}
}

func TestSelfTimesThreeLevels(t *testing.T) {
	// root [0,100ms) has children a [10,40) and b [30,60), overlapping;
	// a has a child c [15,25). Times are span end stamps with dur_us,
	// exactly as obs.Tracer writes them.
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	line := func(name, id, parent string, startMs, endMs int) string {
		end := t0.Add(time.Duration(endMs) * time.Millisecond).Format(time.RFC3339Nano)
		p := ""
		if parent != "" {
			p = `,"parent":"` + parent + `"`
		}
		return `{"time":"` + end + `","level":"INFO","msg":"span","trace":"t","span":"` + id +
			`","name":"` + name + `","dur_us":` + strconv.Itoa((endMs-startMs)*1000) + p + "}\n"
	}
	trace := line("c", "3", "1", 15, 25) + line("a", "1", "0", 10, 40) +
		line("b", "2", "0", 30, 60) + line("root", "0", "", 0, 100)
	spans, err := readSpans(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	self := selfTimes(spans)
	for id, want := range map[string]time.Duration{
		"0": 50 * time.Millisecond, // 100 − |[10,60)|
		"1": 20 * time.Millisecond, // 30 − |[15,25)|
		"2": 30 * time.Millisecond,
		"3": 10 * time.Millisecond,
	} {
		if self[id] != want {
			t.Errorf("self time of span %s = %v, want %v", id, self[id], want)
		}
	}
}

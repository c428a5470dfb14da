// Package obs is the reproduction's observability layer: an
// allocation-conscious metrics registry (atomic counters, gauges, and
// fixed-bucket histograms rendered in Prometheus text format and as
// expvar-style JSON), a lightweight span/trace facility that emits
// structured slog JSON lines with per-request trace IDs, and a debug
// mux that keeps /debug/pprof off the public listener.
//
// Design rules, in order:
//
//  1. The increment path allocates nothing and takes no locks: every
//     metric is a fixed set of atomics, and labeled children are
//     materialized at registration time, never on the hot path.
//  2. Every metric method is nil-receiver safe, so instrumented
//     packages pay a nil check (and nothing else) until someone wires
//     a Registry in.
//  3. Rendering is cold-path: WritePrometheus walks the registry under
//     its registration lock and loads each atomic once.
//
// See DESIGN.md §11 for metric naming and the trace schema.
package obs

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sync"
)

// Label is one Prometheus-style key="value" pair. Labels are fixed at
// registration: a labeled family fans out into pre-built children, so
// incrementing a labeled counter is exactly as cheap as a bare one.
type Label struct{ Key, Value string }

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// child is one labeled instance inside a family.
type child struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// family groups all children registered under one metric name.
type family struct {
	name string
	help string
	kind metricKind
	kids []*child
}

// Registry holds named metrics and renders them. Registration takes a
// lock; reading and incrementing registered metrics never does.
// Registering the same name and label set twice returns the same
// metric, so independent layers may instrument idempotently.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// lookup finds or creates the family and child for (name, labels),
// enforcing kind consistency. A nil registry returns nil, so callers
// can instrument unconditionally.
func (r *Registry) lookup(name, help string, kind metricKind, labels []Label) *child {
	if r == nil {
		return nil
	}
	mustValidName(name)
	for _, l := range labels {
		mustValidName(l.Key)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: %s registered as %s, re-registered as %s", name, f.kind, kind))
	}
	for _, c := range f.kids {
		if sameLabels(c.labels, labels) {
			return c
		}
	}
	c := &child{labels: append([]Label(nil), labels...)}
	f.kids = append(f.kids, c)
	return c
}

func sameLabels(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mustValidName panics on a name Prometheus would reject; metric names
// are compile-time constants, so this is a programmer error, not input.
func mustValidName(s string) {
	if s == "" {
		panic("obs: empty metric or label name")
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				panic("obs: metric name starts with a digit: " + s)
			}
		default:
			panic("obs: invalid metric or label name: " + s)
		}
	}
}

// Counter registers (or finds) a monotonically increasing counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := r.lookup(name, help, kindCounter, labels)
	if c == nil {
		return nil
	}
	if c.counter == nil {
		c.counter = &Counter{}
	}
	return c.counter
}

// Gauge registers (or finds) a settable gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	c := r.lookup(name, help, kindGauge, labels)
	if c == nil {
		return nil
	}
	if c.gauge == nil {
		c.gauge = &Gauge{}
	}
	return c.gauge
}

// GaugeFunc registers a gauge whose value is computed at render time —
// the natural fit for snapshot-style stats (queue depth, cache sizes)
// that another component already tracks.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	c := r.lookup(name, help, kindGauge, labels)
	if c == nil {
		return
	}
	c.fn = fn
}

// Histogram registers (or finds) a histogram with the given fixed
// bucket upper bounds (strictly increasing; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: %s: bucket bounds not strictly increasing at %d", name, i))
		}
	}
	c := r.lookup(name, help, kindHistogram, labels)
	if c == nil {
		return nil
	}
	if c.hist == nil {
		c.hist = newHistogram(buckets)
	}
	return c.hist
}

// Handler serves the registry in Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// JSONHandler serves the registry as one expvar-style JSON document.
func (r *Registry) JSONHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		io.WriteString(w, r.ExpvarVar().String())
	})
}

// ExpvarVar adapts the registry to the expvar interface; publish it
// with expvar.Publish to surface metrics on /debug/vars.
func (r *Registry) ExpvarVar() expvar.Var {
	return expvar.Func(func() any { return r.snapshot() })
}

// PublishExpvar publishes the registry under name on the process-wide
// expvar page, once; republishing the same name is a no-op (expvar
// itself would panic).
func (r *Registry) PublishExpvar(name string) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, r.ExpvarVar())
}

// snapshot flattens every metric to a JSON-friendly value keyed by
// name{labels}.
func (r *Registry) snapshot() map[string]any {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any)
	for _, f := range r.families {
		for _, c := range f.kids {
			key := f.name + formatLabels(c.labels)
			switch {
			case c.counter != nil:
				out[key] = c.counter.Value()
			case c.fn != nil:
				out[key] = c.fn()
			case c.gauge != nil:
				out[key] = c.gauge.Value()
			case c.hist != nil:
				sum, count, buckets := c.hist.snapshot()
				doc := map[string]any{"sum": sum, "count": count}
				bs := make(map[string]uint64, len(buckets))
				for i, b := range c.hist.bounds {
					bs[formatFloat(b)] = buckets[i]
				}
				bs["+Inf"] = buckets[len(buckets)-1]
				doc["buckets"] = bs
				out[key] = doc
			}
		}
	}
	return out
}

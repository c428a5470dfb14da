package httpapi

import (
	"net/http"
	"strconv"
	"time"

	"vzlens/internal/obs"
	"vzlens/internal/overload"
)

// handlerMetrics is the handler's own observability surface; the gate,
// result store, and campaign engine register theirs on the same
// Registry. Label children are materialized here, at construction, so
// the per-request path is pure atomic increments.
type handlerMetrics struct {
	requests  map[string]*obs.Counter   // by admission class
	durations map[string]*obs.Histogram // by admission class
	responses [6]*obs.Counter           // by status class index (status/100)
	sheds     map[string]*obs.Counter   // by rejection reason
	queueWait *obs.Histogram            // admission-gate queue wait
	leaders   *obs.Counter              // singleflight executions
	followers *obs.Counter              // coalesced singleflight waits
}

var requestClasses = []string{"health", "experiment", "scenario", "sweep", "query", "api", "metrics"}

// shedReasons must cover every reason writeShed and the rate limiter
// can emit, so the counters exist before the first rejection.
var shedReasons = []string{"shed", "queue_full", "queue_timeout", "client_canceled", "overloaded", "rate_limited"}

func newHandlerMetrics(reg *obs.Registry) handlerMetrics {
	m := handlerMetrics{
		requests:  map[string]*obs.Counter{},
		durations: map[string]*obs.Histogram{},
		sheds:     map[string]*obs.Counter{},
	}
	for _, class := range requestClasses {
		m.requests[class] = reg.Counter("vz_http_requests_total",
			"Requests received, by admission class.", obs.L("class", class))
		m.durations[class] = reg.Histogram("vz_http_request_seconds",
			"End-to-end request latency, by admission class.", obs.LatencyBuckets, obs.L("class", class))
	}
	for i := 1; i <= 5; i++ {
		m.responses[i] = reg.Counter("vz_http_responses_total",
			"Responses sent, by status class.", obs.L("code", strconv.Itoa(i)+"xx"))
	}
	for _, reason := range shedReasons {
		m.sheds[reason] = reg.Counter("vz_http_sheds_total",
			"Requests rejected for backpressure, by reason.", obs.L("reason", reason))
	}
	m.queueWait = reg.Histogram("vz_gate_queue_wait_seconds",
		"Time admitted requests spent waiting for an execution slot.", obs.LatencyBuckets)
	m.leaders = reg.Counter("vz_flight_leaders_total",
		"Experiment computations executed (singleflight leaders).")
	m.followers = reg.Counter("vz_flight_followers_total",
		"Experiment requests served by another caller's computation.")
	return m
}

// instrumentGate exposes the admission gate's snapshot stats as
// render-time gauges. Cumulative gate totals are covered elsewhere:
// admissions by the queue-wait histogram's count, rejections by the
// shed counters.
func instrumentGate(reg *obs.Registry, g *overload.Gate) {
	stat := func(fn func(overload.GateStats) float64) func() float64 {
		return func() float64 { return fn(g.Stats()) }
	}
	reg.GaugeFunc("vz_gate_inflight", "Requests currently holding an execution slot.",
		stat(func(s overload.GateStats) float64 { return float64(s.InFlight) }))
	reg.GaugeFunc("vz_gate_queued", "Requests currently waiting for a slot.",
		stat(func(s overload.GateStats) float64 { return float64(s.Queued) }))
	reg.GaugeFunc("vz_gate_peak_inflight", "High-water mark of concurrently admitted requests.",
		stat(func(s overload.GateStats) float64 { return float64(s.PeakInFlight) }))
	reg.GaugeFunc("vz_gate_queue_wait_ewma_seconds", "Smoothed queue wait driving adaptive shedding.",
		stat(func(s overload.GateStats) float64 { return s.AvgQueueWait.Seconds() }))
	reg.GaugeFunc("vz_gate_rejected_fast", "Non-queueing TryAcquire rejections (DNS plane REFUSED).",
		stat(func(s overload.GateStats) float64 { return float64(s.RejectedFast) }))
}

// statusRecorder captures the final status code for metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(status int) {
	if sr.status == 0 {
		sr.status = status
	}
	sr.ResponseWriter.WriteHeader(status)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(p)
}

// observabilityMiddleware sits outside admission control so it sees
// every request — including the ones the gate sheds — and times the
// full in-server latency. When tracing is enabled it opens the root
// span, stamps X-Trace-Id on the response, and threads the traced
// context down to the campaign engine.
func (h *Handler) observabilityMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, class := classify(r)
		if c := h.met.requests[class]; c != nil {
			c.Inc()
		}
		var span *obs.Span
		if h.opts.Tracer != nil {
			ctx := obs.WithTracer(r.Context(), h.opts.Tracer)
			ctx, span = obs.StartSpan(ctx, "http.request")
			span.SetAttr("method", r.Method)
			span.SetAttr("path", r.URL.Path)
			w.Header().Set("X-Trace-Id", span.TraceID().String())
			r = r.WithContext(ctx)
		}
		sr := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sr, r)
		dur := time.Since(start)
		if hist := h.met.durations[class]; hist != nil {
			hist.ObserveDuration(dur)
		}
		status := sr.status
		if status == 0 {
			status = http.StatusOK
		}
		if i := status / 100; i >= 1 && i <= 5 {
			h.met.responses[i].Inc()
		}
		if span != nil {
			span.SetAttr("status", status)
			span.End()
		}
	})
}

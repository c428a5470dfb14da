package httpapi

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"vzlens/internal/overload"
)

// classify maps a request onto its admission priority and rate-limit
// class. Health and readiness probes are critical: an overloaded
// server that stops answering its orchestrator gets restarted, which
// only makes the overload worse. Experiment fetches can trigger
// campaign simulation, so they are the first to shed; the remaining
// API surface is cheap and sheds last.
func classify(r *http.Request) (overload.Priority, string) {
	switch {
	case r.URL.Path == "/healthz" || r.URL.Path == "/readyz":
		return overload.PriorityCritical, "health"
	case r.URL.Path == "/metrics" || r.URL.Path == "/metrics.json":
		// Scrapes must survive overload: metrics from a drowning server
		// are exactly what the operator needs to see.
		return overload.PriorityCritical, "metrics"
	case strings.HasPrefix(r.URL.Path, "/api/experiments/"):
		return overload.PriorityLow, "experiment"
	case r.URL.Path == "/api/query":
		// Ad-hoc fact-lake scans are analytical work: cheap once warm,
		// but a cold-cache burst can decode a decade of partitions, so
		// they shed with the other heavy computations.
		return overload.PriorityLow, "query"
	case strings.HasPrefix(r.URL.Path, "/api/sweeps"):
		// Sweep endpoints themselves are cheap — expansion and status
		// serving; the expensive simulations run in background workers
		// that acquire the gate per spec at low priority.
		return overload.PriorityHigh, "sweep"
	case strings.HasPrefix(r.URL.Path, "/api/scenarios"):
		// Scenario diffs can trigger two extra campaign simulations —
		// the most expensive operation the API exposes — so they shed
		// alongside experiments.
		return overload.PriorityLow, "scenario"
	default:
		return overload.PriorityHigh, "api"
	}
}

// admissionMiddleware applies the static rate-limit backstop and the
// bounded-concurrency gate. Rejections are structured JSON with a
// Retry-After so well-behaved clients back off instead of retrying
// hot.
func (h *Handler) admissionMiddleware(next http.Handler) http.Handler {
	if h.gate == nil && h.limits == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		pri, class := classify(r)
		if pri < overload.PriorityCritical && h.limits != nil {
			if ok, retry := h.limits.Allow(class); !ok {
				secs := int(retry / time.Second)
				if secs < 1 {
					secs = 1
				}
				h.met.sheds["rate_limited"].Inc()
				w.Header().Set("Retry-After", strconv.Itoa(secs))
				writeJSON(w, http.StatusTooManyRequests, map[string]string{
					"error":  fmt.Sprintf("rate limit exceeded for %s endpoints", class),
					"reason": "rate_limited",
				})
				return
			}
		}
		if h.gate != nil {
			release, err := h.gate.Acquire(r.Context(), pri)
			if err != nil {
				h.writeShed(w, err)
				return
			}
			defer release()
		}
		next.ServeHTTP(w, r)
	})
}

// writeShed renders a gate rejection. Every shed response carries
// Retry-After: shedding exists to convert queue collapse into quick,
// honest backpressure.
func (h *Handler) writeShed(w http.ResponseWriter, err error) {
	reason, retry := "overloaded", "5"
	switch {
	case errors.Is(err, overload.ErrShed):
		reason, retry = "shed", "2"
	case errors.Is(err, overload.ErrQueueFull):
		reason, retry = "queue_full", "2"
	case errors.Is(err, overload.ErrQueueTimeout):
		reason, retry = "queue_timeout", "5"
	case errors.Is(err, overload.ErrCanceled):
		// The client is gone; the status code is a formality.
		reason, retry = "client_canceled", "1"
	}
	if c := h.met.sheds[reason]; c != nil {
		c.Inc()
	}
	w.Header().Set("Retry-After", retry)
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{
		"error":  "server overloaded, retry later",
		"reason": reason,
	})
}

// backpressureWriter stamps Retry-After (and a JSON Content-Type) onto
// any 429/503 whose handler forgot them — including http.TimeoutHandler's
// built-in 503 page, which this package cannot otherwise reach.
type backpressureWriter struct {
	http.ResponseWriter
	wroteHeader bool
}

func (b *backpressureWriter) WriteHeader(status int) {
	if !b.wroteHeader {
		b.wroteHeader = true
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			hdr := b.Header()
			if hdr.Get("Retry-After") == "" {
				hdr.Set("Retry-After", "5")
			}
			if hdr.Get("Content-Type") == "" {
				hdr.Set("Content-Type", "application/json; charset=utf-8")
			}
		}
	}
	b.ResponseWriter.WriteHeader(status)
}

func (b *backpressureWriter) Write(p []byte) (int, error) {
	if !b.wroteHeader {
		b.WriteHeader(http.StatusOK)
	}
	return b.ResponseWriter.Write(p)
}

// backpressureHeaderMiddleware guarantees the "every 429/503 carries
// Retry-After" contract for the whole handler tree.
func backpressureHeaderMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&backpressureWriter{ResponseWriter: w}, r)
	})
}

// Package resilience supplies two fault-handling primitives: RetryValue,
// the context-aware retry with exponential backoff and deterministic
// jitter that the sweep workers run each spec under, and LazyResult, an
// error-aware lazy cache that — unlike sync.Once — does not poison
// itself on a transient first failure.
//
// Everything is deterministic under test: jitter draws from a seedable
// RNG and sleeping is injectable.
package resilience

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// Policy parameterizes RetryValue. Zero fields take defaults: one
// attempt, a 250 ms base delay growing ×2 up to 5 s, no jitter, a fixed
// seed and a real timer.
type Policy struct {
	// MaxAttempts is the total number of tries (first call included).
	MaxAttempts int
	// BaseDelay is the wait after the first failure; each subsequent
	// wait multiplies by Multiplier up to MaxDelay.
	BaseDelay  time.Duration
	MaxDelay   time.Duration
	Multiplier float64
	// Jitter is the fraction of each delay drawn uniformly at random
	// and added to it (0 disables jitter, 0.5 adds up to +50%).
	Jitter float64
	// Seed makes the jitter sequence reproducible. Zero selects a
	// fixed default so that identical policies retry identically.
	Seed int64
	// Sleep replaces the context-aware wait between attempts; tests
	// inject a recorder here. Nil uses a real timer.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 250 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Seed == 0 {
		p.Seed = 20240804
	}
	if p.Sleep == nil {
		p.Sleep = sleepCtx
	}
	return p
}

// Delay returns the backoff before attempt n (n = 1 is the wait after
// the first failure), jittered by rng when non-nil.
func (p Policy) Delay(n int, rng *rand.Rand) time.Duration {
	p = p.withDefaults()
	d := float64(p.BaseDelay)
	for i := 1; i < n; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 && rng != nil {
		d += d * p.Jitter * rng.Float64()
	}
	return time.Duration(d)
}

// RetryValue runs fn until it succeeds, the context is done, or
// MaxAttempts is exhausted; the sweep workers use it. fn runs under the
// caller's context, every backoff sleep aborts immediately on context
// cancellation or deadline expiry (the abort error wraps ctx.Err, so
// callers can distinguish a canceled retry from an exhausted one), and
// the zero T accompanies every failure. The exhausted error wraps the
// last failure and records the attempt count.
func RetryValue[T any](ctx context.Context, p Policy, fn func(ctx context.Context) (T, error)) (T, error) {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	var zero T
	var last error
	for attempt := 1; attempt <= p.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return zero, fmt.Errorf("resilience: retry aborted before attempt %d: %w", attempt, err)
		}
		v, err := fn(ctx)
		if err == nil {
			return v, nil
		}
		last = err
		if attempt == p.MaxAttempts {
			break
		}
		if err := p.Sleep(ctx, p.Delay(attempt, rng)); err != nil {
			return zero, fmt.Errorf("resilience: retry aborted after attempt %d: %w (last error: %v)", attempt, err, last)
		}
	}
	return zero, fmt.Errorf("resilience: %d attempts exhausted: %w", p.MaxAttempts, last)
}

// sleepCtx waits d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

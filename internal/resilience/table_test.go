package resilience

import (
	"math/rand"
	"testing"
	"time"
)

// TestDelayBackoffTable pins the un-jittered backoff schedule:
// geometric growth from BaseDelay, capped at MaxDelay.
func TestDelayBackoffTable(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Multiplier: 2}
	cases := []struct {
		attempt int
		want    time.Duration
	}{
		{1, 100 * time.Millisecond},
		{2, 200 * time.Millisecond},
		{3, 400 * time.Millisecond},
		{4, 800 * time.Millisecond},
		{5, time.Second}, // capped
		{9, time.Second}, // stays capped
	}
	for _, tc := range cases {
		if got := p.Delay(tc.attempt, nil); got != tc.want {
			t.Errorf("Delay(%d) = %v, want %v", tc.attempt, got, tc.want)
		}
	}
}

// TestDelayJitterBounds proves the jitter contract over many draws: a
// jitter fraction j keeps every delay in [base, base*(1+j)), and a zero
// fraction adds nothing.
func TestDelayJitterBounds(t *testing.T) {
	cases := []struct {
		name   string
		jitter float64
	}{
		{"no jitter", 0},
		{"20 percent", 0.2},
		{"full spread", 1.0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: 10 * time.Second,
				Multiplier: 2, Jitter: tc.jitter}
			for seed := int64(1); seed <= 50; seed++ {
				rng := rand.New(rand.NewSource(seed))
				for attempt := 1; attempt <= 6; attempt++ {
					base := p.Delay(attempt, nil)
					got := p.Delay(attempt, rng)
					if got < base {
						t.Fatalf("seed %d attempt %d: jittered %v below base %v", seed, attempt, got, base)
					}
					max := time.Duration(float64(base) * (1 + tc.jitter))
					if got > max {
						t.Fatalf("seed %d attempt %d: jittered %v above bound %v", seed, attempt, got, max)
					}
					if tc.jitter == 0 && got != base {
						t.Fatalf("zero jitter changed the delay: %v != %v", got, base)
					}
				}
			}
		})
	}
}

// TestDelayIdenticalSeedsIdenticalSchedules pins reproducibility: two
// RNGs from the same seed must produce the same jittered schedule.
func TestDelayIdenticalSeedsIdenticalSchedules(t *testing.T) {
	p := Policy{MaxAttempts: 4, BaseDelay: 250 * time.Millisecond, MaxDelay: 5 * time.Second, Multiplier: 2, Jitter: 0.2}
	a, b := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	for attempt := 1; attempt <= 8; attempt++ {
		if da, db := p.Delay(attempt, a), p.Delay(attempt, b); da != db {
			t.Fatalf("attempt %d: same seed diverged (%v vs %v)", attempt, da, db)
		}
	}
}

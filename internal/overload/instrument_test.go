package overload

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestTokenBucketTable drives the bucket with a fake clock through
// scripted drain/refill sequences.
func TestTokenBucketTable(t *testing.T) {
	type step struct {
		advance time.Duration
		allows  int // consecutive Allow calls
		granted int // how many of them must succeed
	}
	cases := []struct {
		name  string
		rate  Rate
		steps []step
	}{
		{
			name: "burst drains then denies", rate: Rate{PerSecond: 1, Burst: 3},
			steps: []step{{allows: 5, granted: 3}},
		},
		{
			name: "refills at the sustained rate", rate: Rate{PerSecond: 2, Burst: 2},
			steps: []step{
				{allows: 2, granted: 2},
				{advance: 500 * time.Millisecond, allows: 2, granted: 1}, // 0.5s × 2/s = 1 token
				{advance: 10 * time.Second, allows: 3, granted: 2},       // capped at burst
			},
		},
		{
			name: "burst defaults to the rate", rate: Rate{PerSecond: 4},
			steps: []step{{allows: 6, granted: 4}},
		},
		{
			name: "non-positive rate disables the bucket", rate: Rate{PerSecond: 0},
			steps: []step{{allows: 100, granted: 100}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := time.Unix(1700000000, 0)
			b := NewTokenBucket(tc.rate, func() time.Time { return clock })
			for i, s := range tc.steps {
				clock = clock.Add(s.advance)
				granted := 0
				for j := 0; j < s.allows; j++ {
					if b.Allow() {
						granted++
					}
				}
				if granted != s.granted {
					t.Fatalf("step %d: granted %d of %d, want %d", i, granted, s.allows, s.granted)
				}
			}
		})
	}
}

// TestTokenBucketRetryAfter pins the Retry-After estimate: whole
// seconds, never below 1, derived from the token deficit.
func TestTokenBucketRetryAfter(t *testing.T) {
	clock := time.Unix(1700000000, 0)
	b := NewTokenBucket(Rate{PerSecond: 0.5, Burst: 1}, func() time.Time { return clock })
	if !b.Allow() {
		t.Fatal("full bucket denied")
	}
	// Empty bucket at 0.5 tokens/s: a full token is 2s away.
	if got := b.RetryAfter(); got != 2*time.Second {
		t.Errorf("RetryAfter = %v, want 2s", got)
	}
	clock = clock.Add(3 * time.Second)
	if got := b.RetryAfter(); got != time.Second {
		t.Errorf("RetryAfter with a token banked = %v, want the 1s floor", got)
	}
	var disabled *TokenBucket
	if got := disabled.RetryAfter(); got != 0 {
		t.Errorf("nil bucket RetryAfter = %v, want 0", got)
	}
}

// TestFlightStats pins the leader/follower split each call reports
// (httpapi counts vz_flight_leaders_total/vz_flight_followers_total
// from it): sequential calls are all leaders; calls that arrive while a
// computation is in flight are followers and get the leader's value.
func TestFlightStats(t *testing.T) {
	var g Group[string, int]
	leaders := 0
	for i := 0; i < 3; i++ {
		_, err, shared := g.Do("seq", func() (int, error) { return i, nil })
		if err != nil {
			t.Fatalf("sequential Do: %v", err)
		}
		if !shared {
			leaders++
		}
	}
	if leaders != 3 {
		t.Fatalf("sequential calls: %d leaders, want 3", leaders)
	}

	const followers = 4
	type result struct {
		v      int
		err    error
		shared bool
	}
	gateIn, gateOut := make(chan struct{}), make(chan struct{})
	lead := make(chan result, 1)
	go func() {
		v, err, shared := g.Do("key", func() (int, error) {
			close(gateIn) // leader is in flight
			<-gateOut
			return 42, nil
		})
		lead <- result{v, err, shared}
	}()
	<-gateIn
	results := make(chan result, followers)
	for i := 0; i < followers; i++ {
		go func() {
			v, err, shared := g.Do("key", func() (int, error) { return -1, nil })
			results <- result{v, err, shared}
		}()
	}
	// Followers must be registered before the leader finishes; poll
	// until all four wait on the in-flight call.
	for g.Followers("key") != followers {
		time.Sleep(time.Millisecond)
	}
	close(gateOut)
	if r := <-lead; r.v != 42 || r.err != nil || r.shared {
		t.Errorf("coalesced leader got %d, %v, shared=%v; want 42, nil, false", r.v, r.err, r.shared)
	}
	for i := 0; i < followers; i++ {
		if r := <-results; r.v != 42 || r.err != nil || !r.shared {
			t.Errorf("follower got %d, %v, shared=%v; want 42, nil, true", r.v, r.err, r.shared)
		}
	}
}

// TestGateObserveWait pins the queue-wait hook: immediate admissions
// report a zero wait, queued admissions report the time actually spent
// waiting, and shed requests report nothing.
func TestGateObserveWait(t *testing.T) {
	var mu sync.Mutex
	var waits []time.Duration
	g := NewGate(GateOptions{
		MaxInFlight:  1,
		MaxQueue:     1,
		QueueTimeout: time.Second,
		ObserveWait: func(d time.Duration) {
			mu.Lock()
			waits = append(waits, d)
			mu.Unlock()
		},
	})
	release, err := g.Acquire(context.Background(), PriorityHigh)
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(chan error, 1)
	go func() {
		r2, err := g.Acquire(context.Background(), PriorityHigh)
		if err == nil {
			r2()
		}
		admitted <- err
	}()
	// Wait until the second request is queued, then hold it briefly so
	// its recorded wait is measurably positive.
	for g.Stats().Queued == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)
	release()
	if err := <-admitted; err != nil {
		t.Fatalf("queued acquire failed: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(waits) != 2 {
		t.Fatalf("ObserveWait called %d times, want 2 (got %v)", len(waits), waits)
	}
	if waits[0] != 0 {
		t.Errorf("immediate admission reported wait %v, want 0", waits[0])
	}
	if waits[1] <= 0 {
		t.Errorf("queued admission reported wait %v, want > 0", waits[1])
	}
}

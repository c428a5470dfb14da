package resilience

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

// fakeSleep records requested delays and never actually waits.
func fakeSleep(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return ctx.Err()
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	var delays []time.Duration
	p := Policy{MaxAttempts: 4, BaseDelay: 250 * time.Millisecond, Sleep: fakeSleep(&delays)}
	calls := 0
	_, err := RetryValue(context.Background(), p, func(context.Context) (struct{}, error) {
		calls++
		if calls < 3 {
			return struct{}{}, errBoom
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatalf("RetryValue = %v", err)
	}
	if calls != 3 || len(delays) != 2 {
		t.Errorf("calls = %d, sleeps = %d; want 3, 2", calls, len(delays))
	}
	if delays[1] <= delays[0] {
		t.Errorf("backoff not increasing: %v", delays)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	var delays []time.Duration
	p := Policy{MaxAttempts: 3, Sleep: fakeSleep(&delays)}
	calls := 0
	_, err := RetryValue(context.Background(), p, func(context.Context) (struct{}, error) { calls++; return struct{}{}, errBoom })
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want wrapped errBoom", err)
	}
	if calls != 3 || len(delays) != 2 {
		t.Errorf("calls = %d, sleeps = %d; want 3, 2", calls, len(delays))
	}
}

func TestDelayDeterministicJitter(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Multiplier: 2, Jitter: 0.5}
	a := p.Delay(3, rand.New(rand.NewSource(7)))
	b := p.Delay(3, rand.New(rand.NewSource(7)))
	if a != b {
		t.Errorf("same seed, different delays: %v vs %v", a, b)
	}
	base := p.Delay(3, nil)
	if base != 400*time.Millisecond {
		t.Errorf("unjittered delay(3) = %v, want 400ms", base)
	}
	if a < base || a > base+base/2 {
		t.Errorf("jittered delay %v outside [%v, %v]", a, base, base+base/2)
	}
	if p.Delay(10, nil) != time.Second {
		t.Errorf("delay(10) = %v, want capped at 1s", p.Delay(10, nil))
	}
}

func TestLazyResultCachesSuccess(t *testing.T) {
	var l LazyResult[int]
	calls := 0
	for i := 0; i < 3; i++ {
		v, err := l.Get(func() (int, error) { calls++; return 42, nil })
		if err != nil || v != 42 {
			t.Fatalf("Get = %d, %v", v, err)
		}
	}
	if calls != 1 {
		t.Errorf("fn ran %d times, want 1", calls)
	}
	if !l.Ready() {
		t.Error("Ready = false after success")
	}
}

func TestLazyResultRetriesAfterFailure(t *testing.T) {
	var l LazyResult[string]
	calls := 0
	_, err := l.Get(func() (string, error) { calls++; return "", errBoom })
	if !errors.Is(err, errBoom) {
		t.Fatalf("first Get = %v", err)
	}
	if l.Ready() {
		t.Fatal("failure was cached")
	}
	v, err := l.Get(func() (string, error) { calls++; return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("second Get = %q, %v", v, err)
	}
	if calls != 2 {
		t.Errorf("fn ran %d times, want 2", calls)
	}
}

func TestLazyResultSingleFlight(t *testing.T) {
	var l LazyResult[int]
	var mu sync.Mutex
	calls := 0
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := l.Get(func() (int, error) {
				mu.Lock()
				calls++
				mu.Unlock()
				<-release
				return 7, nil
			})
			if err != nil || v != 7 {
				t.Errorf("Get = %d, %v", v, err)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the goroutines pile up
	close(release)
	wg.Wait()
	if calls != 1 {
		t.Errorf("fn ran %d times under contention, want 1", calls)
	}
}

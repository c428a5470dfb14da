package resilience

import "sync"

// LazyResult caches the first successful computation of a value. Unlike
// sync.Once, a failed computation is NOT cached: the error is returned
// to the caller that triggered it, and the next Get tries again. This is
// the pattern for "simulate once, serve forever" caches that must not be
// poisoned by a transient failure on the first request.
//
// Concurrent Gets single-flight: while one computation is in progress,
// other callers wait for its outcome instead of duplicating work.
type LazyResult[T any] struct {
	mu      sync.Mutex
	done    bool
	val     T
	waiting *sync.WaitGroup // non-nil while a computation is in flight
	lastErr error
}

// Get returns the cached value, or runs fn to produce it. On error the
// cache stays empty and every waiter receives that error; a later Get
// retries fn.
func (l *LazyResult[T]) Get(fn func() (T, error)) (T, error) {
	l.mu.Lock()
	for {
		if l.done {
			v := l.val
			l.mu.Unlock()
			return v, nil
		}
		if l.waiting == nil {
			break // we get to compute
		}
		// Another goroutine is computing; wait for its verdict, then
		// re-check (it may have failed, in which case we compute).
		wg := l.waiting
		l.mu.Unlock()
		wg.Wait()
		l.mu.Lock()
		if l.waiting == nil && !l.done {
			// The in-flight computation failed. Surface its error
			// rather than piling every queued waiter onto a retry.
			err := l.lastErr
			l.mu.Unlock()
			var zero T
			return zero, err
		}
	}
	wg := &sync.WaitGroup{}
	wg.Add(1)
	l.waiting = wg
	l.mu.Unlock()

	v, err := fn()

	l.mu.Lock()
	l.waiting = nil
	l.lastErr = err
	if err == nil {
		l.val = v
		l.done = true
	}
	l.mu.Unlock()
	wg.Done()
	if err != nil {
		var zero T
		return zero, err
	}
	return v, nil
}

// Ready reports whether a value is cached.
func (l *LazyResult[T]) Ready() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.done
}

// Peek returns the cached value without computing it; ok is false
// while no value is cached.
func (l *LazyResult[T]) Peek() (v T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.val, l.done
}

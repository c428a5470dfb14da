package overload

import (
	"fmt"
	"sync"
)

// Group collapses concurrent calls with the same key into one
// execution (request coalescing, the classic singleflight). The leader
// runs fn; followers that arrive while it is in flight block and
// receive the leader's result. The entry is forgotten as soon as the
// call completes, so nothing — success or failure — is cached here:
// compose with resilience.LazyResult (or a result store) for caching
// semantics. Failures therefore stay retryable, exactly like
// LazyResult's own contract.
type Group[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*flightCall[V]
}

type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
	dups int // callers coalesced onto this call
}

// Do executes fn for key, coalescing with any in-flight call for the
// same key. shared reports whether the result was produced by another
// caller's execution.
func (g *Group[K, V]) Do(key K, fn func() (V, error)) (v V, err error, shared bool) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = map[K]*flightCall[V]{}
	}
	if c, ok := g.calls[key]; ok {
		c.dups++
		g.mu.Unlock()
		<-c.done
		return c.val, c.err, true
	}
	c := &flightCall[V]{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	func() {
		// A leader panic must not strand followers on a closed-over
		// zero value: convert it to an error every caller sees.
		defer func() {
			if rec := recover(); rec != nil {
				c.err = fmt.Errorf("overload: coalesced call panicked: %v", rec)
			}
			g.mu.Lock()
			delete(g.calls, key)
			g.mu.Unlock()
			close(c.done)
		}()
		c.val, c.err = fn()
	}()
	return c.val, c.err, false
}

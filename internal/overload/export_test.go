package overload

// Followers reports how many callers are waiting on the in-flight call
// for key (0 when none is in flight).
func (g *Group[K, V]) Followers(key K) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c.dups
	}
	return 0
}

// InFlight reports whether a call for key is currently executing.
func (g *Group[K, V]) InFlight(key K) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, ok := g.calls[key]
	return ok
}

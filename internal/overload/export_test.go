package overload

// Stats reports cumulative leaders (calls that executed fn) and
// followers (calls served by another caller's execution) — the
// coalescing ratio the /metrics endpoint exposes.
func (g *Group[K, V]) Stats() (leaders, followers uint64) {
	return g.leaders.Load(), g.followers.Load()
}

// InFlight reports whether a call for key is currently executing.
func (g *Group[K, V]) InFlight(key K) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, ok := g.calls[key]
	return ok
}

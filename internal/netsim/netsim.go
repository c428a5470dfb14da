// Package netsim simulates interdomain paths and latencies over an
// AS-level topology. It provides the substrate under the paper's two
// active-measurement campaigns: RIPE Atlas traceroutes toward Google
// Public DNS (Section 7.2) and CHAOS TXT queries toward anycast root DNS
// (Section 5.4). Routes follow valley-free BGP semantics (customer routes
// preferred, then peer, then provider; shortest AS path within a class),
// and latency accrues from great-circle propagation between the cities of
// consecutive ASes on the path.
package netsim

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"vzlens/internal/bgp"
	"vzlens/internal/geo"
)

// Topology is an AS-level graph annotated with AS locations. A
// Topology is either a base (graph and location populated) or an
// overlay view created by Overlay (base and deltas populated); the
// query API is identical for both.
type Topology struct {
	graph    *bgp.Graph
	location map[bgp.ASN]geo.City
	cities   *cityTable // distance table (see InternCities); nil for none

	// Overlay views: the base topology, the copy-on-write adjacency
	// deltas, and relocated ASes.
	base        *Topology
	prov        adjDelta // providers-of deltas
	cust        adjDelta // customers-of deltas
	peer        adjDelta // peers-of deltas
	locOverride map[bgp.ASN]geo.City

	// gen counts mutations of this topology. An overlay's effective
	// generation sums the chain down to the base, so a dense view (or a
	// resolver tree) built over any view in the chain can detect that
	// an ancestor changed underneath it.
	gen atomic.Uint64

	// denseV is the interned index-based view the resolver traversals
	// run over, built lazily on first use and invalidated by mutation
	// anywhere in the base chain (denseGen records the generation it
	// was built at).
	denseMu  sync.Mutex
	denseV   *denseTopo
	denseGen uint64
}

// New returns an empty Topology.
func New() *Topology {
	return &Topology{graph: bgp.NewGraph(), location: map[bgp.ASN]geo.City{}}
}

// AddLink inserts a relationship edge (provider→customer or peer).
// Overlay views are immutable; AddLink panics on one (build a new
// Overlay instead).
func (t *Topology) AddLink(a, b bgp.ASN, kind bgp.RelKind) {
	if t.base != nil {
		panic("netsim: AddLink on an overlay view; overlays are immutable, build a new Overlay")
	}
	t.invalidateDense()
	t.graph.AddRel(bgp.Rel{A: a, B: b, Kind: kind})
}

// Locate records the primary interconnection city of an AS. Overlay
// views are immutable; Locate panics on one (use an EditRelocate).
func (t *Topology) Locate(asn bgp.ASN, city geo.City) {
	if t.base != nil {
		panic("netsim: Locate on an overlay view; overlays are immutable, use EditRelocate")
	}
	t.invalidateDense()
	t.location[asn] = city
}

// invalidateDense drops the interned view after a mutation and bumps
// the generation so overlay views derived from this topology rebuild
// their own dense caches on next use.
func (t *Topology) invalidateDense() {
	t.gen.Add(1)
	t.denseMu.Lock()
	t.denseV = nil
	t.denseMu.Unlock()
}

// generation is the mutation counter of this view's whole base chain.
// Dense views and resolver trees record it at build time and rebuild
// when it moves.
func (t *Topology) generation() uint64 {
	g := t.gen.Load()
	for b := t.base; b != nil; b = b.base {
		g += b.gen.Load()
	}
	return g
}

// dense returns the interned index-based view, building it on first
// use and rebuilding when the base chain has mutated since. The view
// is immutable once built and safe to share across goroutines.
func (t *Topology) dense() *denseTopo {
	gen := t.generation()
	t.denseMu.Lock()
	defer t.denseMu.Unlock()
	if t.denseV == nil || t.denseGen != gen {
		if t.base != nil {
			t.denseV = buildOverlayDense(t.base.dense(), t)
		} else {
			t.denseV = buildDense(t)
		}
		t.denseGen = gen
	}
	return t.denseV
}

// Location returns the recorded city of asn, honoring overlay
// relocations.
func (t *Topology) Location(asn bgp.ASN) (geo.City, bool) {
	if t.base != nil {
		if c, ok := t.locOverride[asn]; ok {
			return c, c != (geo.City{})
		}
		return t.base.Location(asn)
	}
	c, ok := t.location[asn]
	return c, ok
}

// Graph exposes the underlying relationship graph. For an overlay view
// this is the base graph: overlay edits live in copy-on-write deltas
// and are never materialized back into a bgp.Graph. Callers that need
// the effective adjacency should query the topology (HasLink, ASPath,
// a Resolver), not the graph.
func (t *Topology) Graph() *bgp.Graph {
	if t.base != nil {
		return t.base.Graph()
	}
	return t.graph
}

// routing phases for valley-free search. A path travels "up" through
// providers, crosses at most one peer edge, then travels "down" through
// customers.
type phase int8

const (
	phaseUp phase = iota
	phasePeer
	phaseDown
)

type state struct {
	asn bgp.ASN
	ph  phase
}

// ASPath returns a shortest valley-free AS path from src to dst and true,
// or nil and false when no policy-compliant path exists. The path includes
// both endpoints.
func (t *Topology) ASPath(src, dst bgp.ASN) ([]bgp.ASN, bool) {
	if src == dst {
		return []bgp.ASN{src}, true
	}
	start := state{src, phaseUp}
	prev := map[state]state{start: start}
	queue := []state{start}
	var goal *state
	for len(queue) > 0 && goal == nil {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range t.transitions(cur) {
			if _, seen := prev[next]; seen {
				continue
			}
			prev[next] = cur
			if next.asn == dst {
				g := next
				goal = &g
				break
			}
			queue = append(queue, next)
		}
	}
	if goal == nil {
		return nil, false
	}
	var rev []bgp.ASN
	for s := *goal; ; s = prev[s] {
		rev = append(rev, s.asn)
		if s == prev[s] {
			break
		}
	}
	path := make([]bgp.ASN, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		path = append(path, rev[i])
	}
	return path, true
}

// transitions enumerates the valley-free moves from a state, in
// deterministic order.
func (t *Topology) transitions(s state) []state {
	var out []state
	switch s.ph {
	case phaseUp:
		for _, p := range t.providersOf(s.asn) {
			out = append(out, state{p, phaseUp})
		}
		for _, p := range t.peersOf(s.asn) {
			out = append(out, state{p, phasePeer})
		}
		for _, c := range t.customersOf(s.asn) {
			out = append(out, state{c, phaseDown})
		}
	case phasePeer, phaseDown:
		for _, c := range t.customersOf(s.asn) {
			out = append(out, state{c, phaseDown})
		}
	}
	return out
}

// PathLatencyMs returns the one-way propagation latency along an AS path,
// from the cities of consecutive ASes, plus a fixed per-hop processing
// cost. ASes without a recorded location contribute no distance.
func (t *Topology) PathLatencyMs(path []bgp.ASN) float64 {
	const perHopMs = 0.35
	total := float64(len(path)-1) * perHopMs
	if total < 0 {
		return 0
	}
	var prevCity *geo.City
	for _, asn := range path {
		c, ok := t.Location(asn)
		if !ok {
			continue
		}
		if prevCity != nil {
			total += geo.PropagationDelayMs(geo.HaversineKm(prevCity.Lat, prevCity.Lon, c.Lat, c.Lon))
		}
		cc := c
		prevCity = &cc
	}
	return total
}

// Site is one anycast replica: the AS announcing the service prefix at a
// location.
type Site struct {
	Host bgp.ASN
	City geo.City
}

// ErrUnreachable is returned when no site is reachable from a source AS.
var ErrUnreachable = fmt.Errorf("netsim: no reachable anycast site")

// CatchmentPolicy selects which reachable anycast site captures a source.
type CatchmentPolicy int

const (
	// PolicyBGP picks the shortest AS path, breaking ties by latency —
	// how anycast actually routes.
	PolicyBGP CatchmentPolicy = iota
	// PolicyGeo picks the geographically nearest reachable site — the
	// naive baseline the ablation benchmarks compare against.
	PolicyGeo
)

// RTT converts a one-way latency into a round-trip sample, adding last-
// mile access delay and random queueing jitter drawn from rng. accessMs
// models the probe's access technology (a few ms on fiber, tens on
// congested DSL).
func RTT(oneWayMs, accessMs float64, rng *rand.Rand) float64 {
	jitter := rng.ExpFloat64() * 2.0 // congestion tail
	return 2*(oneWayMs+accessMs) + jitter
}

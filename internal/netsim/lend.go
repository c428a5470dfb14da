package netsim

import (
	"slices"
	"sync/atomic"

	"vzlens/internal/bgp"
)

// This file lets an overlay's resolver borrow its base's path trees.
// The campaign kernel runs one overlay per Venezuelan wiring over one
// static base, and the wirings differ only in CANTV's provider links
// and customer links: outside CANTV's customer cone every source's
// tree is the same under all of them, so one BFS on the base serves
// every wiring.
//
// Exactness. Let the region of a set of provider→customer edits be the
// customer cones of the links' customer ends, over the base's and the
// overlay's customer edges both. A valley-free path uses a changed
// link either climbing it, and then its source lies below the link's
// customer end, inside the region; or descending it, and then every AS
// after it lies below that end, its destination included. So from a
// source outside the region, every path to a destination outside it
// uses only links the base and the overlay share, over the same
// locations: the leveled BFS settles those states alike in both, and
// the base's tree is the overlay's on every AS outside the region. A
// path from such a source into the region enters it from an AS outside
// with an edge into it, an entry: it takes at least that entry's tree
// hops plus one. Peer links and relocations change paths anywhere, so
// an overlay with either borrows nothing.

// region is the set of ASes whose trees an overlay's edits can change.
type region struct {
	in      []bool  // by dense index
	entries []int32 // ASes outside with a customer or peer inside, ascending
	key     uint64  // ShareKey: the same for equal in over one lender
}

// lentTree is a lender's tree as one borrowing source holds it.
type lentTree struct {
	tree  []treeEntry
	bound int32 // fewest hops a path into the region can take; 0 when none can
}

// regionSeq numbers interned regions, so share keys are unique across
// lenders.
var regionSeq atomic.Uint64

// Overlay returns a resolver over r's topology under edits (see
// Topology.Overlay) that borrows r's trees where the edits cannot
// change them. When every edit adds or removes a provider→customer
// link, a source outside the edits' region (see lend.go) borrows r's
// tree and CatchmentInfo prices from it first; any other edit kind
// leaves nothing to borrow. r's trees stay r's: ReleaseTrees on r
// drops them for later borrowers, and on the overlay drops its
// borrowed pointers.
func (r *Resolver) Overlay(edits []Edit) (*Resolver, error) {
	ov, err := r.topo.Overlay(edits)
	if err != nil {
		return nil, err
	}
	return &Resolver{topo: ov, lender: r}, nil
}

// ShareKey identifies what the answers CatchmentInfo flags Shared
// depend on besides the query: resolvers derived by Overlay from one
// lender whose edits have equal regions give equal shared answers. It
// is 0 when the resolver shares nothing.
func (r *Resolver) ShareKey() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.syncLocked()
	if r.region == nil {
		return 0
	}
	return r.region.key
}

// regionFor computes the region of overlay o, whose dense view is d,
// and keys it against the regions r lent to before. It is nil when o
// has an edit other than a provider→customer link.
func (r *Resolver) regionFor(o *Topology, d *denseTopo) *region {
	if len(o.peer.add)+len(o.peer.rem)+len(o.locOverride) > 0 {
		return nil
	}
	d0 := o.base.dense()
	in := make([]bool, len(d.asns))
	var stack []int32
	mark := func(i int32) {
		if !in[i] {
			in[i] = true
			stack = append(stack, i)
		}
	}
	// The providers-of delta is keyed by the links' customer ends.
	for c := range o.prov.add {
		mark(d.index[c])
	}
	for c := range o.prov.rem {
		mark(d.index[c])
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range d0.customers(i) {
			mark(c)
		}
		for _, c := range d.customers(i) {
			mark(c)
		}
	}
	reg := &region{in: in}
	// The region holds every customer of its members, so no AS outside
	// has a provider inside: entries come in by customer or peer edges.
	for i := range in {
		x := int32(i)
		if !in[x] && (anyIn(in, d0.customers(x)) || anyIn(in, d.customers(x)) || anyIn(in, d.peers(x))) {
			reg.entries = append(reg.entries, x)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, k := range r.regions {
		if slices.Equal(k.in, in) {
			reg.key = k.key
			return reg
		}
	}
	reg.key = regionSeq.Add(1)
	r.regions = append(r.regions, reg)
	return reg
}

func anyIn(in []bool, row []int32) bool {
	for _, x := range row {
		if in[x] {
			return true
		}
	}
	return false
}

// lentFor returns src's borrowed tree, fetching it from the lender on
// first use, with the dense view it indexes and the region by dense
// index. The tree is nil when src borrows nothing: the resolver has no
// region, src is unknown, or src is inside the region.
func (r *Resolver) lentFor(src bgp.ASN) (lentTree, *denseTopo, []bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := r.syncLocked()
	reg := r.region
	if reg == nil {
		return lentTree{}, d, nil
	}
	si, ok := d.index[src]
	if !ok || reg.in[si] {
		return lentTree{}, d, nil
	}
	if lt := r.lent[si]; lt.tree != nil {
		if m := met.Load(); m != nil {
			m.treeMemoHit.Inc()
		}
		return lt, d, reg.in
	}
	tree, d0 := r.lender.treeFor(src)
	if d0.internID != d.internID { // the lender's topology changed under us
		return lentTree{}, d, nil
	}
	lt := lentTree{tree: tree}
	for _, x := range reg.entries {
		if h := tree[x].hops; h != 0 && (lt.bound == 0 || h+1 < lt.bound) {
			lt.bound = h + 1
		}
	}
	r.lent[si] = lt
	return lt, d, reg.in
}

package netsim

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"vzlens/internal/bgp"
	"vzlens/internal/geo"
)

// denseTopo is the cache-friendly index-based view of a Topology: every
// ASN interned to a dense int32 index, adjacency flattened into CSR
// arrays, and locations in parallel coordinate slices. The valley-free
// BFS runs entirely over these arrays, so a full single-source tree
// costs a handful of slice allocations instead of a map per level.
type denseTopo struct {
	asns  []bgp.ASN         // index → ASN, ascending
	index map[bgp.ASN]int32 // ASN → index

	// CSR adjacency: the providers of AS i are
	// provAdj[provOff[i]:provOff[i+1]], sorted by index (equivalently by
	// ASN). Likewise for peers and customers.
	provOff, provAdj []int32
	peerOff, peerAdj []int32
	custOff, custAdj []int32

	hasLoc         []bool
	locLat, locLon []float64

	// internID identifies the asns/index interning; overlays share it
	// (and the interning), a rebuilt base gets a fresh one. cities is
	// the base topology's distance table (nil when none was interned)
	// and locID each AS location's id in it, -1 when not interned.
	internID uint64
	cities   *cityTable
	locID    []int32

	// Overlay patches: when a row appears in a patch map, it replaces
	// the CSR slice for that AS. Base builds leave the maps nil, so the
	// accessors stay a bounds-checked slice on the hot path. Patch rows
	// are immutable once the view is built — derived overlays clone a
	// row before changing it.
	provPatch map[int32][]int32
	peerPatch map[int32][]int32
	custPatch map[int32][]int32

	// edgeDelay memoizes the propagation delay of each CSR edge slot
	// (provider slots first, then peer slots from peerSlotBase, then
	// customer slots from custSlotBase) as math.Float64bits, filled
	// lazily by the BFS. Haversine dominates tree-build CPU, and the
	// delay of a located→located edge is a pure function of the two
	// endpoints' coordinates, so the cached bits are exactly what the
	// direct computation produces. Entries hold delayUnset until
	// computed; access is atomic (concurrent fills recompute the same
	// value, so lost races are harmless). Overlays share the cache —
	// patched rows carry no slot and bypass it — except relocation
	// overlays, which nil it out because coordinates changed.
	edgeDelay    []uint64
	peerSlotBase int32
	custSlotBase int32
}

// internSeq numbers dense interning builds for denseTopo.internID.
var internSeq atomic.Uint64

// delayUnset marks an edgeDelay slot as not yet computed. The bit
// pattern is a NaN, which no real propagation delay produces.
const delayUnset = ^uint64(0)

// buildDense interns every AS that appears in the graph or carries a
// location and flattens the adjacency. Index order follows ASN order, so
// the sorted neighbor lists of bgp.Graph stay sorted after translation.
func buildDense(t *Topology) *denseTopo {
	if m := met.Load(); m != nil {
		m.denseBuilds.Inc()
	}
	seen := map[bgp.ASN]bool{}
	for _, a := range t.graph.ASes() {
		seen[a] = true
	}
	for a := range t.location {
		seen[a] = true
	}
	asns := make([]bgp.ASN, 0, len(seen))
	for a := range seen {
		asns = append(asns, a)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })

	n := len(asns)
	d := &denseTopo{
		asns:     asns,
		index:    make(map[bgp.ASN]int32, n),
		hasLoc:   make([]bool, n),
		locLat:   make([]float64, n),
		locLon:   make([]float64, n),
		internID: internSeq.Add(1),
		cities:   t.cities,
		locID:    make([]int32, n),
	}
	for i, a := range asns {
		d.index[a] = int32(i)
		d.locID[i] = -1
		if c, ok := t.location[a]; ok {
			d.hasLoc[i] = true
			d.locLat[i] = c.Lat
			d.locLon[i] = c.Lon
			d.locID[i] = t.cities.id(c)
		}
	}
	// Rows are gathered through the graph's append accessors into one
	// scratch buffer and sorted in place: the per-AS sorted copies of
	// Providers/Customers/Peers would otherwise dominate the build's
	// allocation count.
	var buf []bgp.ASN
	fill := func(degree func(bgp.ASN) int, appendRow func([]bgp.ASN, bgp.ASN) []bgp.ASN) (off, adj []int32) {
		off = make([]int32, n+1)
		for i, a := range asns {
			off[i+1] = off[i] + int32(degree(a))
		}
		adj = make([]int32, off[n])
		for i, a := range asns {
			buf = appendRow(buf[:0], a)
			sortASNRow(buf)
			k := off[i]
			for _, b := range buf {
				adj[k] = d.index[b]
				k++
			}
		}
		return off, adj
	}
	provDeg := func(a bgp.ASN) int { p, _, _ := t.graph.Degree(a); return p }
	custDeg := func(a bgp.ASN) int { _, c, _ := t.graph.Degree(a); return c }
	peerDeg := func(a bgp.ASN) int { _, _, p := t.graph.Degree(a); return p }
	d.provOff, d.provAdj = fill(provDeg, t.graph.AppendProviders)
	d.peerOff, d.peerAdj = fill(peerDeg, t.graph.AppendPeers)
	d.custOff, d.custAdj = fill(custDeg, t.graph.AppendCustomers)

	d.peerSlotBase = int32(len(d.provAdj))
	d.custSlotBase = d.peerSlotBase + int32(len(d.peerAdj))
	d.edgeDelay = make([]uint64, len(d.provAdj)+len(d.peerAdj)+len(d.custAdj))
	for i := range d.edgeDelay {
		d.edgeDelay[i] = delayUnset
	}
	return d
}

// sortASNRow sorts a small adjacency row ascending by ASN (insertion
// sort: rows are short and this path must not allocate).
func sortASNRow(row []bgp.ASN) {
	for i := 1; i < len(row); i++ {
		for j := i; j > 0 && row[j] < row[j-1]; j-- {
			row[j], row[j-1] = row[j-1], row[j]
		}
	}
}

func (d *denseTopo) providers(i int32) []int32 {
	if d.provPatch != nil {
		if row, ok := d.provPatch[i]; ok {
			return row
		}
	}
	return d.provAdj[d.provOff[i]:d.provOff[i+1]]
}

func (d *denseTopo) peers(i int32) []int32 {
	if d.peerPatch != nil {
		if row, ok := d.peerPatch[i]; ok {
			return row
		}
	}
	return d.peerAdj[d.peerOff[i]:d.peerOff[i+1]]
}

func (d *denseTopo) customers(i int32) []int32 {
	if d.custPatch != nil {
		if row, ok := d.custPatch[i]; ok {
			return row
		}
	}
	return d.custAdj[d.custOff[i]:d.custOff[i+1]]
}

// providersRow returns AS i's provider row plus the edgeDelay slot of
// its first element, or -1 when the row carries no cache slots (a
// patched row, or a view whose delay cache is disabled).
func (d *denseTopo) providersRow(i int32) ([]int32, int32) {
	if d.provPatch != nil {
		if row, ok := d.provPatch[i]; ok {
			return row, -1
		}
	}
	lo := d.provOff[i]
	if d.edgeDelay == nil {
		return d.provAdj[lo:d.provOff[i+1]], -1
	}
	return d.provAdj[lo:d.provOff[i+1]], lo
}

// peersRow is providersRow for peer edges.
func (d *denseTopo) peersRow(i int32) ([]int32, int32) {
	if d.peerPatch != nil {
		if row, ok := d.peerPatch[i]; ok {
			return row, -1
		}
	}
	lo := d.peerOff[i]
	if d.edgeDelay == nil {
		return d.peerAdj[lo:d.peerOff[i+1]], -1
	}
	return d.peerAdj[lo:d.peerOff[i+1]], d.peerSlotBase + lo
}

// customersRow is providersRow for customer edges.
func (d *denseTopo) customersRow(i int32) ([]int32, int32) {
	if d.custPatch != nil {
		if row, ok := d.custPatch[i]; ok {
			return row, -1
		}
	}
	lo := d.custOff[i]
	if d.edgeDelay == nil {
		return d.custAdj[lo:d.custOff[i+1]], -1
	}
	return d.custAdj[lo:d.custOff[i+1]], d.custSlotBase + lo
}

// buildOverlayDense derives the dense view of an overlay from its
// base's dense view. Everything is shared — the interning, the CSR
// arrays, the location slices — except the rows the overlay's edits
// touch, which are materialized into patch maps, and the location
// slices when the overlay relocates an AS. The build therefore costs
// O(edits) allocations regardless of topology size; this is what makes
// a per-month scenario overlay cheaper than rebuilding the month.
func buildOverlayDense(d0 *denseTopo, o *Topology) *denseTopo {
	if m := met.Load(); m != nil {
		m.overlayBuilds.Inc()
	}
	d := *d0 // share asns, index, CSR arrays, location slices
	d.provPatch = clonePatch(d0.provPatch)
	d.peerPatch = clonePatch(d0.peerPatch)
	d.custPatch = clonePatch(d0.custPatch)

	patch := func(p map[int32][]int32, row func(int32) []int32, i, v int32, add bool) {
		cur := row(i)
		if add {
			p[i] = insertSortedIdx(cur, v)
		} else {
			p[i] = removeIdx(cur, v)
		}
	}
	apply := func(p map[int32][]int32, row func(int32) []int32, delta adjDelta) {
		for a, bs := range delta.add {
			for _, b := range bs {
				patch(p, row, d.index[a], d.index[b], true)
			}
		}
		for a, bs := range delta.rem {
			for _, b := range bs {
				patch(p, row, d.index[a], d.index[b], false)
			}
		}
	}
	apply(d.provPatch, d.providers, o.prov)
	apply(d.custPatch, d.customers, o.cust)
	apply(d.peerPatch, d.peers, o.peer)

	if len(o.locOverride) > 0 {
		// Relocations invalidate cached edge delays for this view (and
		// any view derived from it): coordinates changed, so fall back
		// to direct computation.
		d.edgeDelay = nil
		d.hasLoc = append([]bool(nil), d0.hasLoc...)
		d.locLat = append([]float64(nil), d0.locLat...)
		d.locLon = append([]float64(nil), d0.locLon...)
		d.locID = append([]int32(nil), d0.locID...)
		for asn, c := range o.locOverride {
			i := d.index[asn]
			if c == (geo.City{}) {
				d.hasLoc[i] = false
				d.locLat[i], d.locLon[i] = 0, 0
				d.locID[i] = -1
				continue
			}
			d.hasLoc[i] = true
			d.locLat[i], d.locLon[i] = c.Lat, c.Lon
			d.locID[i] = d.cities.id(c)
		}
	}
	return &d
}

// clonePatch copies a patch map (rows stay shared; they are immutable).
func clonePatch(p map[int32][]int32) map[int32][]int32 {
	out := make(map[int32][]int32, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// insertSortedIdx returns a fresh sorted row with v inserted. The input
// row is never modified: it may be a shared CSR slice or a parent
// overlay's patch row.
func insertSortedIdx(row []int32, v int32) []int32 {
	out := make([]int32, 0, len(row)+1)
	placed := false
	for _, x := range row {
		if !placed && v < x {
			out = append(out, v)
			placed = true
		}
		if x == v {
			placed = true // already present (Overlay validation prevents this)
		}
		out = append(out, x)
	}
	if !placed {
		out = append(out, v)
	}
	return out
}

// removeIdx returns a fresh row with v filtered out.
func removeIdx(row []int32, v int32) []int32 {
	out := make([]int32, 0, len(row))
	for _, x := range row {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

// BFS states are packed as asIndex*3 + phase, so per-state bookkeeping
// lives in flat arrays indexed by the packed value.
const numPhases = 3

// scratch holds the reusable per-traversal buffers. Epoch stamping makes
// reuse O(1): a slot is valid only when its stamp equals the current
// epoch, so nothing is cleared between traversals.
type scratch struct {
	lat      []float64 // tentative/settled latency per state
	locIdx   []int32   // dense index of the last located AS on the path, -1 none
	parent   []int32   // predecessor state (BestPath only)
	settled  []uint32  // epoch stamp: state settled
	inNext   []uint32  // epoch stamp: state already in the next frontier
	frontier []int32
	next     []int32
	epoch    uint32
}

// scratchPool recycles traversal buffers across resolvers and goroutines;
// buffers grow to the largest topology seen and are reused as-is for
// smaller ones.
var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

// getScratch returns a scratch with capacity for nStates states and a
// fresh epoch.
func getScratch(nStates int) *scratch {
	sc := scratchPool.Get().(*scratch)
	if len(sc.settled) < nStates {
		if m := met.Load(); m != nil {
			m.scratchGrow.Inc()
		}
		sc.lat = make([]float64, nStates)
		sc.locIdx = make([]int32, nStates)
		sc.parent = make([]int32, nStates)
		sc.settled = make([]uint32, nStates)
		sc.inNext = make([]uint32, nStates)
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 { // stamp wraparound: invalidate everything once
		for i := range sc.settled {
			sc.settled[i] = 0
			sc.inNext[i] = 0
		}
		sc.epoch = 1
	}
	return sc
}

func putScratch(sc *scratch) { scratchPool.Put(sc) }

// expand pushes the valley-free transitions of state cur into the next
// frontier, keeping the minimum-latency arrival per state. It returns the
// updated frontier slice.
func (d *denseTopo) expand(sc *scratch, next []int32, cur int32, withParents bool) []int32 {
	const perHopMs = 0.35
	asIdx := cur / numPhases
	ph := phase(cur % numPhases)
	curLat := sc.lat[cur]
	curLoc := sc.locIdx[cur]

	visit := func(nbrIdx int32, nph phase, slot int32) []int32 {
		ns := nbrIdx*numPhases + int32(nph)
		if sc.settled[ns] == sc.epoch {
			return next
		}
		lat := curLat + perHopMs
		loc := curLoc
		if d.hasLoc[nbrIdx] {
			if loc >= 0 {
				// The edge cache is keyed by CSR slot, which identifies
				// the (asIdx, nbrIdx) endpoint pair; it applies only
				// when the path's last located AS is the edge's own
				// tail (loc == asIdx), i.e. when the cached coordinates
				// match this traversal's.
				if slot >= 0 && loc == asIdx {
					if bits := atomic.LoadUint64(&d.edgeDelay[slot]); bits != delayUnset {
						lat += math.Float64frombits(bits)
					} else {
						delay := geo.PropagationDelayMs(geo.HaversineKm(
							d.locLat[loc], d.locLon[loc], d.locLat[nbrIdx], d.locLon[nbrIdx]))
						atomic.StoreUint64(&d.edgeDelay[slot], math.Float64bits(delay))
						lat += delay
					}
				} else {
					lat += geo.PropagationDelayMs(geo.HaversineKm(
						d.locLat[loc], d.locLon[loc], d.locLat[nbrIdx], d.locLon[nbrIdx]))
				}
			}
			loc = nbrIdx
		}
		if sc.inNext[ns] != sc.epoch {
			sc.inNext[ns] = sc.epoch
			sc.lat[ns] = lat
			sc.locIdx[ns] = loc
			if withParents {
				sc.parent[ns] = cur
			}
			return append(next, ns)
		}
		if lat < sc.lat[ns] {
			sc.lat[ns] = lat
			sc.locIdx[ns] = loc
			if withParents {
				sc.parent[ns] = cur
			}
		}
		return next
	}

	slotted := func(slot0 int32, k int) int32 {
		if slot0 < 0 {
			return -1
		}
		return slot0 + int32(k)
	}

	switch ph {
	case phaseUp:
		row, slot0 := d.providersRow(asIdx)
		for k, p := range row {
			next = visit(p, phaseUp, slotted(slot0, k))
		}
		row, slot0 = d.peersRow(asIdx)
		for k, p := range row {
			next = visit(p, phasePeer, slotted(slot0, k))
		}
		row, slot0 = d.customersRow(asIdx)
		for k, c := range row {
			next = visit(c, phaseDown, slotted(slot0, k))
		}
	default: // phasePeer, phaseDown: only customer edges remain
		row, slot0 := d.customersRow(asIdx)
		for k, c := range row {
			next = visit(c, phaseDown, slotted(slot0, k))
		}
	}
	return next
}

// startState seeds the traversal buffers with the source state and
// returns it.
func (d *denseTopo) startState(sc *scratch, srcIdx int32) int32 {
	start := srcIdx*numPhases + int32(phaseUp)
	sc.settled[start] = sc.epoch
	sc.lat[start] = 0
	sc.locIdx[start] = -1
	if d.hasLoc[srcIdx] {
		sc.locIdx[start] = srcIdx
	}
	return start
}

// buildTree runs one valley-free BFS from srcIdx, level by level,
// recording for every AS the fewest-hop arrival and — among equal-hop
// arrivals — the minimum accumulated latency, matching BGP's
// shortest-path-first with latency-aware tie-breaking. The result is
// indexed by dense AS index.
func (d *denseTopo) buildTree(srcIdx int32) []treeEntry {
	if m := met.Load(); m != nil {
		m.treeBFS.Inc()
	}
	n := len(d.asns)
	tree := make([]treeEntry, n)
	tree[srcIdx] = treeEntry{hops: 1}

	sc := getScratch(n * numPhases)
	defer putScratch(sc)
	frontier := append(sc.frontier[:0], d.startState(sc, srcIdx))
	next := sc.next[:0]
	hops := int32(1)
	for len(frontier) > 0 {
		hops++
		next = next[:0]
		for _, cur := range frontier {
			next = d.expand(sc, next, cur, false)
		}
		for _, ns := range next {
			sc.settled[ns] = sc.epoch
			e := &tree[ns/numPhases]
			if e.hops == 0 {
				*e = treeEntry{lat: sc.lat[ns], hops: hops}
			} else if e.hops == hops && sc.lat[ns] < e.lat {
				e.lat = sc.lat[ns]
			}
		}
		frontier, next = next, frontier
	}
	sc.frontier, sc.next = frontier, next // return grown buffers to the pool
	return tree
}

// bestPath re-runs the leveled BFS with parent pointers and reconstructs
// the fewest-hop, minimum-latency path from srcIdx to dstIdx.
func (d *denseTopo) bestPath(srcIdx, dstIdx int32) ([]bgp.ASN, bool) {
	if m := met.Load(); m != nil {
		m.pathBFS.Inc()
	}
	n := len(d.asns)
	sc := getScratch(n * numPhases)
	defer putScratch(sc)
	start := d.startState(sc, srcIdx)
	sc.parent[start] = -1
	frontier := append(sc.frontier[:0], start)
	next := sc.next[:0]
	best := int32(-1)
	for len(frontier) > 0 && best < 0 {
		next = next[:0]
		for _, cur := range frontier {
			next = d.expand(sc, next, cur, true)
		}
		for _, ns := range next {
			sc.settled[ns] = sc.epoch
			if ns/numPhases == dstIdx && (best < 0 || sc.lat[ns] < sc.lat[best]) {
				best = ns
			}
		}
		frontier, next = next, frontier
	}
	if best < 0 {
		sc.frontier, sc.next = frontier, next
		return nil, false
	}
	var rev []int32
	for s := best; s >= 0; s = sc.parent[s] {
		rev = append(rev, s/numPhases)
	}
	path := make([]bgp.ASN, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		path = append(path, d.asns[rev[i]])
	}
	sc.frontier, sc.next = frontier, next
	return path, true
}

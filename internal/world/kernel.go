package world

import (
	"fmt"
	"sort"
	"sync"

	"vzlens/internal/bgp"
	"vzlens/internal/geo"
	"vzlens/internal/months"
	"vzlens/internal/netsim"
)

// This file is the campaign kernel's topology layer. Building a month
// of topology from scratch costs a few thousand allocations (graph
// maps, sorted copies, the dense CSR), and the only thing that varies
// between months is Venezuela: CANTV's transit providers per the
// documented timeline and the size of its domestic customer cone.
// Campaigns therefore run off ONE statically assembled base
// (buildTopology with no CANTV providers and every eventual customer
// wired) plus an O(edits) overlay per distinct monthly signature — the
// (provider set, customer count) pair. A ten-year campaign sees ~20
// distinct signatures, and every month with the same signature shares
// one resolver. The signatures differ only in CANTV's links, so every
// signature resolver borrows the base resolver's tree for a source
// outside CANTV's customer cone (netsim's Resolver.Overlay): at Step 3
// a pass builds 113 such trees, 48 own trees for (signature, source)
// pairs inside the cone, and 39 more where a cone-hosted root replica
// might win, 200 in all where one per (signature, source) took 1,705.
// A catchment answer priced from a borrowed tree alone is the same for
// every signature, so the passes in flight memoize it per (site list,
// probe class) and every month reuses it; any other answer is the same
// for every month of one signature, so they memoize it per (signature
// resolver, site list, probe class). Probe classes carry dense ids,
// interned once per World, so the shared part of the memo is one
// pointer-free slot per class id per site list, read by index: at
// Step 3 a pass prices 17,807 catchments for 74,272 it reads. The
// trees and the memo live only while a baseline campaign pass runs: concurrent passes (the
// trace and CHAOS campaigns of a cold start) share them, and when the
// last pass in flight returns the memo goes and every kernel resolver
// drops its trees. Any later caller (the DNS plane, a direct month
// kernel) rebuilds the trees it needs on a miss, with the same bits.
//
// Exactness: the overlay's effective adjacency equals the fresh
// month's exactly — providers are added back verbatim, inactive
// customers removed — except that not-yet-active customer ASes still
// exist as fully isolated, located leaves. An isolated AS is never
// expanded by the valley-free BFS (it has no edges), never hosts an
// anycast site, and never originates a probe, so path trees, latencies
// and catchments over the real ASes are bit-identical. The same
// per-signature cell also holds the signature's faithful relationship
// graph (MonthTopology's), which ASRelArchive serves and scenario
// compiles check ASNs against; MonthTopology itself is uncached.

// kernelSig identifies a month's Venezuelan wiring: a bitmask of
// active CANTV providers over cantvTransitOrder plus the active
// customer count.
type kernelSig struct {
	prov uint32
	cust uint8
}

// cantvTransitOrder fixes a bit position per possible CANTV provider.
var cantvTransitOrder []bgp.ASN

func init() {
	for asn := range cantvTransits {
		cantvTransitOrder = append(cantvTransitOrder, asn)
	}
	sort.Slice(cantvTransitOrder, func(i, j int) bool {
		return cantvTransitOrder[i] < cantvTransitOrder[j]
	})
	if len(cantvTransitOrder) > 32 {
		panic("world: cantvTransits exceeds kernelSig's 32-bit provider mask")
	}
}

// kernelSigAt computes month m's signature.
func kernelSigAt(m months.Month) kernelSig {
	var sig kernelSig
	for i, asn := range cantvTransitOrder {
		for _, s := range cantvTransits[asn] {
			if s.active(m) {
				sig.prov |= 1 << i
				break
			}
		}
	}
	sig.cust = uint8(cantvCustomerCount(m))
	return sig
}

// kernelBaseTopology returns the static base, built once per World
// with its distance table interned (see kernelCities).
func (w *World) kernelBaseTopology() *netsim.Topology {
	return w.kernelBaseResolver().Topology()
}

// kernelBaseResolver returns the resolver over the static base, which
// lends its trees to every signature resolver. It is listed among the
// kernel resolvers, so its trees live only while a pass runs.
func (w *World) kernelBaseResolver() *netsim.Resolver {
	w.kernelBaseOnce.Do(func() {
		t := w.buildTopology(nil, maxCANTVCustomers)
		t.InternCities(w.kernelCities())
		w.kernelBase = netsim.NewResolver(t)
		w.kernelMu.Lock()
		w.kernelResolvers = append(w.kernelResolvers, w.kernelBase)
		w.kernelMu.Unlock()
	})
	return w.kernelBase
}

// kernelCities lists the cities the catchment loop measures from or
// to besides AS locations: every probe city, GPDNS site city and root
// instance city. Scenario-added sites and relocations outside this set
// fall back to direct computation.
func (w *World) kernelCities() []geo.City {
	var out []geo.City
	for _, p := range w.Fleet.All() {
		out = append(out, p.City)
	}
	for _, s := range gpdnsRollout {
		out = append(out, cityAt(s.iata))
	}
	for _, inst := range w.Roots.All() {
		out = append(out, inst.City)
	}
	return out
}

// kernelEditsAt compiles month m's Venezuelan wiring into overlay
// edits against the kernel base: add the active providers, remove the
// not-yet-active customers.
func kernelEditsAt(m months.Month) []netsim.Edit {
	provs := CANTVProvidersAt(m)
	active := cantvCustomerCount(m)
	edits := make([]netsim.Edit, 0, len(provs)+maxCANTVCustomers-active)
	for _, p := range provs {
		edits = append(edits, netsim.Edit{Op: netsim.EditAddLink, A: p, B: ASCANTV, Kind: bgp.ProviderCustomer})
	}
	for i := active; i < maxCANTVCustomers; i++ {
		edits = append(edits, netsim.Edit{Op: netsim.EditRemoveLink, A: ASCANTV, B: cantvCustomerASN(i), Kind: bgp.ProviderCustomer})
	}
	return edits
}

// sigCell is one wiring signature's memo: the campaign resolver (the
// kernel base under the signature's overlay) and the faithful
// relationship graph. Each fills under its own once, outside kernelMu.
type sigCell struct {
	once      sync.Once
	r         *netsim.Resolver
	graphOnce sync.Once
	g         *bgp.Graph
}

// sigCellAt returns month m's signature cell, creating it empty.
func (w *World) sigCellAt(m months.Month) *sigCell {
	sig := kernelSigAt(m)
	w.kernelMu.Lock()
	defer w.kernelMu.Unlock()
	if w.sigCells == nil {
		w.sigCells = map[kernelSig]*sigCell{}
	}
	cell, ok := w.sigCells[sig]
	if !ok {
		cell = &sigCell{}
		w.sigCells[sig] = cell
	}
	return cell
}

// kernelTopologyAt returns the campaign resolver for month m: the
// kernel base under the month's signature overlay, interned per
// signature so same-wiring months share path trees. It borrows the
// base's tree for every source outside CANTV's customer cone.
func (w *World) kernelTopologyAt(m months.Month) *netsim.Resolver {
	cell := w.sigCellAt(m)
	cell.once.Do(func() {
		r, err := w.kernelBaseResolver().Overlay(kernelEditsAt(m))
		if err != nil {
			// Impossible by construction: every provider is a located
			// tier-1 of the base and every removed customer edge exists.
			panic(fmt.Sprintf("world: kernel overlay %s: %v", m, err))
		}
		cell.r = r
		w.kernelMu.Lock()
		w.kernelResolvers = append(w.kernelResolvers, cell.r)
		w.kernelMu.Unlock()
	})
	return cell.r
}

// relGraphAt returns month m's faithful relationship graph, one per
// signature.
func (w *World) relGraphAt(m months.Month) *bgp.Graph {
	cell := w.sigCellAt(m)
	cell.graphOnce.Do(func() { cell.g = w.MonthTopology(m).Graph() })
	return cell.g
}

// beginBaselinePass counts a baseline campaign pass in flight; pair it
// with endBaselinePass. The first pass in flight opens the catchment
// memo the passes share.
func (w *World) beginBaselinePass() {
	w.kernelMu.Lock()
	w.kernelPasses++
	if w.kernelPasses == 1 {
		w.catchMemo = &catchMemo{lists: map[listKey][]catchSlot{}, own: map[ownKey][]int32{}}
	}
	w.kernelMu.Unlock()
}

// endBaselinePass ends a pass begun by beginBaselinePass. The last pass
// in flight drops every kernel resolver's path trees and the catchment
// memo; the count and the drop share kernelMu, so a pass that begins
// meanwhile never loses the trees it is building.
func (w *World) endBaselinePass() {
	w.kernelMu.Lock()
	defer w.kernelMu.Unlock()
	w.kernelPasses--
	if w.kernelPasses > 0 {
		return
	}
	for _, r := range w.kernelResolvers {
		r.ReleaseTrees()
	}
	w.catchMemo = nil
}

// catchMemo holds, for the baseline passes in flight, every catchment
// answer they price. An answer netsim flags Shared depends on the site
// list, the probe class and the signature resolver's share key alone,
// so every month of every wiring with that key reuses it: lists holds
// one slot per class id for each (share key, site list). Any other
// answer depends on the resolver too; own indexes, per (resolver, site
// list) and by class id, the slot that holds it. Each answer is priced
// once even when months race for it, so a pass's catchment count
// repeats run to run.
type catchMemo struct {
	mu     sync.Mutex
	lists  map[listKey][]catchSlot
	own    map[ownKey][]int32 // by class id: 1 + the index of the class's unshared slot, 0 for none
	chunks [][]catchSlot      // the unshared slots, ownChunk to a chunk, so none ever moves
	nown   int32              // unshared slots made
}

// ownChunk is the number of unshared slots allocated at a time; a Step-3
// pass makes ~4,100.
const ownChunk = 256

type listKey struct {
	share uint64
	list  *netsim.SiteList
}

type ownKey struct {
	r    *netsim.Resolver
	list *netsim.SiteList
}

// ownSlot returns class c's slot in own, one (resolver, site list)'s
// index, creating it unpriced.
func (m *catchMemo) ownSlot(own []int32, c int32) *catchSlot {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := own[c] - 1
	if i < 0 {
		if int(m.nown) == len(m.chunks)*ownChunk {
			m.chunks = append(m.chunks, make([]catchSlot, ownChunk))
		}
		i = m.nown
		m.nown++
		own[c] = i + 1
	}
	return &m.chunks[i/ownChunk][i%ownChunk]
}

// catchSlot is one memoized catchment answer, in 32 bytes. It holds no
// pointer, so a slab of slots costs the collector nothing to scan.
type catchSlot struct {
	once    sync.Once
	index   int32
	latency float64
	hops    int32
	shared  bool
	failed  bool // CatchmentInfo's only error, netsim.ErrUnreachable
}

// set stores a CatchmentInfo answer.
func (s *catchSlot) set(c netsim.Catchment, err error) {
	s.index, s.latency, s.hops, s.shared, s.failed = int32(c.Index), c.Latency, int32(c.Hops), c.Shared, err != nil
}

// get returns the stored answer as CatchmentInfo gave it.
func (s *catchSlot) get() (netsim.Catchment, error) {
	c := netsim.Catchment{Index: int(s.index), Latency: s.latency, Hops: int(s.hops), Shared: s.shared}
	if s.failed {
		return c, netsim.ErrUnreachable
	}
	return c, nil
}

// listMemo is the pass memo as one month's catchment loop over one
// site list on one resolver reads it; the zero value memoizes nothing.
type listMemo struct {
	memo  *catchMemo
	slots []catchSlot // by class id: the list's shared answers under the resolver's share key
	own   []int32     // the resolver's unshared answers over the list (see catchMemo.own)
}

// listMemoFor returns the catchment memo of the baseline passes in
// flight for list on r, or the zero listMemo when no pass runs, plan is
// not nil or r shares nothing. The lookup runs once per month and
// list; shared answers then read by class id, without a lock or a map.
func (w *World) listMemoFor(r *netsim.Resolver, plan *ScenarioPlan, list *netsim.SiteList) listMemo {
	if plan != nil {
		return listMemo{}
	}
	w.kernelMu.Lock()
	memo := w.catchMemo
	w.kernelMu.Unlock()
	if memo == nil {
		return listMemo{}
	}
	share := r.ShareKey()
	if share == 0 {
		return listMemo{}
	}
	keys, _ := w.probeClasses()
	memo.mu.Lock()
	defer memo.mu.Unlock()
	slots, ok := memo.lists[listKey{share: share, list: list}]
	if !ok {
		slots = make([]catchSlot, len(keys))
		memo.lists[listKey{share: share, list: list}] = slots
	}
	own, ok := memo.own[ownKey{r: r, list: list}]
	if !ok {
		own = make([]int32, len(keys))
		memo.own[ownKey{r: r, list: list}] = own
	}
	return listMemo{memo: memo, slots: slots, own: own}
}

// catchment prices class c against list on resolver r, through lm
// when it memoizes. The pricing that fills a class's shared slot also
// seeds r's own slot when the answer is not shared, inside the slot's
// once, so no caller on r prices it again and the count stays exact.
func (w *World) catchment(lm listMemo, r *netsim.Resolver, c int32, list *netsim.SiteList) (netsim.Catchment, error) {
	k := &w.classKeys[c]
	if lm.slots == nil {
		return r.CatchmentInfo(k.asn, k.city, k.country, list, w.Config.Policy)
	}
	s := &lm.slots[c]
	s.once.Do(func() {
		s.set(r.CatchmentInfo(k.asn, k.city, k.country, list, w.Config.Policy))
		if !s.shared {
			own := lm.memo.ownSlot(lm.own, c)
			own.once.Do(func() { own.set(s.get()) })
		}
	})
	if s.shared {
		return s.get()
	}
	own := lm.memo.ownSlot(lm.own, c)
	own.once.Do(func() { own.set(r.CatchmentInfo(k.asn, k.city, k.country, list, w.Config.Policy)) })
	return own.get()
}

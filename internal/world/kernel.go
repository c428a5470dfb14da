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
// probe class) and every month reuses it. The trees and the memo live
// only while a baseline campaign pass runs: concurrent passes (the
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
		w.catchMemo = &catchMemo{lists: map[listKey]*listMemo{}}
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

// listMemoFor returns the catchment memo of the baseline passes in
// flight for list on r, sized for classes probe classes, or nil when no
// pass runs, plan is not nil or r shares nothing.
func (w *World) listMemoFor(r *netsim.Resolver, plan *ScenarioPlan, list *netsim.SiteList, classes int) *listMemo {
	if plan != nil {
		return nil
	}
	w.kernelMu.Lock()
	memo := w.catchMemo
	w.kernelMu.Unlock()
	if memo == nil {
		return nil
	}
	share := r.ShareKey()
	if share == 0 {
		return nil
	}
	key := listKey{share: share, list: list}
	memo.mu.Lock()
	defer memo.mu.Unlock()
	lm, ok := memo.lists[key]
	if !ok {
		lm = &listMemo{m: make(map[*probeClassKey]*catchEntry, classes), chunk: classes}
		memo.lists[key] = lm
	}
	return lm
}

// catchMemo holds, for the baseline passes in flight, every catchment
// answer netsim flags Shared: it depends on the site list, the probe
// class and the signature resolver's share key alone, so every month
// of every wiring with that key reuses it. Site lists and class keys
// are interned per world, so pointers key it. Each answer is priced
// once even when months race for it, so a pass's catchment count
// repeats.
type catchMemo struct {
	mu    sync.Mutex
	lists map[listKey]*listMemo
}

type listKey struct {
	share uint64
	list  *netsim.SiteList
}

// listMemo is one site list's part of the memo, by probe class.
type listMemo struct {
	mu    sync.Mutex
	m     map[*probeClassKey]*catchEntry
	slab  []catchEntry // backs m; entries never move, so a full slab is left, not grown
	chunk int          // entries in the next slab: the first month's classes, then a few
}

type catchEntry struct {
	once sync.Once
	c    netsim.Catchment
	err  error
}

// entry returns class k's entry, creating it unpriced.
func (lm *listMemo) entry(k *probeClassKey) *catchEntry {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	e, ok := lm.m[k]
	if !ok {
		if len(lm.slab) == cap(lm.slab) {
			// Later months add a few classes each.
			lm.slab, lm.chunk = make([]catchEntry, 0, max(lm.chunk, 16)), 16
		}
		lm.slab = lm.slab[:len(lm.slab)+1]
		e = &lm.slab[len(lm.slab)-1]
		lm.m[k] = e
	}
	return e
}

// catchment prices class k against list on resolver r, through lm
// when it is not nil. An answer that is not shared is priced again by
// every later caller.
func (w *World) catchment(lm *listMemo, r *netsim.Resolver, k *probeClassKey, list *netsim.SiteList) (netsim.Catchment, error) {
	if lm == nil {
		return r.CatchmentInfo(k.asn, k.city, k.country, list, w.Config.Policy)
	}
	e := lm.entry(k)
	priced := false
	e.once.Do(func() {
		e.c, e.err = r.CatchmentInfo(k.asn, k.city, k.country, list, w.Config.Policy)
		priced = true
	})
	if priced || e.c.Shared {
		return e.c, e.err
	}
	return r.CatchmentInfo(k.asn, k.city, k.country, list, w.Config.Policy)
}

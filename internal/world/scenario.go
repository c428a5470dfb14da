package world

import (
	"fmt"
	"sync"

	"vzlens/internal/bgp"
	"vzlens/internal/dnsroot"
	"vzlens/internal/geo"
	"vzlens/internal/months"
	"vzlens/internal/netsim"
)

// This file is the world half of the counterfactual scenario engine:
// a compiled ScenarioPlan describes windowed, declarative changes to
// the monthly topology and the anycast deployments, and the campaign
// runs (campaign.go, windowed.go) replay the paper's measurements under
// them. Per month the plan compiles to a netsim overlay — a
// copy-on-write view over the month's kernel topology, memoized per
// wiring signature — so a scenario run shares every baseline resolver's
// base arrays and pays only O(edits) per month on top. Scenario runs use
// the same per-probe-month RNG streams as the baseline (sampleSeed is
// scenario-blind), so an RTT delta between baseline and scenario
// isolates the topology change: the jitter draws cancel exactly.

// ScenarioLink is one windowed link edit: the relationship A→B exists
// (for additions) or is suppressed (for removals) during [From, Until).
// A zero From means from the beginning; a zero Until means forever.
type ScenarioLink struct {
	A, B        bgp.ASN // provider (or first peer), second endpoint
	Kind        bgp.RelKind
	From, Until months.Month
}

// ScenarioDepeer strips every provider and peer edge of ASN during its
// window — the conflict-driven disconnection counterfactual. Customer
// edges survive: the AS keeps its cone, it just loses its upstreams.
type ScenarioDepeer struct {
	ASN         bgp.ASN
	From, Until months.Month
}

// ScenarioMove relocates an AS's interconnection city during its
// window.
type ScenarioMove struct {
	ASN         bgp.ASN
	City        geo.City
	From, Until months.Month
}

// ScenarioGPDNSSite adds (or, with Remove, suppresses) a Google Public
// DNS anycast site during its window. For additions Host is the AS
// announcing the prefix at City; for removals any baseline site in
// City is dropped.
type ScenarioGPDNSSite struct {
	Remove      bool
	Host        bgp.ASN
	City        geo.City
	From, Until months.Month
}

// ScenarioRootReplica adds (or suppresses) a root-server instance of
// Letter at City during its window, hosted by Host when adding.
type ScenarioRootReplica struct {
	Remove      bool
	Letter      dnsroot.Letter
	Host        bgp.ASN
	City        geo.City
	From, Until months.Month
}

// ScenarioPlan is a compiled, validated scenario: the form the world
// executes. Plans are built by internal/scenario's Compile (or by
// hand in tests); the world trusts them structurally but still skips
// edits that are no-ops in a given month (a removal of a link the
// month doesn't have, an addition that already exists), because AS and
// link presence is month-dependent.
//
// A plan memoizes its own per-month overlay resolvers (see
// topologyFor), so they and their path trees live exactly as long as
// the plan: a scenario run's compiled plan takes them along when the
// run returns, and the DNS plane's installed plan when it is swapped
// out. Plans are used by pointer and never copied.
type ScenarioPlan struct {
	// Key identifies the plan for persistence and for coalescing runs
	// of the same spec.
	Key string

	AddLinks    []ScenarioLink
	RemoveLinks []ScenarioLink
	Depeers     []ScenarioDepeer
	Moves       []ScenarioMove
	GPDNS       []ScenarioGPDNSSite
	Roots       []ScenarioRootReplica

	// EventShiftMonths time-shifts CANTV's documented transit timeline:
	// at month m the scenario uses the providers the baseline had at
	// m−EventShiftMonths. Positive delays the paper's events, negative
	// advances them.
	EventShiftMonths int

	memo planMemo
}

// topoCell is a once-cell for one month's resolver.
type topoCell struct {
	once sync.Once
	r    *netsim.Resolver
}

// planMemo holds a plan's overlay resolver cells by month. It is bound
// to the World that first fills it: the overlays stack on that World's
// kernel cells, so another World gets unmemoized resolvers of its own.
type planMemo struct {
	mu    sync.Mutex
	w     *World
	cells map[months.Month]*topoCell
}

// cell returns w's resolver cell for month m, creating it empty. The
// map is lock-protected; each cell builds its resolver exactly once,
// outside the lock, as the World's own cells do.
func (p *planMemo) cell(w *World, m months.Month) *topoCell {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.w == nil {
		p.w = w
		p.cells = map[months.Month]*topoCell{}
	}
	if p.w != w {
		return &topoCell{}
	}
	c, ok := p.cells[m]
	if !ok {
		c = &topoCell{}
		p.cells[m] = c
	}
	return c
}

// windowActive reports whether [from, until) covers m.
func windowActive(from, until, m months.Month) bool {
	if !from.IsZero() && m.Before(from) {
		return false
	}
	return until.IsZero() || m.Before(until)
}

// editsAt compiles the plan's topology changes for month m into
// overlay edits against base (month m's baseline topology).
// Edits that cannot apply this month — an endpoint that doesn't exist
// yet, a removal of a link the month doesn't carry — are skipped, so
// the returned list always builds a valid overlay.
func (p *ScenarioPlan) editsAt(m months.Month, base *netsim.Topology) []netsim.Edit {
	var edits []netsim.Edit
	seen := map[netsim.Edit]bool{} // guard against overlapping plan entries
	add := func(e netsim.Edit) {
		if !seen[e] {
			seen[e] = true
			edits = append(edits, e)
		}
	}
	// Peer links are undirected, so canonicalize their endpoint order:
	// a depeer walking Peers(b) emits (b, a) while an explicit op may
	// say (a, b), and both must dedupe to one edit — two removals (or
	// additions) of the same link would invalidate the whole overlay.
	canon := func(a, b bgp.ASN, kind bgp.RelKind) (bgp.ASN, bgp.ASN) {
		if kind == bgp.PeerPeer && b < a {
			return b, a
		}
		return a, b
	}
	addLink := func(a, b bgp.ASN, kind bgp.RelKind) {
		a, b = canon(a, b, kind)
		if base.HasAS(a) && base.HasAS(b) && !base.HasLink(a, b, kind) {
			add(netsim.Edit{Op: netsim.EditAddLink, A: a, B: b, Kind: kind})
		}
	}
	removeLink := func(a, b bgp.ASN, kind bgp.RelKind) {
		a, b = canon(a, b, kind)
		if base.HasAS(a) && base.HasAS(b) && base.HasLink(a, b, kind) {
			add(netsim.Edit{Op: netsim.EditRemoveLink, A: a, B: b, Kind: kind})
		}
	}

	if s := p.EventShiftMonths; s != 0 {
		want := CANTVProvidersAt(m.Add(-s))
		have := CANTVProvidersAt(m)
		for _, asn := range want {
			if !hasASN(have, asn) {
				addLink(asn, ASCANTV, bgp.ProviderCustomer)
			}
		}
		for _, asn := range have {
			if !hasASN(want, asn) {
				removeLink(asn, ASCANTV, bgp.ProviderCustomer)
			}
		}
	}
	for _, l := range p.AddLinks {
		if windowActive(l.From, l.Until, m) {
			addLink(l.A, l.B, l.Kind)
		}
	}
	for _, l := range p.RemoveLinks {
		if windowActive(l.From, l.Until, m) {
			removeLink(l.A, l.B, l.Kind)
		}
	}
	for _, d := range p.Depeers {
		if !windowActive(d.From, d.Until, m) || !base.HasAS(d.ASN) {
			continue
		}
		// Walk the view's effective adjacency, not Graph()'s: when base
		// is itself an overlay (the campaign kernel's monthly cells),
		// the raw graph misses the month's own link edits.
		for _, prov := range base.ProvidersOf(d.ASN) {
			removeLink(prov, d.ASN, bgp.ProviderCustomer)
		}
		for _, peer := range base.PeersOf(d.ASN) {
			removeLink(d.ASN, peer, bgp.PeerPeer)
		}
	}
	for _, mv := range p.Moves {
		if windowActive(mv.From, mv.Until, m) && base.HasAS(mv.ASN) {
			add(netsim.Edit{Op: netsim.EditRelocate, A: mv.ASN, City: mv.City})
		}
	}
	return edits
}

func hasASN(xs []bgp.ASN, a bgp.ASN) bool {
	for _, x := range xs {
		if x == a {
			return true
		}
	}
	return false
}

// topologyFor returns the resolver for month m under plan; a nil plan
// is the baseline, served from the campaign kernel's per-signature
// cells (bit-identical to MonthTopology for every campaign observable
// — see kernel.go). Scenario resolvers are memoized per month on the
// plan itself, because a run's trace and chaos replays — and every DNS
// answer under an installed plan — visit the same months. The overlay
// stacks on the kernel's signature cell, so a scenario month shares the
// signature resolver's base arrays and pays only O(edits) on top; an
// invalid compiled edit list is a programming error and panics (the
// serving layer converts campaign panics into retryable errors).
func (w *World) topologyFor(m months.Month, plan *ScenarioPlan) *netsim.Resolver {
	if plan == nil {
		return w.kernelTopologyAt(m)
	}
	cell := plan.memo.cell(w, m)
	cell.once.Do(func() {
		base := w.kernelTopologyAt(m).Topology()
		ov, err := base.Overlay(plan.editsAt(m, base))
		if err != nil {
			panic(fmt.Sprintf("world: scenario %q month %s: %v", plan.Key, m, err))
		}
		cell.r = netsim.NewResolver(ov)
	})
	return cell.r
}

// gpdnsSitesFor is GPDNSSitesAt under a plan: suppressed sites are
// filtered by city, added sites appended (sorted placement keeps the
// list deterministic — added sites go last, in plan order).
func (w *World) gpdnsSitesFor(m months.Month, plan *ScenarioPlan) []netsim.Site {
	sites := w.GPDNSSitesAt(m)
	if plan == nil {
		return sites
	}
	return applySiteChanges(sites, m, plan.GPDNS)
}

// applySiteChanges applies windowed GPDNS site edits to a baseline
// site list.
func applySiteChanges(sites []netsim.Site, m months.Month, changes []ScenarioGPDNSSite) []netsim.Site {
	out := sites
	for _, ch := range changes {
		if !windowActive(ch.From, ch.Until, m) {
			continue
		}
		if ch.Remove {
			kept := make([]netsim.Site, 0, len(out))
			for _, s := range out {
				if s.City.Name != ch.City.Name || s.City.Country != ch.City.Country {
					kept = append(kept, s)
				}
			}
			out = kept
			continue
		}
		out = append(append([]netsim.Site(nil), out...), netsim.Site{Host: ch.Host, City: ch.City})
	}
	return out
}

// rootSitesFor is RootSitesAt under a plan. Added replicas become
// synthetic dnsroot instances (Index 9 within their city, active over
// the change window) so the CHAOS sweep names them like real ones;
// suppressed replicas are filtered by letter and city.
func (w *World) rootSitesFor(letter dnsroot.Letter, m months.Month, plan *ScenarioPlan) ([]netsim.Site, []dnsroot.Instance) {
	sites, insts := w.RootSitesAt(letter, m)
	if plan == nil {
		return sites, insts
	}
	for _, ch := range plan.Roots {
		if ch.Letter != letter || !windowActive(ch.From, ch.Until, m) {
			continue
		}
		if ch.Remove {
			keptSites := sites[:0:0]
			keptInsts := insts[:0:0]
			for i, s := range sites {
				if insts[i].City.Name == ch.City.Name && insts[i].City.Country == ch.City.Country {
					continue
				}
				keptSites = append(keptSites, s)
				keptInsts = append(keptInsts, insts[i])
			}
			sites, insts = keptSites, keptInsts
			continue
		}
		sites = append(append([]netsim.Site(nil), sites...), netsim.Site{Host: ch.Host, City: ch.City})
		insts = append(append([]dnsroot.Instance(nil), insts...), dnsroot.Instance{
			Letter: ch.Letter, City: ch.City, Index: 9, Start: ch.From, End: ch.Until,
		})
	}
	return sites, insts
}

package netsim

import (
	"fmt"
	"sort"

	"vzlens/internal/bgp"
	"vzlens/internal/geo"
)

// This file implements counterfactual overlays: cheap copy-on-write
// views over a base Topology that add or remove individual links and
// relocate ASes without rebuilding — or even touching — the base. An
// overlay shares the base's graph, location table, and dense CSR
// arrays; only the rows an edit touches are materialized, so building
// one costs O(edits) allocations regardless of topology size. Overlays
// are the substrate of the scenario engine: "what if CANTV had kept
// its upstreams?" is one overlay per monthly snapshot, not one graph
// rebuild per month.

// EditOp enumerates the overlay edit kinds.
type EditOp uint8

const (
	// EditAddLink inserts a relationship edge A→B (provider→customer
	// for bgp.ProviderCustomer, symmetric for bgp.PeerPeer). The link
	// must not already exist.
	EditAddLink EditOp = iota
	// EditRemoveLink deletes an existing relationship edge A→B.
	EditRemoveLink
	// EditRelocate moves AS A to City. At most one relocation per AS
	// per overlay.
	EditRelocate
)

// String names the op for error messages.
func (op EditOp) String() string {
	switch op {
	case EditAddLink:
		return "add-link"
	case EditRemoveLink:
		return "remove-link"
	case EditRelocate:
		return "relocate"
	}
	return fmt.Sprintf("edit(%d)", uint8(op))
}

// Edit is one declarative overlay edit.
type Edit struct {
	Op   EditOp
	A, B bgp.ASN     // link endpoints; A is the provider for ProviderCustomer
	Kind bgp.RelKind // link kind for EditAddLink / EditRemoveLink
	City geo.City    // target city for EditRelocate
}

// String renders the edit for error messages.
func (e Edit) String() string {
	switch e.Op {
	case EditRelocate:
		return fmt.Sprintf("relocate AS%d to %s", e.A, e.City.Name)
	default:
		rel := "p2c"
		if e.Kind == bgp.PeerPeer {
			rel = "p2p"
		}
		return fmt.Sprintf("%s AS%d-AS%d (%s)", e.Op, e.A, e.B, rel)
	}
}

// adjDelta is the copy-on-write adjacency delta for one direction
// (providers-of, customers-of, or peers-of): neighbors added to and
// removed from the base lists, per AS. Lists stay sorted and disjoint.
type adjDelta struct {
	add map[bgp.ASN][]bgp.ASN
	rem map[bgp.ASN][]bgp.ASN
}

func newAdjDelta() adjDelta {
	return adjDelta{add: map[bgp.ASN][]bgp.ASN{}, rem: map[bgp.ASN][]bgp.ASN{}}
}

// insert adds b to the delta for a: a pending removal is cancelled,
// otherwise b joins the sorted add list.
func (d adjDelta) insert(a, b bgp.ASN) {
	if removeSorted(d.rem, a, b) {
		return
	}
	d.add[a] = insertSorted(d.add[a], b)
}

// drop removes b from the delta for a: a pending addition is
// cancelled, otherwise b joins the sorted removal list.
func (d adjDelta) drop(a, b bgp.ASN) {
	if removeSorted(d.add, a, b) {
		return
	}
	d.rem[a] = insertSorted(d.rem[a], b)
}

// merged applies the delta for a to the (sorted) base neighbor list.
// With an empty delta the base list is returned as-is.
func (d adjDelta) merged(a bgp.ASN, base []bgp.ASN) []bgp.ASN {
	add, rem := d.add[a], d.rem[a]
	if len(add) == 0 && len(rem) == 0 {
		return base
	}
	out := make([]bgp.ASN, 0, len(base)+len(add))
	for _, x := range base {
		if !hasASN(rem, x) {
			out = append(out, x)
		}
	}
	for _, x := range add {
		out = insertSorted(out, x)
	}
	return out
}

func hasASN(xs []bgp.ASN, a bgp.ASN) bool {
	for _, x := range xs {
		if x == a {
			return true
		}
	}
	return false
}

func insertSorted(xs []bgp.ASN, a bgp.ASN) []bgp.ASN {
	i := sort.Search(len(xs), func(i int) bool { return xs[i] >= a })
	if i < len(xs) && xs[i] == a {
		return xs
	}
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = a
	return xs
}

// removeSorted deletes b from m[a], reporting whether it was present.
func removeSorted(m map[bgp.ASN][]bgp.ASN, a, b bgp.ASN) bool {
	xs := m[a]
	i := sort.Search(len(xs), func(i int) bool { return xs[i] >= b })
	if i >= len(xs) || xs[i] != b {
		return false
	}
	m[a] = append(xs[:i], xs[i+1:]...)
	if len(m[a]) == 0 {
		delete(m, a)
	}
	return true
}

// Overlay returns a copy-on-write view of t with edits applied. The
// base is never modified and stays usable; the view shares its graph,
// location table, and dense arrays. Edits are strict so that overlays
// compose and invert cleanly: adding a link that already exists,
// removing one that doesn't, referencing an AS the base has never
// seen, or relocating the same AS twice is an error. Overlays are
// immutable (AddLink and Locate panic) but can themselves be overlaid;
// mutating the base afterwards invalidates every derived dense view
// through the generation counter.
func (t *Topology) Overlay(edits []Edit) (*Topology, error) {
	o := &Topology{
		base:        t,
		prov:        newAdjDelta(),
		cust:        newAdjDelta(),
		peer:        newAdjDelta(),
		locOverride: map[bgp.ASN]geo.City{},
	}
	for _, e := range edits {
		if err := o.applyEdit(e); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// applyEdit validates e against the current view (base plus earlier
// edits) and folds it into the deltas.
func (o *Topology) applyEdit(e Edit) error {
	switch e.Op {
	case EditAddLink, EditRemoveLink:
		if e.Kind != bgp.ProviderCustomer && e.Kind != bgp.PeerPeer {
			return fmt.Errorf("netsim: %s: unknown relationship kind %d", e, e.Kind)
		}
		if e.A == e.B {
			return fmt.Errorf("netsim: %s: self-loop", e)
		}
		for _, asn := range []bgp.ASN{e.A, e.B} {
			if !o.HasAS(asn) {
				return fmt.Errorf("netsim: %s: AS%d not in topology", e, asn)
			}
		}
		if e.Op == EditAddLink {
			if o.HasLink(e.A, e.B, e.Kind) {
				return fmt.Errorf("netsim: %s: link already present", e)
			}
			o.addRel(e.A, e.B, e.Kind)
			return nil
		}
		if !o.HasLink(e.A, e.B, e.Kind) {
			return fmt.Errorf("netsim: %s: link not present", e)
		}
		o.removeRel(e.A, e.B, e.Kind)
		return nil
	case EditRelocate:
		if !o.HasAS(e.A) {
			return fmt.Errorf("netsim: %s: AS%d not in topology", e, e.A)
		}
		if _, dup := o.locOverride[e.A]; dup {
			return fmt.Errorf("netsim: %s: AS%d already relocated in this overlay", e, e.A)
		}
		o.locOverride[e.A] = e.City
		return nil
	default:
		return fmt.Errorf("netsim: unknown edit op %v", e.Op)
	}
}

func (o *Topology) addRel(a, b bgp.ASN, kind bgp.RelKind) {
	if kind == bgp.ProviderCustomer {
		o.cust.insert(a, b)
		o.prov.insert(b, a)
		return
	}
	o.peer.insert(a, b)
	o.peer.insert(b, a)
}

func (o *Topology) removeRel(a, b bgp.ASN, kind bgp.RelKind) {
	if kind == bgp.ProviderCustomer {
		o.cust.drop(a, b)
		o.prov.drop(b, a)
		return
	}
	o.peer.drop(a, b)
	o.peer.drop(b, a)
}

// providersOf returns the effective sorted provider list of asn in
// this view (base topologies read the graph directly).
func (t *Topology) providersOf(asn bgp.ASN) []bgp.ASN {
	if t.base == nil {
		return t.graph.Providers(asn)
	}
	return t.prov.merged(asn, t.base.providersOf(asn))
}

// customersOf is providersOf for the customer direction.
func (t *Topology) customersOf(asn bgp.ASN) []bgp.ASN {
	if t.base == nil {
		return t.graph.Customers(asn)
	}
	return t.cust.merged(asn, t.base.customersOf(asn))
}

// peersOf is providersOf for peer edges.
func (t *Topology) peersOf(asn bgp.ASN) []bgp.ASN {
	if t.base == nil {
		return t.graph.Peers(asn)
	}
	return t.peer.merged(asn, t.base.peersOf(asn))
}

// ProvidersOf returns the effective sorted provider list of asn in
// this view, overlay edits included. Unlike Graph().Providers — which
// reads the base graph and therefore misses edits — this answers for
// the view itself; scenario compilation walks it when stripping an
// AS's upstreams. The returned slice may share storage with internal
// state and must not be modified.
func (t *Topology) ProvidersOf(asn bgp.ASN) []bgp.ASN { return t.providersOf(asn) }

// CustomersOf is ProvidersOf for the customer direction.
func (t *Topology) CustomersOf(asn bgp.ASN) []bgp.ASN { return t.customersOf(asn) }

// PeersOf is ProvidersOf for peer edges.
func (t *Topology) PeersOf(asn bgp.ASN) []bgp.ASN { return t.peersOf(asn) }

// HasAS reports whether asn exists in the topology (it appears in the
// relationship graph or carries a location). Overlays never introduce
// new ASes, so the answer is the base's.
func (t *Topology) HasAS(asn bgp.ASN) bool {
	if t.base != nil {
		return t.base.HasAS(asn)
	}
	_, ok := t.dense().index[asn]
	return ok
}

// HasLink reports whether the relationship edge a→b (provider→customer
// or peer) exists in this view, overlay edits included.
func (t *Topology) HasLink(a, b bgp.ASN, kind bgp.RelKind) bool {
	if kind == bgp.PeerPeer {
		return hasASN(t.peersOf(a), b)
	}
	return hasASN(t.customersOf(a), b)
}

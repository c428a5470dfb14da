package world

import (
	"math"
	"reflect"
	"testing"
	"time"

	"vzlens/internal/bgp"
	"vzlens/internal/dnsroot"
	"vzlens/internal/geo"
	"vzlens/internal/months"
	"vzlens/internal/netsim"
)

// refPathTree is a map-based valley-free BFS over the topology's
// public adjacency: the same leveled traversal as the resolver's dense
// one (neighbors in ASN order, the minimum-latency arrival per state
// within a level, the fewest-hop then minimum-latency arrival per AS),
// so its PathInfo values must match the resolver's bit for bit.
func refPathTree(top *netsim.Topology, src bgp.ASN) map[bgp.ASN]netsim.PathInfo {
	const perHopMs = 0.35
	type state struct {
		asn bgp.ASN
		ph  int8 // 0 up, 1 across a peer edge, 2 down
	}
	type arrival struct {
		lat    float64
		loc    bgp.ASN // last located AS on the path
		hasLoc bool
	}
	tree := map[bgp.ASN]netsim.PathInfo{src: {Hops: 1, OK: true}}
	settled := map[state]bool{{src, 0}: true}
	at := map[state]arrival{}
	start := arrival{}
	if _, ok := top.Location(src); ok {
		start = arrival{loc: src, hasLoc: true}
	}
	at[state{src, 0}] = start
	frontier := []state{{src, 0}}
	for hops := 2; len(frontier) > 0; hops++ {
		var next []state
		inNext := map[state]bool{}
		for _, cur := range frontier {
			a := at[cur]
			visit := func(nbr bgp.ASN, ph int8) {
				ns := state{nbr, ph}
				if settled[ns] {
					return
				}
				arr := arrival{lat: a.lat + perHopMs, loc: a.loc, hasLoc: a.hasLoc}
				if c, ok := top.Location(nbr); ok {
					if arr.hasLoc {
						l, _ := top.Location(arr.loc)
						arr.lat += geo.PropagationDelayMs(geo.HaversineKm(l.Lat, l.Lon, c.Lat, c.Lon))
					}
					arr.loc, arr.hasLoc = nbr, true
				}
				if !inNext[ns] {
					inNext[ns] = true
					at[ns] = arr
					next = append(next, ns)
				} else if arr.lat < at[ns].lat {
					at[ns] = arr
				}
			}
			if cur.ph == 0 {
				for _, p := range top.ProvidersOf(cur.asn) {
					visit(p, 0)
				}
				for _, p := range top.PeersOf(cur.asn) {
					visit(p, 1)
				}
			}
			for _, c := range top.CustomersOf(cur.asn) {
				visit(c, 2)
			}
		}
		for _, ns := range next {
			settled[ns] = true
			lat := at[ns].lat
			if info, ok := tree[ns.asn]; !ok {
				tree[ns.asn] = netsim.PathInfo{Hops: hops, LatencyMs: lat, OK: true}
			} else if info.Hops == hops && lat < info.LatencyMs {
				info.LatencyMs = lat
				tree[ns.asn] = info
			}
		}
		frontier = next
	}
	return tree
}

// checkKernelTrees compares every source's tree over top against
// refPathTree. A fresh resolver over the same topology (and so the
// same dense view) builds the trees, so the kernel's memo does not
// grow to every source of every signature.
func checkKernelTrees(t *testing.T, label string, top *netsim.Topology) {
	t.Helper()
	r := netsim.NewResolver(top)
	ases := top.Graph().ASes()
	for _, src := range ases {
		want := refPathTree(top, src)
		if got := r.Tree(src); len(got) != len(want) {
			t.Fatalf("%s: AS%d reaches %d ASes, reference %d", label, src, len(got), len(want))
		}
		for _, dst := range ases {
			got, w := r.PathInfoFrom(src, dst), want[dst]
			if got.OK != w.OK || got.Hops != w.Hops || math.Float64bits(got.LatencyMs) != math.Float64bits(w.LatencyMs) {
				t.Fatalf("%s: AS%d→AS%d: %+v, reference %+v", label, src, dst, got, w)
			}
		}
	}
}

// TestKernelPathTreesMatchReference checks the resolver's 16-byte tree
// entries on the topologies the campaigns run over: every source of
// every kernel signature in 1998–2025, and one scenario overlay (a
// depeer, a relocation and added sites) on top of a kernel month.
func TestKernelPathTreesMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("every source of every kernel signature")
	}
	w := mustBuild(Config{})
	seen := map[*netsim.Resolver]bool{}
	for m := mm(1998, time.January); !m.After(mm(2025, time.December)); m = m.Add(1) {
		r := w.kernelTopologyAt(m)
		if seen[r] {
			continue
		}
		seen[r] = true
		checkKernelTrees(t, "kernel "+m.String(), r.Topology())
	}
	if len(seen) < 2 {
		t.Fatalf("only %d kernel signatures in 1998–2025", len(seen))
	}
	m := mm(2020, time.January)
	checkKernelTrees(t, "scenario "+m.String(), w.topologyFor(m, kernelTestPlan(t)).Topology())
}

// TestMonthSnapshotsMatchReference pins the kernel's per-month views
// to the snapshots they replace, for every month of 1998–2025: the
// class factoring's probe ids are Fleet.ActiveAt's IDs in order, each
// probe's class key is its (Country, ASN, City), equal keys are one
// pointer across months, and the root lists a one-pass fill interns
// for all thirteen letters equal RootSitesAt.
func TestMonthSnapshotsMatchReference(t *testing.T) {
	w := mustBuild(Config{})
	keys := map[probeClassKey]*probeClassKey{}
	for m := mm(1998, time.January); !m.After(mm(2025, time.December)); m = m.Add(1) {
		mc := w.classesAt(m)
		probes := w.Fleet.ActiveAt(m)
		if len(mc.ids) != len(probes) || len(mc.classOf) != len(probes) {
			t.Fatalf("%s: %d ids, %d classOf, %d active probes", m, len(mc.ids), len(mc.classOf), len(probes))
		}
		for i, p := range probes {
			if int(mc.ids[i]) != p.ID {
				t.Fatalf("%s: probe %d: id %d, Fleet.ActiveAt has %d", m, i, mc.ids[i], p.ID)
			}
			k := mc.keys[mc.classOf[i]]
			if want := (probeClassKey{country: p.Country, asn: p.ASN, city: p.City}); *k != want {
				t.Fatalf("%s: probe %d: class key %+v, want %+v", m, p.ID, *k, want)
			}
			if prev, ok := keys[*k]; ok && prev != k {
				t.Fatalf("%s: class key %+v is not interned (two pointers)", m, *k)
			}
			keys[*k] = k
		}
		checkRootLists(t, w, m)
	}
}

// checkRootLists compares every letter's interned root list at m with
// RootSitesAt.
func checkRootLists(t *testing.T, w *World, m months.Month) {
	t.Helper()
	for _, letter := range dnsroot.Letters() {
		rl := w.rootSiteListAt(letter, m, nil)
		if rl == nil {
			t.Fatalf("%s: no root list for %c", m, letter)
		}
		sites, insts := w.RootSitesAt(letter, m)
		if rl.letter != letter || !reflect.DeepEqual(rl.insts, insts) || !reflect.DeepEqual(rl.sites.Sites, sites) {
			t.Fatalf("%s: %c: root list (%c, %d instances) differs from RootSitesAt (%d instances)",
				m, letter, rl.letter, len(rl.insts), len(insts))
		}
	}
}

package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vzlens/internal/bgp"
)

// referenceTree is the []PathInfo single-source BFS the 16-byte tree
// entries replaced, kept verbatim as the layout's reference: same
// traversal, same per-level minimum, 24-byte PathInfo results.
func referenceTree(d *denseTopo, srcIdx int32) []PathInfo {
	n := len(d.asns)
	tree := make([]PathInfo, n)
	tree[srcIdx] = PathInfo{Hops: 1, LatencyMs: 0, OK: true}

	sc := getScratch(n * numPhases)
	defer putScratch(sc)
	frontier := append(sc.frontier[:0], d.startState(sc, srcIdx))
	next := sc.next[:0]
	hops := 1
	for len(frontier) > 0 {
		hops++
		next = next[:0]
		for _, cur := range frontier {
			next = d.expand(sc, next, cur, false)
		}
		for _, ns := range next {
			sc.settled[ns] = sc.epoch
			ai := ns / numPhases
			if !tree[ai].OK {
				tree[ai] = PathInfo{Hops: hops, LatencyMs: sc.lat[ns], OK: true}
			} else if tree[ai].Hops == hops && sc.lat[ns] < tree[ai].LatencyMs {
				tree[ai].LatencyMs = sc.lat[ns]
			}
		}
		frontier, next = next, frontier
	}
	sc.frontier, sc.next = frontier, next
	return tree
}

// samePathInfo compares two PathInfos, latency by its float64 bits.
func samePathInfo(a, b PathInfo) bool {
	return a.OK == b.OK && a.Hops == b.Hops && math.Float64bits(a.LatencyMs) == math.Float64bits(b.LatencyMs)
}

// checkTreesMatchReference checks, for every AS of r's topology as the
// source, that the memoized tree equals referenceTree entry by entry,
// and that PathInfoFrom and the Tree adapter read the same entries.
func checkTreesMatchReference(t *testing.T, label string, r *Resolver) {
	t.Helper()
	d := r.topo.dense()
	for si, src := range d.asns {
		tree, _ := r.treeFor(src)
		want := referenceTree(d, int32(si))
		if len(tree) != len(want) {
			t.Fatalf("%s: AS%d: tree has %d entries, reference %d", label, src, len(tree), len(want))
		}
		adapter := r.Tree(src)
		for di, dst := range d.asns {
			if got := tree[di].info(); !samePathInfo(got, want[di]) {
				t.Fatalf("%s: AS%d→AS%d: tree entry %+v, reference %+v", label, src, dst, got, want[di])
			}
			if got := r.PathInfoFrom(src, dst); !samePathInfo(got, want[di]) {
				t.Fatalf("%s: AS%d→AS%d: PathInfoFrom %+v, reference %+v", label, src, dst, got, want[di])
			}
			if got, ok := adapter[dst]; ok != want[di].OK || ok && !samePathInfo(got, want[di]) {
				t.Fatalf("%s: AS%d→AS%d: Tree adapter %+v (present %v), reference %+v", label, src, dst, got, ok, want[di])
			}
		}
	}
}

// TestPathTreeMatchesReference is the tree layout's differential test:
// over random topologies, overlays of them (relocations included) and
// overlays stacked on overlays, every source's 16-byte tree equals the
// []PathInfo reference — reachability, hop count and latency bits. The
// campaign kernel's own topologies are checked the same way by the
// world package's TestKernelPathTreesMatchReference.
func TestPathTreeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	checkTreesMatchReference(t, "testTopology", NewResolver(testTopology()))
	for trial := 0; trial < 30; trial++ {
		base := randomTopology(rng)
		label := fmt.Sprintf("trial %d", trial)
		checkTreesMatchReference(t, label+" base", NewResolver(base))
		ov, err := base.Overlay(randomEdits(t, rng, base, 1+rng.Intn(6)))
		if err != nil {
			t.Fatal(err)
		}
		checkTreesMatchReference(t, label+" overlay", NewResolver(ov))
		ov2, err := ov.Overlay(randomEdits(t, rng, ov, 1+rng.Intn(4)))
		if err != nil {
			t.Fatal(err)
		}
		checkTreesMatchReference(t, label+" overlay of overlay", NewResolver(ov2))
	}
	// An AS unknown to the topology has no tree at all.
	if tree, _ := NewResolver(testTopology()).treeFor(bgp.ASN(65000)); tree != nil {
		t.Fatalf("unknown source got a tree of %d entries", len(tree))
	}
}

// TestReleaseTreesRebuilds pins ReleaseTrees' contract: the next
// lookup rebuilds the tree into a fresh slice with the same entries,
// and a tree a caller still holds is left as it was.
func TestReleaseTreesRebuilds(t *testing.T) {
	r := NewResolver(testTopology())
	for _, src := range r.topo.dense().asns {
		held, _ := r.treeFor(src)
		want := append([]treeEntry(nil), held...)
		r.ReleaseTrees()
		got, _ := r.treeFor(src)
		if &got[0] == &held[0] {
			t.Fatalf("AS%d: tree not rebuilt after ReleaseTrees", src)
		}
		for i := range want {
			if got[i] != want[i] || held[i] != want[i] {
				t.Fatalf("AS%d: entry %d rebuilt %+v, held %+v, want %+v", src, i, got[i], held[i], want[i])
			}
		}
	}
}

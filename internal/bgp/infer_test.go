package bgp

import "testing"

// hierarchy builds the ground-truth test topology. Tier-1s carry many
// more neighbors than regional providers, as in real degree
// distributions — the signal Gao-style inference relies on:
//
//	          1 ============ 2          (tier-1 peers)
//	   /  / | \  \     /  / | \  \
//	  10 11 .stubs.   12 13 .stubs.     (regional providers + stub fringe)
//	 /  \  |               |  /  \
//	stubs ...             ... stubs
func hierarchy() *Graph {
	g := NewGraph()
	g.AddRel(Rel{1, 2, PeerPeer})
	g.AddRel(Rel{1, 10, ProviderCustomer})
	g.AddRel(Rel{1, 11, ProviderCustomer})
	g.AddRel(Rel{2, 12, ProviderCustomer})
	g.AddRel(Rel{2, 13, ProviderCustomer})
	// Direct stub customers that fatten the tier-1 degrees.
	for _, stub := range []ASN{900, 901, 902, 903} {
		g.AddRel(Rel{1, stub, ProviderCustomer})
	}
	for _, stub := range []ASN{910, 911, 912, 913} {
		g.AddRel(Rel{2, stub, ProviderCustomer})
	}
	g.AddRel(Rel{10, 100, ProviderCustomer})
	g.AddRel(Rel{10, 101, ProviderCustomer})
	g.AddRel(Rel{11, 102, ProviderCustomer})
	g.AddRel(Rel{12, 103, ProviderCustomer})
	g.AddRel(Rel{13, 104, ProviderCustomer})
	g.AddRel(Rel{13, 105, ProviderCustomer})
	return g
}

// hierarchyPaths enumerates valley-free collector paths over the
// hierarchy: stub-to-stub paths through the core, as collectors peering
// at the stubs would see.
func hierarchyPaths() [][]ASN {
	up := map[ASN][]ASN{ // source -> path to its tier-1
		100: {100, 10, 1}, 101: {101, 10, 1}, 102: {102, 11, 1},
		103: {103, 12, 2}, 104: {104, 13, 2}, 105: {105, 13, 2},
		900: {900, 1}, 901: {901, 1}, 902: {902, 1}, 903: {903, 1},
		910: {910, 2}, 911: {911, 2}, 912: {912, 2}, 913: {913, 2},
	}
	var paths [][]ASN
	for src, upPath := range up {
		for dst, dstUp := range up {
			if src == dst {
				continue
			}
			// Climb from src, cross the peer edge if tier-1s differ,
			// then descend dst's chain in reverse.
			var p []ASN
			p = append(p, upPath...)
			srcTop := upPath[len(upPath)-1]
			dstTop := dstUp[len(dstUp)-1]
			if srcTop != dstTop {
				p = append(p, dstTop)
			}
			for i := len(dstUp) - 2; i >= 0; i-- {
				p = append(p, dstUp[i])
			}
			paths = append(paths, p)
		}
	}
	return paths
}

func TestInferRecoversHierarchy(t *testing.T) {
	truth := hierarchy()
	inferred := InferRelationships(hierarchyPaths(), InferConfig{})
	acc := InferAccuracy(truth, inferred)
	if acc < 0.9 {
		t.Errorf("inference accuracy = %.2f, want >= 0.9", acc)
	}
	// Specific edges.
	if !inferred.HasProvider(100, 10) {
		t.Error("10 should be inferred as provider of 100")
	}
	if !inferred.HasProvider(10, 1) {
		t.Errorf("1 should be inferred as provider of 10; providers(10)=%v peers(10)=%v",
			inferred.Providers(10), inferred.Peers(10))
	}
	if !containsASN(inferred.Peers(1), 2) {
		t.Errorf("1-2 should be inferred as peers; peers(1)=%v providers(1)=%v",
			inferred.Peers(1), inferred.Providers(1))
	}
}

func TestInferOneSidedVotes(t *testing.T) {
	// Paths that establish the tier-1's degree, then a stub chain.
	paths := [][]ASN{
		{100, 10, 1}, {100, 10, 1},
		{60, 1}, {61, 1}, {62, 1},
	}
	g := InferRelationships(paths, InferConfig{})
	if !g.HasProvider(100, 10) || !g.HasProvider(10, 1) {
		t.Errorf("providers(100)=%v providers(10)=%v", g.Providers(100), g.Providers(10))
	}
}

func TestInferIgnoresDegenerate(t *testing.T) {
	g := InferRelationships([][]ASN{{42}, {}, {7, 7}}, InferConfig{})
	if got := relLines(t, g); len(got) != 0 {
		t.Errorf("degenerate paths produced edges %q", got)
	}
}

func TestInferPrependedPath(t *testing.T) {
	// AS-path prepending (repeated ASN) must not create self-edges.
	g := InferRelationships([][]ASN{{100, 10, 10, 10, 1}}, InferConfig{})
	if containsASN(g.Providers(10), 10) || containsASN(g.Customers(10), 10) {
		t.Error("self edge inferred from prepending")
	}
	if !g.HasProvider(100, 10) {
		t.Error("prepending broke the 10>100 edge")
	}
}

func TestInferConflictingVotesLopsidedDegree(t *testing.T) {
	// Edge (1, 50) seen in both directions, but 1 has a much higher
	// degree: resolve 1 as provider.
	paths := [][]ASN{
		// Make 1 high-degree.
		{60, 1}, {61, 1}, {62, 1}, {63, 1}, {64, 1}, {65, 1}, {66, 1}, {67, 1},
		// Conflicting observations of (1, 50).
		{50, 1, 60},
		{60, 1, 50},
		{1, 50}, // descending vote: 1 provides 50
	}
	g := InferRelationships(paths, InferConfig{PeerDegreeRatio: 2})
	if !g.HasProvider(50, 1) {
		t.Errorf("1 should provide 50; providers(50)=%v peers(50)=%v", g.Providers(50), g.Peers(50))
	}
}

func TestInferVoteDominance(t *testing.T) {
	// Nine climbing votes against two descending mis-votes: dominance
	// should still yield provider-customer.
	var paths [][]ASN
	for i := 0; i < 9; i++ {
		paths = append(paths, []ASN{50, 1, ASN(60 + i)})
	}
	paths = append(paths, []ASN{60, 1, 50}, []ASN{61, 1, 50})
	g := InferRelationships(paths, InferConfig{PeerDegreeRatio: 100})
	if !g.HasProvider(50, 1) {
		t.Errorf("dominant votes should win; providers(50)=%v peers(50)=%v",
			g.Providers(50), g.Peers(50))
	}
}

func TestInferAccuracyEdgeCases(t *testing.T) {
	if acc := InferAccuracy(NewGraph(), NewGraph()); acc != 0 {
		t.Errorf("empty accuracy = %v", acc)
	}
	truth := hierarchy()
	// Perfect self-comparison.
	if acc := InferAccuracy(truth, truth); acc != 1 {
		t.Errorf("self accuracy = %v", acc)
	}
}

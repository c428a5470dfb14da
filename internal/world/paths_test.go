package world

import (
	"testing"
	"time"

	"vzlens/internal/bgp"
)

// TestInferenceRecoversCANTVProviders closes the loop the real pipeline
// depends on: collector paths simulated over the topology, fed through
// Gao-style inference, must re-derive CANTV's provider set for the
// month — the information the paper reads out of CAIDA's serial-1 files.
func TestInferenceRecoversCANTVProviders(t *testing.T) {
	m := mm(2013, time.January)
	collectors := testWorld.DefaultCollectors()

	// Origins: every Venezuelan network plus a spread of regional ones,
	// so the Venezuelan edges appear in many paths.
	var origins []bgp.ASN
	origins = append(origins, testWorld.Nets["VE"].Eyeballs...)
	for _, cc := range []string{"BR", "CO", "PE", "EC", "PA"} {
		origins = append(origins, testWorld.Nets[cc].Eyeballs[:3]...)
	}
	paths := testWorld.CollectorPaths(m, collectors, origins)
	if len(paths) < 50 {
		t.Fatalf("only %d collector paths", len(paths))
	}
	inferred := bgp.InferRelationships(paths, bgp.InferConfig{})

	truth := CANTVProvidersAt(m)
	recovered := 0
	for _, p := range truth {
		if inferred.HasProvider(ASCANTV, p) {
			recovered++
		}
	}
	// Collectors only reveal providers that carry their paths; most of
	// the 11 should surface.
	if recovered < len(truth)/2 {
		t.Errorf("recovered %d of %d CANTV providers: inferred=%v",
			recovered, len(truth), inferred.Providers(ASCANTV))
	}
	// Nothing bogus: every inferred provider of CANTV must be in the
	// ground-truth provider set (collectors can miss but not invent).
	truthSet := map[bgp.ASN]bool{}
	for _, p := range truth {
		truthSet[p] = true
	}
	for _, p := range inferred.Providers(ASCANTV) {
		if !truthSet[p] {
			t.Errorf("inferred bogus provider %d", p)
		}
	}
}

func TestCollectorPathsValleyFree(t *testing.T) {
	m := mm(2020, time.June)
	paths := testWorld.CollectorPaths(m, testWorld.DefaultCollectors(),
		[]bgp.ASN{ASCANTV, testWorld.Nets["BR"].Eyeballs[0]})
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	g := testWorld.MonthTopology(m).Graph()
	for _, path := range paths {
		descended := false
		for i := 1; i < len(path); i++ {
			a, b := path[i-1], path[i]
			up := g.HasProvider(a, b)
			down := g.HasProvider(b, a)
			peer := false
			for _, p := range g.Peers(a) {
				if p == b {
					peer = true
				}
			}
			switch {
			case up:
				if descended {
					t.Fatalf("valley in path %v", path)
				}
			case peer, down:
				descended = true
			default:
				t.Fatalf("unknown edge %d-%d in path %v", a, b, path)
			}
		}
	}
}

package netsim

import (
	"math"
	"testing"

	"vzlens/internal/geo"
)

// TestPairCacheKeysByBits pins the cache's key semantics: a NaN
// coordinate hits its own entry on repeat instead of inserting a new
// one per call, signed zeros are distinct entries, and every cached
// value — on the miss and on the hit — has the bits HaversineKm
// computes for the same arguments.
func TestPairCacheKeysByBits(t *testing.T) {
	var pc PairCache
	nan := math.NaN()
	for i := 0; i < 5; i++ {
		if v := pc.DistKm(nan, 0, 10, 20); !math.IsNaN(v) {
			t.Fatalf("NaN coordinate gave %v", v)
		}
	}
	if n := len(pc.m); n != 1 {
		t.Fatalf("5 NaN lookups left %d entries, want 1", n)
	}

	pc = PairCache{}
	negZero := math.Copysign(0, -1)
	pc.DistKm(0, 0, 10, 20)
	pc.DistKm(negZero, 0, 10, 20)
	if n := len(pc.m); n != 2 {
		t.Fatalf("+0 and -0 latitudes share an entry: %d entries, want 2", n)
	}

	coords := []float64{0, negZero, 10.5, -66.9, 90, -180, 179.99, nan, math.Inf(1), math.Inf(-1)}
	pc = PairCache{}
	for pass := 0; pass < 2; pass++ { // pass 0 fills, pass 1 hits
		for _, a := range coords {
			for _, b := range coords {
				for _, c := range []float64{negZero, 4.6, nan} {
					want := geo.HaversineKm(a, b, c, -74.1)
					got := pc.DistKm(a, b, c, -74.1)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("pass %d: DistKm(%v, %v, %v, -74.1) = %x, HaversineKm = %x",
							pass, a, b, c, math.Float64bits(got), math.Float64bits(want))
					}
				}
			}
		}
	}
	if n, want := len(pc.m), len(coords)*len(coords)*3; n != want {
		t.Fatalf("cache holds %d entries after two passes, want %d", n, want)
	}
}

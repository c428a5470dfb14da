package netsim

import (
	"math"

	"vzlens/internal/geo"
)

// PairCache memoizes great-circle distances by raw coordinate pair.
// Catchment selection recomputes HaversineKm for the same few hundred
// (probe city, site city) and (AS city, site city) pairs on every
// probe-month; caching the distance — not the derived delay — keeps
// every downstream value bit-identical, because PropagationDelayMs is
// pure arithmetic on the cached number.
//
// Keys are the coordinates' IEEE-754 bit patterns, so a hit returns
// exactly what HaversineKm computes for those arguments: +0 and -0 are
// distinct entries, and a NaN coordinate hits its own entry instead of
// missing (NaN != NaN) and inserting a fresh one on every call. A
// [4]uint64 key also hashes as one block of memory, where a [4]float64
// key hashes each float separately.
//
// The zero value is ready to use. A nil *PairCache degrades to direct
// computation, so call sites don't branch. Not safe for concurrent
// use; the campaign kernels keep one per arena.
type PairCache struct {
	m map[[4]uint64]float64
}

// DistKm returns geo.HaversineKm(aLat, aLon, bLat, bLon), memoized.
func (pc *PairCache) DistKm(aLat, aLon, bLat, bLon float64) float64 {
	if pc == nil {
		return geo.HaversineKm(aLat, aLon, bLat, bLon)
	}
	k := [4]uint64{math.Float64bits(aLat), math.Float64bits(aLon), math.Float64bits(bLat), math.Float64bits(bLon)}
	if v, ok := pc.m[k]; ok {
		return v
	}
	v := geo.HaversineKm(aLat, aLon, bLat, bLon)
	if pc.m == nil {
		pc.m = make(map[[4]uint64]float64, 256)
	}
	pc.m[k] = v
	return v
}

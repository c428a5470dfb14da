package world

import (
	"math/rand"
	"time"
)

// campaignArena is the reusable scratch a month shard simulates into:
// flat per-class columns (reachability, selected site, one-way
// latency, access delay) and the value-type jitter source its
// *rand.Rand draws from. Arenas live in a World-level pool, so columns
// allocated for one month — or one sweep spec — are reused by the next
// instead of re-made per shard; steady-state campaign months allocate
// only their output: the exactly-sized sample slice of a traceroute
// month, the coded partition of a CHAOS month. An arena is owned by one
// goroutine between acquire and release and carries no cross-month
// state: every column is fully overwritten per month and the RNG is
// re-seeded per probe.
type campaignArena struct {
	jit jitterSource
	rng *rand.Rand

	ok     []bool    // class (or letter x class) reachability
	idx    []int32   // selected site index per slot
	oneWay []float64 // one-way latency per slot
	access []float64 // access delay per slot
	hops   []uint8   // catchment AS-path length per slot (the Hops column)

	codes []int32 // CHAOS probe and answer code memos (see memo)
}

// newCampaignArena builds an empty arena whose Rand permanently wraps
// its own jitter source: re-seeding jit re-aims the existing Rand, so
// the per-probe rand.New of the old inner loop becomes a free Seed.
func newCampaignArena() *campaignArena {
	ar := &campaignArena{}
	ar.rng = rand.New(&ar.jit)
	return ar
}

// ensure sizes the columns to n slots, reporting whether backing
// arrays had to grow. Contents are unspecified afterwards; the kernels
// write every slot they read.
func (ar *campaignArena) ensure(n int) bool {
	if cap(ar.ok) >= n && cap(ar.idx) >= n && cap(ar.oneWay) >= n && cap(ar.access) >= n && cap(ar.hops) >= n {
		ar.ok = ar.ok[:n]
		ar.idx = ar.idx[:n]
		ar.oneWay = ar.oneWay[:n]
		ar.access = ar.access[:n]
		ar.hops = ar.hops[:n]
		return false
	}
	ar.ok = make([]bool, n)
	ar.idx = make([]int32, n)
	ar.oneWay = make([]float64, n)
	ar.access = make([]float64, n)
	ar.hops = make([]uint8, n)
	return true
}

// memo returns n code slots set to -1, "not yet coded", for
// atlas.ChaosBuilder.AddMemo: the CHAOS kernel's per-probe and
// per-(letter, site) table codes.
func (ar *campaignArena) memo(n int) []int32 {
	if cap(ar.codes) < n {
		ar.codes = make([]int32, n)
	}
	ar.codes = ar.codes[:n]
	for i := range ar.codes {
		ar.codes[i] = -1
	}
	return ar.codes
}

// acquireArena checks an arena out of the pool (building one when the
// pool is dry) and reports how long the acquisition took, so campaign
// utilization can discount pool overhead from simulation busy time.
func (w *World) acquireArena() (*campaignArena, time.Duration) {
	t0 := time.Now()
	ar, _ := w.arenas.Get().(*campaignArena)
	if ar == nil {
		ar = newCampaignArena()
		w.met.arenaBuilds.Inc()
	}
	w.met.arenaAcquires.Inc()
	return ar, time.Since(t0)
}

// releaseArena returns an arena to the pool.
func (w *World) releaseArena(ar *campaignArena) { w.arenas.Put(ar) }

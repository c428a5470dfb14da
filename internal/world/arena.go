package world

import (
	"math/rand"
	"time"

	"vzlens/internal/dnsroot"
)

// campaignArena is the reusable scratch a month shard simulates into:
// flat columns by probe class id — reachability and selected site
// thirteen class-id ranges deep, so every CHAOS letter has its own, and
// a trace month's one-way latency, access delay and hop count — and
// the value-type jitter source its *rand.Rand draws from. Arenas live
// in a World-level pool, so columns allocated for one month — or one
// sweep spec — are reused by the next instead of re-made per shard;
// every month sizes them to the World's class count, so an arena never
// grows once built, and steady-state campaign months allocate only
// their output partition. An arena is owned by one goroutine between
// acquire and release and carries no cross-month state: every slot a
// month reads it writes first, and the RNG is re-seeded per probe.
type campaignArena struct {
	jit jitterSource
	rng *rand.Rand

	ok     []bool    // reachability per class (trace) or letter x class (CHAOS)
	idx    []int32   // selected site (CHAOS) or country code (trace) per ok slot
	oneWay []float64 // one-way latency per class
	access []float64 // access delay per class
	hops   []uint8   // catchment AS-path length per class (the Hops column)

	codes []int32  // CHAOS probe and answer code memos (see memo)
	dict  []string // a trace month's dictionary as it is coded
}

// newCampaignArena builds an empty arena whose Rand permanently wraps
// its own jitter source: re-seeding jit re-aims the existing Rand, so
// the per-probe rand.New of the old inner loop becomes a free Seed.
func newCampaignArena() *campaignArena {
	ar := &campaignArena{}
	ar.rng = rand.New(&ar.jit)
	return ar
}

// ensure sizes the columns for w's probe classes, reporting whether
// backing arrays had to grow: only an arena built since w's last month
// does. Contents are unspecified afterwards; the kernels write every
// slot they read.
func (ar *campaignArena) ensure(w *World) bool {
	keys, _ := w.probeClasses()
	nc := len(keys)
	n := len(dnsroot.Letters()) * nc
	if cap(ar.ok) >= n && cap(ar.idx) >= n && cap(ar.oneWay) >= nc && cap(ar.access) >= nc && cap(ar.hops) >= nc {
		ar.ok = ar.ok[:n]
		ar.idx = ar.idx[:n]
		ar.oneWay = ar.oneWay[:nc]
		ar.access = ar.access[:nc]
		ar.hops = ar.hops[:nc]
		return false
	}
	ar.ok = make([]bool, n)
	ar.idx = make([]int32, n)
	ar.oneWay = make([]float64, nc)
	ar.access = make([]float64, nc)
	ar.hops = make([]uint8, nc)
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

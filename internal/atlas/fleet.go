// Package atlas models the RIPE Atlas platform as the paper uses it: a
// fleet of vantage-point probes per country, the built-in CHAOS TXT
// measurements toward all thirteen root servers (every 30 minutes, sampled
// on the first five days of each month), and the platform-wide traceroute
// campaign toward Google Public DNS (measurement 1591). The package holds
// the probe fleet and the measurement-result containers together with the
// aggregation estimators Sections 5.4 and 7.2 apply.
package atlas

import (
	"sort"
	"sync/atomic"

	"vzlens/internal/bgp"
	"vzlens/internal/geo"
	"vzlens/internal/months"
)

// Probe is one Atlas vantage point.
type Probe struct {
	ID           int
	Country      string
	City         geo.City
	ASN          bgp.ASN
	Connected    months.Month // first month online
	Disconnected months.Month // zero while still online
}

// ActiveAt reports whether the probe is connected during month m.
func (p Probe) ActiveAt(m months.Month) bool {
	if m.Before(p.Connected) {
		return false
	}
	return p.Disconnected.IsZero() || m.Before(p.Disconnected)
}

// Fleet is the set of probes over time.
type Fleet struct {
	probes []Probe // in Add order
	byID   map[int]int
	// ordered caches probes sorted by ID — the order every read
	// returns — so reads filter instead of sorting. It is built on the
	// first read after an Add and shared by concurrent readers (a lost
	// build race stores an equal slice).
	ordered atomic.Pointer[[]Probe]
}

// NewFleet returns an empty Fleet.
func NewFleet() *Fleet { return &Fleet{byID: map[int]int{}} }

// Add registers a probe. Adding a probe with a duplicate ID replaces the
// earlier one. Add must not run concurrently with reads.
func (f *Fleet) Add(p Probe) {
	if f.byID == nil {
		f.byID = map[int]int{}
	}
	f.ordered.Store(nil)
	if i, ok := f.byID[p.ID]; ok {
		f.probes[i] = p
		return
	}
	f.byID[p.ID] = len(f.probes)
	f.probes = append(f.probes, p)
}

// Len returns the number of probes ever registered.
func (f *Fleet) Len() int { return len(f.probes) }

// Probe returns the probe with the given ID.
func (f *Fleet) Probe(id int) (Probe, bool) {
	i, ok := f.byID[id]
	if !ok {
		return Probe{}, false
	}
	return f.probes[i], true
}

// inOrder returns the cached ID-ordered probes, sorting once after Add.
func (f *Fleet) inOrder() []Probe {
	if p := f.ordered.Load(); p != nil {
		return *p
	}
	out := append([]Probe(nil), f.probes...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	f.ordered.Store(&out)
	return out
}

// All returns every probe ever registered, ordered by ID — the source
// the fact lake's probe dimension (one SCD2 row per membership window)
// is built from.
func (f *Fleet) All() []Probe {
	return append([]Probe(nil), f.inOrder()...)
}

// Sorted returns every probe ever registered, ordered by ID, without
// copying: the slice is shared by every reader until the next Add, and
// must not be modified.
func (f *Fleet) Sorted() []Probe { return f.inOrder() }

// ActiveAt returns the probes connected during month m, ordered by ID.
func (f *Fleet) ActiveAt(m months.Month) []Probe {
	var out []Probe
	for _, p := range f.inOrder() {
		if p.ActiveAt(m) {
			out = append(out, p)
		}
	}
	return out
}

// ActiveIn returns the probes in country cc connected during month m,
// ordered by ID.
func (f *Fleet) ActiveIn(cc string, m months.Month) []Probe {
	var out []Probe
	for _, p := range f.ActiveAt(m) {
		if p.Country == cc {
			out = append(out, p)
		}
	}
	return out
}

// CountByCountry returns the number of connected probes per country at
// month m — Figure 17's panels.
func (f *Fleet) CountByCountry(m months.Month) map[string]int {
	out := map[string]int{}
	for _, p := range f.probes {
		if p.ActiveAt(m) {
			out[p.Country]++
		}
	}
	return out
}

// CountryRank returns cc's descending rank by probe count at month m and
// the number of countries with at least one probe.
func (f *Fleet) CountryRank(cc string, m months.Month) (rank, of int) {
	counts := f.CountByCountry(m)
	mine := counts[cc]
	rank = 1
	for other, n := range counts {
		of++
		if other != cc && n > mine {
			rank++
		}
	}
	return rank, of
}

// CountAnchor pins a country's probe count at a month; counts between
// anchors interpolate linearly.
type CountAnchor struct {
	Month months.Month
	Count int
}

// CountryPlan describes one country's fleet trajectory: how many probes
// are online over time and which ASNs host them (cycled in order, so
// earlier ASNs receive the extra probes).
type CountryPlan struct {
	CC      string
	Anchors []CountAnchor
	ASNs    []bgp.ASN
}

// BuildFleet materializes probes from per-country plans. Probe IDs are
// assigned deterministically; two thirds of each country's probes sit in
// its primary city (real fleets concentrate in capitals) with the rest
// cycling through the remaining city table. Counts only grow (Atlas
// probes that disconnect are replaced), so each plan's anchor counts must
// be non-decreasing.
func BuildFleet(plans []CountryPlan) *Fleet {
	f := NewFleet()
	id := 1000
	for _, plan := range plans {
		cities := geo.CitiesIn(plan.CC)
		if len(cities) == 0 {
			cities = []geo.City{{Name: plan.CC, Country: plan.CC}}
		}
		maxCount := 0
		for _, a := range plan.Anchors {
			if a.Count > maxCount {
				maxCount = a.Count
			}
		}
		for k := 0; k < maxCount; k++ {
			start := startMonthFor(k, plan.Anchors)
			asn := bgp.ASN(0)
			if len(plan.ASNs) > 0 {
				asn = plan.ASNs[k%len(plan.ASNs)]
			}
			cityIdx := 0
			if k%3 == 0 && len(cities) > 1 {
				cityIdx = 1 + (k/3)%(len(cities)-1)
			}
			f.Add(Probe{
				ID:        id,
				Country:   plan.CC,
				City:      cities[cityIdx],
				ASN:       asn,
				Connected: start,
			})
			id++
		}
	}
	return f
}

// startMonthFor finds the first month at which the interpolated count
// includes probe index k (0-based).
func startMonthFor(k int, anchors []CountAnchor) months.Month {
	if len(anchors) == 0 {
		return 0
	}
	sorted := make([]CountAnchor, len(anchors))
	copy(sorted, anchors)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Month < sorted[j].Month })
	if k < sorted[0].Count {
		return sorted[0].Month
	}
	for i := 0; i < len(sorted)-1; i++ {
		a, b := sorted[i], sorted[i+1]
		if k >= b.Count {
			continue
		}
		// Count passes k+1 somewhere in (a.Month, b.Month].
		span := b.Month.Sub(a.Month)
		need := k + 1 - a.Count
		total := b.Count - a.Count
		if total <= 0 {
			continue
		}
		offset := (need*span + total - 1) / total // ceil
		return a.Month.Add(offset)
	}
	return sorted[len(sorted)-1].Month
}

package dnsroot

import (
	"sort"
	"sync/atomic"
	"time"

	"vzlens/internal/geo"
	"vzlens/internal/months"
)

// Instance is one anycast root server deployment at a site, serving
// traffic over its Window. A zero To means still active.
type Instance struct {
	Letter Letter
	City   geo.City
	Index  int
	months.Window
}

// lRootRename is when ICANN switched L-root instance naming conventions.
var lRootRename = months.New(2018, time.July)

// NamingEraAt returns the naming generation letter l uses at month m —
// the era ChaosName resolves internally. Exposed so bulk consumers can
// intern per-era name tables instead of re-rendering per response.
func NamingEraAt(l Letter, m months.Month) Era {
	if l == 'L' && !m.Before(lRootRename) {
		return EraModern
	}
	return EraClassic
}

// ChaosName returns the CHAOS TXT hostname.bind response the instance
// gives at month m, honoring the L-root renaming.
func (i Instance) ChaosName(m months.Month) string {
	return InstanceName(i.Letter, i.City, i.Index, NamingEraAt(i.Letter, m))
}

// Deployment is the global set of root instances over time.
type Deployment struct {
	instances []Instance // in Add order
	// ordered caches instances stably sorted by letter, then city name,
	// then index — ActiveAt's output order — so reads filter instead of
	// sorting. It is built on the first read after an Add and shared by
	// concurrent readers (a lost build race stores an equal slice).
	ordered atomic.Pointer[[]Instance]
}

// NewDeployment returns an empty Deployment.
func NewDeployment() *Deployment { return &Deployment{} }

// Add registers an instance. Add must not run concurrently with reads.
func (d *Deployment) Add(i Instance) {
	d.instances = append(d.instances, i)
	d.ordered.Store(nil)
}

// Len returns the total number of instances ever deployed.
func (d *Deployment) Len() int { return len(d.instances) }

// All returns every instance ever deployed, in ActiveAt's order.
func (d *Deployment) All() []Instance {
	return append([]Instance(nil), d.inOrder()...)
}

// inOrder returns the cached sorted instances, sorting once after Add.
func (d *Deployment) inOrder() []Instance {
	if p := d.ordered.Load(); p != nil {
		return *p
	}
	out := append([]Instance(nil), d.instances...)
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Letter != out[b].Letter {
			return out[a].Letter < out[b].Letter
		}
		if out[a].City.Name != out[b].City.Name {
			return out[a].City.Name < out[b].City.Name
		}
		return out[a].Index < out[b].Index
	})
	d.ordered.Store(&out)
	return out
}

// Sorted returns every instance in ActiveAt's order without copying:
// the slice is shared by every reader until the next Add, and must not
// be modified.
func (d *Deployment) Sorted() []Instance { return d.inOrder() }

// ActiveAt returns the instances serving at month m, ordered by letter
// then city then index (instances tying on all three keep Add order).
func (d *Deployment) ActiveAt(m months.Month) []Instance {
	var out []Instance
	for _, i := range d.inOrder() {
		if i.Contains(m) {
			out = append(out, i)
		}
	}
	return out
}

// CountByCountry returns the number of active instances per country at
// month m.
func (d *Deployment) CountByCountry(m months.Month) map[string]int {
	out := map[string]int{}
	for _, i := range d.instances {
		if i.Contains(m) {
			out[i.City.Country]++
		}
	}
	return out
}

// countryGrowth drives the synthesized regional build-out: instances at
// the start of 2016 and at the start of 2024. Additions are spread evenly
// across the window. Calibrated to Figure 6: region 59 -> 138 replicas,
// Brazil 18 -> 41, Chile 5 -> 20, Mexico 4 -> 16, Argentina 14 -> 15.
var countryGrowth = []struct {
	cc           string
	n2016, n2024 int
}{
	{"BR", 18, 41}, {"MX", 4, 16}, {"CL", 5, 20}, {"AR", 14, 15},
	{"CO", 4, 8}, {"PE", 2, 6}, {"EC", 1, 5}, {"UY", 2, 4},
	{"PA", 1, 4}, {"CR", 1, 3}, {"TT", 1, 2}, {"DO", 2, 3},
	{"CW", 1, 1}, {"GF", 1, 1}, {"GT", 0, 2}, {"BO", 0, 2},
	{"PY", 0, 2}, {"HT", 0, 1}, {"HN", 0, 1}, {"NI", 0, 1},
}

// letterCycle orders instance letters by how aggressively each operator
// places hosted copies: L and F lead (LACNIC's +Raices program places L
// and F roots), followed by the other anycast letters. The cycle visits
// all thirteen so a large national deployment spans every operator.
var letterCycle = []Letter{'L', 'F', 'K', 'I', 'J', 'E', 'D', 'C', 'A', 'B', 'G', 'H', 'M'}

// globalDeployments places instances outside the region for the
// origin-country analyses (Figure 16): the US hosts by far the most,
// followed by Western Europe, with a handful elsewhere.
var globalDeployments = []struct {
	cc string
	n  int
}{
	{"US", 45}, {"GB", 6}, {"DE", 5}, {"FR", 4}, {"NL", 4},
	{"CA", 3}, {"JP", 3}, {"SE", 2}, {"ZA", 2}, {"RU", 2},
	{"ES", 2}, {"IT", 2},
}

// DefaultDeployment builds the calibrated global root-server deployment
// for 2016-2024, including Venezuela's trajectory: an L and an F root in
// Caracas early in the window, both later withdrawn, briefly replaced by
// an L root in Maracaibo, leaving the country with none.
func DefaultDeployment() *Deployment {
	d := NewDeployment()
	preStudy := months.New(2015, time.January)
	windowStart := months.New(2016, time.January)
	windowEnd := months.New(2024, time.January)
	window := windowEnd.Sub(windowStart)

	for _, g := range countryGrowth {
		cities := geo.CitiesIn(g.cc)
		if len(cities) == 0 {
			continue
		}
		for k := 0; k < g.n2024; k++ {
			start := preStudy
			if k >= g.n2016 {
				// Spread additions across the window, finishing before its end.
				frac := float64(k-g.n2016+1) / float64(g.n2024-g.n2016+1)
				start = windowStart.Add(int(frac * float64(window)))
			}
			d.Add(Instance{
				Letter: letterCycle[k%len(letterCycle)],
				City:   cities[k%len(cities)],
				Index:  k/len(cities) + 1,
				Window: months.Window{From: start},
			})
		}
	}

	for _, g := range globalDeployments {
		cities := geo.CitiesIn(g.cc)
		if len(cities) == 0 {
			continue
		}
		for k := 0; k < g.n; k++ {
			d.Add(Instance{
				Letter: letterCycle[k%len(letterCycle)],
				City:   cities[k%len(cities)],
				Index:  k/len(cities) + 1,
				Window: months.Window{From: preStudy},
			})
		}
	}

	// Venezuela's story (Section 5.4): ccs01.l and ccs1a.f in Caracas,
	// gone by 2019-2020; aa.ve-mar.l.root in Maracaibo until mid-2022.
	caracas, _ := geo.LookupIATA("CCS")
	maracaibo, _ := geo.LookupIATA("MAR")
	d.Add(Instance{Letter: 'L', City: caracas, Index: 1, Window: months.Window{From: preStudy, To: months.New(2019, time.July)}})
	d.Add(Instance{Letter: 'F', City: caracas, Index: 1, Window: months.Window{From: preStudy, To: months.New(2020, time.April)}})
	d.Add(Instance{Letter: 'L', City: maracaibo, Index: 1, Window: months.Window{From: months.New(2019, time.July), To: months.New(2022, time.July)}})

	return d
}

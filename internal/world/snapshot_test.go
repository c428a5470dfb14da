package world

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"vzlens/internal/atlas"
	"vzlens/internal/dnsroot"
	"vzlens/internal/geo"
	"vzlens/internal/months"
)

// refActiveRoots is the filter-then-sort reference for
// Deployment.ActiveAt: filter all in Add order, then sort stably by
// letter, city name and index.
func refActiveRoots(all []dnsroot.Instance, m months.Month) []dnsroot.Instance {
	var out []dnsroot.Instance
	for _, i := range all {
		if i.ActiveAt(m) {
			out = append(out, i)
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Letter != out[b].Letter {
			return out[a].Letter < out[b].Letter
		}
		if out[a].City.Name != out[b].City.Name {
			return out[a].City.Name < out[b].City.Name
		}
		return out[a].Index < out[b].Index
	})
	return out
}

// refActiveProbes is the filter-then-sort reference for
// Fleet.ActiveAt.
func refActiveProbes(all []atlas.Probe, m months.Month) []atlas.Probe {
	var out []atlas.Probe
	for _, p := range all {
		if p.ActiveAt(m) {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TestActiveAtMatchesReference is the sort-once differential test: the
// default world's Deployment.ActiveAt and Fleet.ActiveAt equal the
// filter-then-sort references for every month of 1998-2025, before
// and after Adds that follow reads (an out-of-order instance, a probe
// whose ID sorts first, and a probe replacing an existing ID). It also
// pins the precondition that makes the stable order identical to the
// unstable per-call sort it replaced: no month has two active
// instances tying on (letter, city, index).
func TestActiveAtMatchesReference(t *testing.T) {
	w := mustBuild(Config{})
	roots, probes := w.Roots.All(), w.Fleet.All()
	check := func(phase string) {
		t.Helper()
		for m := mm(1998, time.January); !m.After(mm(2025, time.December)); m = m.Add(1) {
			got, want := w.Roots.ActiveAt(m), refActiveRoots(roots, m)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Deployment.ActiveAt(%s) differs from the reference:\n got %v\nwant %v", phase, m, got, want)
			}
			if got, want := w.Fleet.ActiveAt(m), refActiveProbes(probes, m); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Fleet.ActiveAt(%s) differs from the reference", phase, m)
			}
		}
	}
	for m := mm(1998, time.January); !m.After(mm(2025, time.December)); m = m.Add(1) {
		active := w.Roots.ActiveAt(m)
		for i := 1; i < len(active); i++ {
			a, b := active[i-1], active[i]
			if a.Letter == b.Letter && a.City.Name == b.City.Name && a.Index == b.Index {
				t.Fatalf("%s: two active instances tie on %c %s %d", m, a.Letter, a.City.Name, a.Index)
			}
		}
	}
	check("default world")

	ccs, _ := geo.LookupIATA("CCS")
	extra := dnsroot.Instance{Letter: 'A', City: ccs, Index: 1, Start: mm(2020, time.January)}
	w.Roots.Add(extra)
	roots = append(roots, extra)
	first := atlas.Probe{ID: 0, Country: "VE", City: ccs, ASN: ASCANTV, Connected: mm(2019, time.June)}
	w.Fleet.Add(first)
	replaced := probes[len(probes)/2]
	replaced.Disconnected = mm(2021, time.March)
	w.Fleet.Add(replaced)
	probes = append([]atlas.Probe{first}, probes...)
	for i := range probes {
		if probes[i].ID == replaced.ID {
			probes[i] = replaced
		}
	}
	check("after Add")
}

package netsim

import (
	"math"
	"testing"

	"vzlens/internal/bgp"
	"vzlens/internal/geo"
)

// TestCitiesMatchHaversineBits pins the distance table to
// geo.HaversineKm bit for bit: every ordered pair of interned cities
// (duplicates share an id), and every lookup where one side is not
// interned — a city outside the table, a NaN coordinate, and a -0
// coordinate when the table holds +0 — which falls back to the direct
// computation.
func TestCitiesMatchHaversineBits(t *testing.T) {
	negZero := math.Copysign(0, -1)
	var in []geo.City
	for _, code := range []string{"CCS", "BOG", "MIA", "GRU", "SCL", "MIA"} {
		c, ok := geo.LookupIATA(code)
		if !ok {
			t.Fatalf("%s unknown", code)
		}
		in = append(in, c)
	}
	in = append(in, geo.City{Name: "origin", Lat: 0, Lon: 0}, geo.City{Name: "pole", Lat: 90, Lon: -180})
	c := newCityTable(in)
	if c.id(in[2]) != c.id(in[5]) || c.n != len(in)-1 {
		t.Fatalf("table interns %d coordinates, want %d (MIA twice shares an id)", c.n, len(in)-1)
	}
	for _, a := range in {
		for _, b := range in {
			ia, ib := c.id(a), c.id(b)
			if ia < 0 || ib < 0 {
				t.Fatalf("interned city %s or %s has no id", a.Name, b.Name)
			}
			got := c.distKm(ia, ib, a.Lat, a.Lon, b.Lat, b.Lon)
			want := geo.HaversineKm(a.Lat, a.Lon, b.Lat, b.Lon)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("table %s→%s = %x, HaversineKm = %x", a.Name, b.Name, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}

	lim, _ := geo.LookupIATA("LIM")
	outside := []geo.City{
		lim,
		{Name: "nan", Lat: math.NaN(), Lon: 10},
		{Name: "negzero", Lat: negZero, Lon: 0},
		{Name: "inf", Lat: math.Inf(1), Lon: math.Inf(-1)},
	}
	fallback := func(ia, ib int32, a, b geo.City) {
		t.Helper()
		got := c.distKm(ia, ib, a.Lat, a.Lon, b.Lat, b.Lon)
		want := geo.HaversineKm(a.Lat, a.Lon, b.Lat, b.Lon)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("fallback %s→%s = %x, HaversineKm = %x", a.Name, b.Name, math.Float64bits(got), math.Float64bits(want))
		}
	}
	for _, o := range outside {
		if id := c.id(o); id != -1 {
			t.Fatalf("%s: ID = %d, want -1 (not interned)", o.Name, id)
		}
		for _, b := range in {
			fallback(-1, c.id(b), o, b)
			fallback(c.id(b), -1, b, o)
		}
	}

	var none *cityTable
	if id := none.id(lim); id != -1 {
		t.Fatalf("nil table: ID = %d, want -1", id)
	}
	if got, want := none.distKm(-1, -1, lim.Lat, lim.Lon, 0, 0), geo.HaversineKm(lim.Lat, lim.Lon, 0, 0); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("nil table DistKm = %v, want %v", got, want)
	}
}

// TestPrepareSitesRechecksInterning pins the host-index guard: a list
// prepared against a base keeps its host indices on the base's
// overlays (shared AS interning), and a base mutated after preparation
// is re-interned, so the loop must fall back to looking hosts up. The
// mutation here renumbers every AS, so stale indices would select the
// wrong site.
func TestPrepareSitesRechecksInterning(t *testing.T) {
	top := testTopology()
	bog, _ := geo.LookupIATA("BOG")
	mia, _ := geo.LookupIATA("MIA")
	top.InternCities([]geo.City{bog, mia})
	sites := []Site{{Host: 300, City: mia}, {Host: 200, City: bog}}
	sl := top.PrepareSites(sites)
	ov, err := top.Overlay([]Edit{{Op: EditRemoveLink, A: 200, B: 300, Kind: bgp.PeerPeer}})
	if err != nil {
		t.Fatal(err)
	}
	if sl.view.internID != ov.dense().internID {
		t.Fatal("overlay does not share its base's AS interning")
	}
	top.AddLink(1, 100, bgp.ProviderCustomer) // AS1 sorts first: every dense index shifts
	if sl.view.internID == top.dense().internID {
		t.Fatal("mutated base kept its AS interning")
	}
	r := NewResolver(top)
	for _, policy := range []CatchmentPolicy{PolicyBGP, PolicyGeo} {
		wantIdx, wantLat, wantHops, _ := naiveCatchment(r, 201, bog, sites, policy)
		c, err := r.CatchmentInfo(201, bog, "", sl, policy)
		idx, lat, hops := c.Index, c.Latency, c.Hops
		if err != nil || idx != wantIdx || hops != wantHops || math.Float64bits(lat) != math.Float64bits(wantLat) {
			t.Fatalf("policy %d: stale list gave (%d, %v, %d, %v), reference (%d, %v, %d)", policy, idx, lat, hops, err, wantIdx, wantLat, wantHops)
		}
	}
}

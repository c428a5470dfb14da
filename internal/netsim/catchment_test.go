package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vzlens/internal/bgp"
	"vzlens/internal/geo"
)

func TestResolverPathInfoMatchesASPath(t *testing.T) {
	top := testTopology()
	r := NewResolver(top)
	for _, src := range top.Graph().ASes() {
		for _, dst := range top.Graph().ASes() {
			path, ok := top.ASPath(src, dst)
			info := r.PathInfoFrom(src, dst)
			if ok != info.OK {
				t.Fatalf("%d→%d: reachability mismatch (%v vs %v)", src, dst, ok, info.OK)
			}
			if ok && info.Hops != len(path) {
				t.Errorf("%d→%d: hops = %d, path len = %d", src, dst, info.Hops, len(path))
			}
		}
	}
}

func TestResolverSelfPath(t *testing.T) {
	r := NewResolver(testTopology())
	info := r.PathInfoFrom(201, 201)
	if !info.OK || info.Hops != 1 || info.LatencyMs != 0 {
		t.Errorf("self path = %+v", info)
	}
}

func TestResolverUnreachable(t *testing.T) {
	top := New()
	top.AddLink(1, 2, bgp.ProviderCustomer)
	r := NewResolver(top)
	if info := r.PathInfoFrom(2, 99); info.OK {
		t.Errorf("unreachable dst = %+v", info)
	}
}

func TestCatchmentFromOwnASWins(t *testing.T) {
	top := testTopology()
	r := NewResolver(top)
	bog, _ := geo.LookupIATA("BOG")
	mia, _ := geo.LookupIATA("MIA")
	sites := []Site{
		{Host: 100, City: mia},
		{Host: 201, City: bog}, // hosted inside the source AS itself
	}
	site, lat, err := r.CatchmentFrom(201, bog, sites, PolicyBGP)
	if err != nil {
		t.Fatal(err)
	}
	if site.Host != 201 {
		t.Errorf("caught by %d, want own AS 201", site.Host)
	}
	if lat != 0 {
		t.Errorf("same-city own-AS latency = %v, want 0", lat)
	}
}

func TestCatchmentFromAccountsForProbeCity(t *testing.T) {
	top := testTopology()
	r := NewResolver(top)
	bog, _ := geo.LookupIATA("BOG")
	mde, _ := geo.LookupIATA("MDE") // probe city differs from AS location
	sites := []Site{{Host: 200, City: bog}}
	_, latFromBog, err := r.CatchmentFrom(201, bog, sites, PolicyBGP)
	if err != nil {
		t.Fatal(err)
	}
	_, latFromMde, err := r.CatchmentFrom(201, mde, sites, PolicyBGP)
	if err != nil {
		t.Fatal(err)
	}
	if latFromMde <= latFromBog {
		t.Errorf("remote probe latency %.2f should exceed capital probe latency %.2f", latFromMde, latFromBog)
	}
}

func TestCatchmentFromVenezuelaShape(t *testing.T) {
	// The Figure 12/20 mechanism: a Venezuelan eyeball homed to a US
	// transit reaches the Miami replica; one homed to Colombia reaches
	// Bogota at a fraction of the latency.
	top := testTopology()
	ccs, _ := geo.LookupIATA("CCS")
	sci, _ := geo.LookupIATA("SCI")
	// Border AS 402 buys from Colombian transit.
	top.AddLink(200, 402, bgp.ProviderCustomer)
	top.Locate(402, sci)
	r := NewResolver(top)
	bog, _ := geo.LookupIATA("BOG")
	mia, _ := geo.LookupIATA("MIA")
	sites := []Site{{Host: 100, City: mia}, {Host: 200, City: bog}}

	_, latCANTV, err := r.CatchmentFrom(401, ccs, sites, PolicyBGP)
	if err != nil {
		t.Fatal(err)
	}
	siteBorder, latBorder, err := r.CatchmentFrom(402, sci, sites, PolicyBGP)
	if err != nil {
		t.Fatal(err)
	}
	if siteBorder.City.Name != "Bogota" {
		t.Errorf("border AS caught by %s, want Bogota", siteBorder.City.Name)
	}
	if latBorder >= latCANTV/2 {
		t.Errorf("border latency %.1f should be well under Caracas latency %.1f", latBorder, latCANTV)
	}
	if latBorder > 6 {
		t.Errorf("border one-way latency = %.1f ms, want just a few ms", latBorder)
	}
}

func TestBestPathMatchesPathInfo(t *testing.T) {
	top := testTopology()
	r := NewResolver(top)
	for _, src := range top.Graph().ASes() {
		for _, dst := range top.Graph().ASes() {
			info := r.PathInfoFrom(src, dst)
			path, ok := r.BestPath(src, dst)
			if info.OK != ok {
				t.Fatalf("%d→%d: reachability mismatch", src, dst)
			}
			if !ok {
				continue
			}
			if len(path) != info.Hops {
				t.Errorf("%d→%d: BestPath len %d, PathInfo hops %d", src, dst, len(path), info.Hops)
			}
			if path[0] != src || path[len(path)-1] != dst {
				t.Errorf("%d→%d: endpoints %v", src, dst, path)
			}
			if lat := top.PathLatencyMs(path); info.Hops > 1 && absDiff(lat, info.LatencyMs) > 1e-6 {
				t.Errorf("%d→%d: path latency %.3f, tree latency %.3f", src, dst, lat, info.LatencyMs)
			}
		}
	}
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// naiveCatchment is an independent reference for CatchmentInfoCached:
// the plain per-site loop written only against PathInfoFrom,
// Topology.Location and geo.HaversineKm, recomputing every per-source
// quantity for every site. ok is false when no site is reachable.
func naiveCatchment(r *Resolver, srcAS bgp.ASN, srcCity geo.City, sites []Site, policy CatchmentPolicy) (idx int, lat float64, hops int, ok bool) {
	top := r.Topology()
	type cand struct {
		idx, hops   int
		lat, distKm float64
	}
	less := func(a, b cand) bool {
		if policy == PolicyGeo {
			if a.distKm != b.distKm {
				return a.distKm < b.distKm
			}
		} else {
			if a.hops != b.hops {
				return a.hops < b.hops
			}
			if a.lat != b.lat {
				return a.lat < b.lat
			}
		}
		sa, sb := sites[a.idx], sites[b.idx]
		if sa.Host != sb.Host {
			return sa.Host < sb.Host
		}
		return sa.City.Name < sb.City.Name
	}
	var best cand
	for i, site := range sites {
		c := cand{idx: i, distKm: geo.HaversineKm(srcCity.Lat, srcCity.Lon, site.City.Lat, site.City.Lon)}
		if site.Host == srcAS {
			c.hops = 1
			c.lat = geo.PropagationDelayMs(c.distKm)
		} else {
			info := r.PathInfoFrom(srcAS, site.Host)
			if !info.OK {
				continue
			}
			c.hops = info.Hops
			c.lat = info.LatencyMs
			if asCity, located := top.Location(srcAS); located {
				c.lat += geo.PropagationDelayMs(geo.HaversineKm(srcCity.Lat, srcCity.Lon, asCity.Lat, asCity.Lon))
			}
			if hostCity, located := top.Location(site.Host); located {
				c.lat += geo.PropagationDelayMs(geo.HaversineKm(hostCity.Lat, hostCity.Lon, site.City.Lat, site.City.Lon))
			}
		}
		if !ok || less(c, best) {
			best, ok = c, true
		}
	}
	return best.idx, best.lat, best.hops, ok
}

// checkCatchmentMatchesNaive compares CatchmentInfoCached against the
// naive reference for one query, with no PairCache and with pc, under
// both policies: same site index, same hop count, same latency bits.
func checkCatchmentMatchesNaive(t *testing.T, label string, r *Resolver, pc *PairCache, src bgp.ASN, city geo.City, sites []Site) {
	t.Helper()
	for _, policy := range []CatchmentPolicy{PolicyBGP, PolicyGeo} {
		wantIdx, wantLat, wantHops, wantOK := naiveCatchment(r, src, city, sites, policy)
		for _, cache := range []*PairCache{nil, pc} {
			idx, lat, hops, err := r.CatchmentInfoCached(src, city, sites, policy, cache)
			if (err == nil) != wantOK {
				t.Fatalf("%s: AS%d policy %d cache %v: err %v, reference reachable %v", label, src, policy, cache != nil, err, wantOK)
			}
			if !wantOK {
				continue
			}
			if idx != wantIdx || hops != wantHops || math.Float64bits(lat) != math.Float64bits(wantLat) {
				t.Fatalf("%s: AS%d policy %d cache %v: got (site %d, %d hops, %v ms), reference (site %d, %d hops, %v ms)",
					label, src, policy, cache != nil, idx, hops, lat, wantIdx, wantHops, wantLat)
			}
		}
	}
}

// TestCatchmentMatchesNaiveReference drives the catchment loop over
// random topologies and overlays of them (relocations included, some
// to the zero City) against the naive reference. Site lists mix hosts
// in the graph, the source AS itself and an AS the topology has never
// seen; sources include every AS plus an unknown one.
func TestCatchmentMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	cities := []string{"MIA", "BOG", "GRU", "CCS", "SCL", "EZE", "MEX", "LIM"}
	randCity := func() geo.City {
		c, _ := geo.LookupIATA(cities[rng.Intn(len(cities))])
		return c
	}
	const unknownAS = bgp.ASN(65000)
	var pc PairCache // shared across queries, as a kernel arena shares it
	for trial := 0; trial < 40; trial++ {
		base := randomTopology(rng)
		view := base
		if trial%4 != 0 {
			ov, err := base.Overlay(randomEdits(t, rng, base, 1+rng.Intn(8)))
			if err != nil {
				t.Fatal(err)
			}
			view = ov
		}
		r := NewResolver(view)
		ases := view.Graph().ASes()
		label := fmt.Sprintf("trial %d", trial)
		for _, src := range append(ases, unknownAS) {
			sites := make([]Site, 2+rng.Intn(5))
			for i := range sites {
				host := ases[rng.Intn(len(ases))]
				switch rng.Intn(6) {
				case 0:
					host = src
				case 1:
					host = unknownAS + 1
				}
				sites[i] = Site{Host: host, City: randCity()}
			}
			checkCatchmentMatchesNaive(t, label, r, &pc, src, randCity(), sites)
		}
	}
}

// TestCatchmentMatchesNaiveEdgeCases pins the cases the random drive
// may hit rarely: a source and a host relocated to the zero City (no
// location in the view, though the base has one), an unknown source
// reaching only a site it hosts, an unknown host, and a hosted site
// competing with transit-reached ones.
func TestCatchmentMatchesNaiveEdgeCases(t *testing.T) {
	top := testTopology()
	bog, _ := geo.LookupIATA("BOG")
	mia, _ := geo.LookupIATA("MIA")
	mde, _ := geo.LookupIATA("MDE")
	if _, ok := top.Location(201); !ok {
		t.Fatal("test topology leaves AS201 unlocated")
	}
	if _, ok := top.Location(100); !ok {
		t.Fatal("test topology leaves AS100 unlocated")
	}
	cleared, err := top.Overlay([]Edit{
		{Op: EditRelocate, A: 201, City: geo.City{}},
		{Op: EditRelocate, A: 100, City: geo.City{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var pc PairCache
	sites := []Site{{Host: 100, City: mia}, {Host: 200, City: bog}, {Host: 201, City: mde}}
	for _, view := range []*Topology{top, cleared} {
		r := NewResolver(view)
		checkCatchmentMatchesNaive(t, "hosted and transit sites", r, &pc, 201, mde, sites)
		checkCatchmentMatchesNaive(t, "transit sites only", r, &pc, 201, mde, sites[:2])
		checkCatchmentMatchesNaive(t, "unknown host", r, &pc, 201, bog, []Site{{Host: 64999, City: bog}, {Host: 100, City: mia}})
		checkCatchmentMatchesNaive(t, "unknown host alone", r, &pc, 201, bog, []Site{{Host: 64999, City: bog}})
		checkCatchmentMatchesNaive(t, "unknown source", r, &pc, 64998, bog, sites)
		checkCatchmentMatchesNaive(t, "unknown source, own site", r, &pc, 64998, bog, append(sites, Site{Host: 64998, City: mia}))
	}
}

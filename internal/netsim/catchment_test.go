package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// naiveCatchment is an independent reference for CatchmentInfo:
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

// siteListVariants returns sites in every form CatchmentInfo accepts:
// unprepared, prepared against the view itself, prepared against its
// base (the same AS interning, so host indices carry over), and
// prepared against foreign, an unrelated topology whose host indices
// the loop must reject and whose distance table the view does not
// share.
func siteListVariants(view, foreign *Topology, sites []Site) []*SiteList {
	base := view
	for base.base != nil {
		base = base.base
	}
	return []*SiteList{
		{Sites: sites},
		view.PrepareSites(sites),
		base.PrepareSites(sites),
		foreign.PrepareSites(sites),
	}
}

// checkCatchmentMatchesNaive compares CatchmentInfo against the naive
// reference for one query, for every site-list variant, under both
// policies: same site index, same hop count, same latency bits. With a
// domestic country, the reference runs over the sites located there
// rehosted into src.
func checkCatchmentMatchesNaive(t *testing.T, label string, r *Resolver, foreign *Topology, src bgp.ASN, city geo.City, domestic string, sites []Site) {
	t.Helper()
	local := sites
	if domestic != "" {
		local = append([]Site(nil), sites...)
		for i := range local {
			if local[i].City.Country == domestic {
				local[i].Host = src
			}
		}
	}
	lists := siteListVariants(r.Topology(), foreign, sites)
	for _, policy := range []CatchmentPolicy{PolicyBGP, PolicyGeo} {
		wantIdx, wantLat, wantHops, wantOK := naiveCatchment(r, src, city, local, policy)
		for v, sl := range lists {
			c, err := r.CatchmentInfo(src, city, domestic, sl, policy)
			idx, lat, hops := c.Index, c.Latency, c.Hops
			if (err == nil) != wantOK {
				t.Fatalf("%s: AS%d policy %d list variant %d: err %v, reference reachable %v", label, src, policy, v, err, wantOK)
			}
			if !wantOK {
				continue
			}
			if idx != wantIdx || hops != wantHops || math.Float64bits(lat) != math.Float64bits(wantLat) {
				t.Fatalf("%s: AS%d policy %d list variant %d: got (site %d, %d hops, %v ms), reference (site %d, %d hops, %v ms)",
					label, src, policy, v, idx, hops, lat, wantIdx, wantHops, wantLat)
			}
		}
	}
}

// foreignTopology is a topology unrelated to the one under test, with
// its own AS interning and distance table, for siteListVariants.
func foreignTopology(cities []geo.City) *Topology {
	top := testTopology()
	top.InternCities(cities)
	return top
}

// TestCatchmentMatchesNaiveReference drives the catchment loop over
// random topologies and overlays of them (relocations included, some
// to the zero City) against the naive reference. Overlays come from
// Resolver.Overlay, and every fourth trial keeps only the
// provider→customer edits, so its sources outside their region price
// from the base's trees (the reference reads the overlay's own). Half
// the trials give
// the base a distance table over part of the city set, so lookups mix
// table reads and direct computation. Site lists mix hosts in the
// graph, the source AS itself and an AS the topology has never seen;
// sources include every AS plus an unknown one, and every other source
// reaches the replicas in its own country over the domestic fabric.
func TestCatchmentMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	cities := []string{"MIA", "BOG", "GRU", "CCS", "SCL", "EZE", "MEX", "LIM"}
	randCity := func() geo.City {
		c, _ := geo.LookupIATA(cities[rng.Intn(len(cities))])
		return c
	}
	var interned []geo.City
	for _, code := range cities[:4] {
		c, _ := geo.LookupIATA(code)
		interned = append(interned, c)
	}
	foreign := foreignTopology(interned)
	const unknownAS = bgp.ASN(65000)
	for trial := 0; trial < 40; trial++ {
		base := randomTopology(rng)
		if trial%2 == 0 {
			base.InternCities(interned)
		}
		r := NewResolver(base)
		if trial%4 != 0 {
			edits := randomEdits(t, rng, base, 1+rng.Intn(8))
			if trial%4 == 3 {
				edits = slices.DeleteFunc(edits, func(e Edit) bool {
					return e.Op == EditRelocate || e.Kind != bgp.ProviderCustomer
				})
			}
			var err error
			if r, err = r.Overlay(edits); err != nil {
				t.Fatal(err)
			}
		}
		view := r.Topology()
		ases := view.Graph().ASes()
		label := fmt.Sprintf("trial %d", trial)
		for k, src := range append(ases, unknownAS) {
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
			// Every other source sits in a country whose replicas it
			// reaches over the domestic fabric.
			city, domestic := randCity(), ""
			if k%2 == 1 {
				domestic = city.Country
			}
			checkCatchmentMatchesNaive(t, label, r, foreign, src, city, domestic, sites)
		}
	}
}

// TestCatchmentMatchesNaiveEdgeCases pins the cases the random drive
// may hit rarely: a source and a host relocated to the zero City (no
// location in the view, though the base has one), an unknown source
// reaching only a site it hosts, an unknown host, and a hosted site
// competing with transit-reached ones — each on a base without a
// distance table and on one with a table.
func TestCatchmentMatchesNaiveEdgeCases(t *testing.T) {
	bog, _ := geo.LookupIATA("BOG")
	mia, _ := geo.LookupIATA("MIA")
	mde, _ := geo.LookupIATA("MDE")
	foreign := foreignTopology([]geo.City{bog, mia})
	tabled := testTopology()
	tabled.InternCities([]geo.City{bog, mde})
	for _, top := range []*Topology{testTopology(), tabled} {
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
		sites := []Site{{Host: 100, City: mia}, {Host: 200, City: bog}, {Host: 201, City: mde}}
		for _, view := range []*Topology{top, cleared} {
			r := NewResolver(view)
			checkCatchmentMatchesNaive(t, "hosted and transit sites", r, foreign, 201, mde, "", sites)
			checkCatchmentMatchesNaive(t, "transit sites only", r, foreign, 201, mde, "", sites[:2])
			checkCatchmentMatchesNaive(t, "unknown host", r, foreign, 201, bog, "", []Site{{Host: 64999, City: bog}, {Host: 100, City: mia}})
			checkCatchmentMatchesNaive(t, "unknown host alone", r, foreign, 201, bog, "", []Site{{Host: 64999, City: bog}})
			checkCatchmentMatchesNaive(t, "unknown source", r, foreign, 64998, bog, "", sites)
			checkCatchmentMatchesNaive(t, "unknown source, own site", r, foreign, 64998, bog, "", append(sites, Site{Host: 64998, City: mia}))
			checkCatchmentMatchesNaive(t, "domestic unknown host", r, foreign, 201, bog, "CO", []Site{{Host: 64999, City: bog}, {Host: 100, City: mia}})
			checkCatchmentMatchesNaive(t, "domestic transit sites", r, foreign, 100, mia, "CO", sites)
			checkCatchmentMatchesNaive(t, "unknown source, domestic", r, foreign, 64998, bog, "CO", sites)
		}
	}
}

package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vzlens/internal/bgp"
	"vzlens/internal/geo"
)

// testTopology builds a small regional topology:
//
//	     TransitUS(100)
//	     /         \
//	TransitCO(200) TransitBR(300)
//	   |     \       |
//	EyeCO(201) \   EyeBR(301)
//	            EyeVE(401)
//
// EyeVE buys transit only from TransitUS; EyeCO and EyeBR buy locally.
// TransitCO and TransitBR peer.
func testTopology() *Topology {
	t := New()
	t.AddLink(100, 200, bgp.ProviderCustomer)
	t.AddLink(100, 300, bgp.ProviderCustomer)
	t.AddLink(200, 201, bgp.ProviderCustomer)
	t.AddLink(300, 301, bgp.ProviderCustomer)
	t.AddLink(100, 401, bgp.ProviderCustomer)
	t.AddLink(200, 300, bgp.PeerPeer)

	mia, _ := geo.LookupIATA("MIA")
	bog, _ := geo.LookupIATA("BOG")
	gru, _ := geo.LookupIATA("GRU")
	ccs, _ := geo.LookupIATA("CCS")
	t.Locate(100, mia)
	t.Locate(200, bog)
	t.Locate(201, bog)
	t.Locate(300, gru)
	t.Locate(301, gru)
	t.Locate(401, ccs)
	return t
}

func TestASPathDirect(t *testing.T) {
	top := testTopology()
	path, ok := top.ASPath(201, 200)
	if !ok || len(path) != 2 || path[0] != 201 || path[1] != 200 {
		t.Errorf("path = %v %v", path, ok)
	}
	self, ok := top.ASPath(201, 201)
	if !ok || len(self) != 1 {
		t.Errorf("self path = %v %v", self, ok)
	}
}

func TestASPathValleyFree(t *testing.T) {
	top := testTopology()
	// EyeCO to EyeBR: up to TransitCO, peer to TransitBR, down to EyeBR.
	path, ok := top.ASPath(201, 301)
	if !ok {
		t.Fatal("no path")
	}
	want := []bgp.ASN{201, 200, 300, 301}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestASPathNoValley(t *testing.T) {
	top := New()
	// Two customers of different providers that only connect via a peer
	// link between the customers' providers... but here providers do not
	// peer and have no common upstream: no valley-free path.
	top.AddLink(10, 11, bgp.ProviderCustomer)
	top.AddLink(20, 21, bgp.ProviderCustomer)
	if _, ok := top.ASPath(11, 21); ok {
		t.Error("disconnected graph should have no path")
	}
}

func TestASPathDoesNotTransitPeerTwice(t *testing.T) {
	top := New()
	// a -peer- b -peer- c: valley-free forbids two peer crossings.
	top.AddLink(1, 2, bgp.PeerPeer)
	top.AddLink(2, 3, bgp.PeerPeer)
	if _, ok := top.ASPath(1, 3); ok {
		t.Error("two peer hops should be rejected")
	}
	if path, ok := top.ASPath(1, 2); !ok || len(path) != 2 {
		t.Errorf("single peer hop = %v %v", path, ok)
	}
}

func TestASPathPrefersShort(t *testing.T) {
	top := New()
	top.AddLink(1, 2, bgp.ProviderCustomer) // 2's provider is 1
	top.AddLink(1, 3, bgp.ProviderCustomer)
	top.AddLink(3, 4, bgp.ProviderCustomer)
	top.AddLink(2, 4, bgp.ProviderCustomer) // 4 has two providers: 3 and 2
	path, ok := top.ASPath(4, 1)
	if !ok || len(path) != 3 {
		t.Errorf("path = %v, want length 3 (4→{2|3}→1)", path)
	}
}

func TestPathLatency(t *testing.T) {
	top := testTopology()
	path, _ := top.ASPath(401, 100) // Caracas → Miami
	lat := top.PathLatencyMs(path)
	// CCS-MIA ≈ 2,200 km ≈ 17 ms one-way with stretch + hop cost.
	if lat < 10 || lat > 30 {
		t.Errorf("CCS→MIA latency = %.1f ms, want 10-30", lat)
	}
	if top.PathLatencyMs(nil) != 0 {
		t.Error("empty path latency != 0")
	}
	if got := top.PathLatencyMs([]bgp.ASN{401}); got != 0 {
		t.Errorf("single-hop latency = %v, want 0", got)
	}
}

// catchmentAtAS is Resolver.CatchmentFrom for a probe in its AS's own
// city.
func catchmentAtAS(top *Topology, src bgp.ASN, sites []Site, policy CatchmentPolicy) (Site, float64, error) {
	city, _ := top.Location(src)
	return NewResolver(top).CatchmentFrom(src, city, sites, policy)
}

func TestCatchmentBGPPrefersLocalSite(t *testing.T) {
	top := testTopology()
	bog, _ := geo.LookupIATA("BOG")
	mia, _ := geo.LookupIATA("MIA")
	sites := []Site{
		{Host: 100, City: mia}, // US replica
		{Host: 200, City: bog}, // Colombian replica
	}
	// Colombian eyeball: direct provider hosts a replica → 2-hop path wins.
	site, lat, err := catchmentAtAS(top, 201, sites, PolicyBGP)
	if err != nil {
		t.Fatal(err)
	}
	if site.Host != 200 {
		t.Errorf("CO eyeball caught by %d, want local 200", site.Host)
	}
	if lat > 5 {
		t.Errorf("local catchment latency = %.1f ms, want small", lat)
	}
	// Venezuelan eyeball: only reaches via TransitUS → US replica, far.
	siteVE, latVE, err := catchmentAtAS(top, 401, sites, PolicyBGP)
	if err != nil {
		t.Fatal(err)
	}
	if siteVE.Host != 100 {
		t.Errorf("VE eyeball caught by %d, want 100", siteVE.Host)
	}
	if latVE <= lat {
		t.Errorf("VE latency %.1f should exceed CO latency %.1f", latVE, lat)
	}
}

func TestCatchmentGeoPolicyDiffers(t *testing.T) {
	top := testTopology()
	bog, _ := geo.LookupIATA("BOG")
	mia, _ := geo.LookupIATA("MIA")
	sites := []Site{
		{Host: 100, City: mia},
		{Host: 200, City: bog},
	}
	// Under geographic policy, the Venezuelan eyeball picks Bogota (closer
	// than Miami) even though BGP would deliver it to the US.
	site, _, err := catchmentAtAS(top, 401, sites, PolicyGeo)
	if err != nil {
		t.Fatal(err)
	}
	if site.City.Name != "Bogota" {
		t.Errorf("geo policy caught %s, want Bogota", site.City.Name)
	}
}

func TestCatchmentUnreachable(t *testing.T) {
	top := testTopology()
	bog, _ := geo.LookupIATA("BOG")
	if _, _, err := catchmentAtAS(top, 401, []Site{{Host: 999, City: bog}}, PolicyBGP); err != ErrUnreachable {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
	if _, _, err := catchmentAtAS(top, 401, nil, PolicyBGP); err != ErrUnreachable {
		t.Errorf("empty sites err = %v, want ErrUnreachable", err)
	}
}

func TestCatchmentDeterministic(t *testing.T) {
	top := testTopology()
	bog, _ := geo.LookupIATA("BOG")
	mia, _ := geo.LookupIATA("MIA")
	sites := []Site{{Host: 100, City: mia}, {Host: 200, City: bog}}
	first, _, _ := catchmentAtAS(top, 201, sites, PolicyBGP)
	for i := 0; i < 10; i++ {
		got, _, _ := catchmentAtAS(top, 201, sites, PolicyBGP)
		if got != first {
			t.Fatal("catchment not deterministic")
		}
	}
}

func TestRTT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := RTT(10, 5, rng)
	if r < 30 {
		t.Errorf("RTT = %.1f, want >= 2*(10+5)", r)
	}
	// Jitter keeps RTT finite and positive.
	for i := 0; i < 100; i++ {
		if v := RTT(1, 1, rng); v < 4 || v > 200 {
			t.Fatalf("RTT sample %v out of range", v)
		}
	}
}

// Property: any returned path starts at src, ends at dst, and respects
// valley-freeness (no provider edge after a peer/customer edge).
func TestQuickPathsValleyFree(t *testing.T) {
	top := testTopology()
	all := top.Graph().ASes()
	f := func(si, di uint8) bool {
		src := all[int(si)%len(all)]
		dst := all[int(di)%len(all)]
		path, ok := top.ASPath(src, dst)
		if !ok {
			return true
		}
		if path[0] != src || path[len(path)-1] != dst {
			return false
		}
		descended := false
		for i := 1; i < len(path); i++ {
			a, b := path[i-1], path[i]
			up := top.Graph().HasProvider(a, b)   // b is provider of a
			down := top.Graph().HasProvider(b, a) // a is provider of b
			peer := containsPeer(top.Graph().Peers(a), b)
			switch {
			case up:
				if descended {
					return false
				}
			case peer, down:
				descended = true
			default:
				return false // edge not in graph at all
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func containsPeer(xs []bgp.ASN, a bgp.ASN) bool {
	for _, x := range xs {
		if x == a {
			return true
		}
	}
	return false
}

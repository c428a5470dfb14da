package world

import (
	"fmt"
	"time"

	"vzlens/internal/bgp"
	"vzlens/internal/dnsroot"
	"vzlens/internal/geo"
	"vzlens/internal/months"
	"vzlens/internal/netsim"
)

// tier1Locations places the global transit providers at their primary
// Latin-America-facing interconnection city; Miami dominates in reality.
var tier1Locations = map[bgp.ASN]string{
	ASVerizon: "MIA", ASSprint: "MIA", ASArelion: "ARN", ASGTT: "JFK",
	ASLevel3: "MIA", ASGBLX: "MIA", ASnLayer: "ORD", ASOrange: "CDG",
	ASTelecomIT: "MIA", ASATT: "DFW", ASTelxius: "MAD", ASColumbus: "MIA",
	ASGoldData: "MIA", ASVtal: "MIA", ASGoldDataI: "MIA", ASISPNet: "MIA",
	ASNetRail: "MIA", ASLatamTel: "MIA",
}

// foreignTransits gives non-LACNIC countries referenced in the DNS-origin
// analysis one national network each, joined to the global peer mesh.
var foreignTransits = map[string]bgp.ASN{
	"US": ASLevel3, "GB": 2856, "DE": 3320, "FR": ASOrange, "NL": 1136,
	"SE": ASArelion, "JP": 2914, "ZA": 3741, "CA": 577, "RU": 20485,
	"ES": ASTelxius, "IT": ASTelecomIT,
}

// regionalUpstreams routes small economies through a neighbor instead of
// straight to the global core, as their real transit markets do. Cuba's
// dependence on Venezuela follows the ALBA cable's purpose.
var regionalUpstreams = map[string]string{
	"BO": "PE", "PY": "AR", "HT": "DO", "NI": "CR", "HN": "GT",
	"GY": "TT", "SR": "TT", "BZ": "MX", "CU": "VE", "GF": "BR",
	"CW": "CO", "BQ": "CO", "SX": "DO",
}

// veBorderASes are the Venezuelan access networks that reach the world
// through Colombia rather than through CANTV — the low-latency vantage
// points of Figure 20 (Airtek around Maracaibo, Viginet at the border).
var veBorderASes = map[bgp.ASN]string{
	61461:  "MAR", // Airtek Solutions, Maracaibo
	263703: "SCI", // Viginet, San Cristobal
}

// veOwnTransitASes are Venezuelan networks with their own international
// transit (not CANTV customers).
var veOwnTransitASes = map[bgp.ASN]bgp.ASN{
	21826:        ASColumbus, // Telemic buys from Columbus Networks
	11562:        ASColumbus, // Net Uno
	ASTelefonica: ASTelxius,  // Telefonica's backbone is Telxius
}

// lookupCity resolves an IATA code, reporting unknown codes as errors;
// Build validates every static table through it so that the hot paths
// below can use cityAt without a panic fallback.
func lookupCity(iata string) (geo.City, error) {
	c, ok := geo.LookupIATA(iata)
	if !ok {
		return geo.City{}, fmt.Errorf("world: unknown IATA %q", iata)
	}
	return c, nil
}

// cityAt resolves an IATA code already validated at build time. Unknown
// codes (impossible after validation) degrade to the zero City rather
// than panicking.
func cityAt(iata string) geo.City {
	c, _ := geo.LookupIATA(iata)
	return c
}

// MonthTopology builds month m's faithful interdomain topology: the
// relationship graph and AS locations, with CANTV wired per the
// documented timeline. It is not cached; campaigns run on the kernel's
// per-signature resolvers and ASRelArchive on its per-signature graphs
// (kernel.go).
func (w *World) MonthTopology(m months.Month) *netsim.Topology {
	return w.buildTopology(CANTVProvidersAt(m), cantvCustomerCount(m))
}

// buildTopology constructs an interdomain topology: the tier-1 mesh,
// the foreign national networks, every country fleet, and Venezuela
// with provs as CANTV's transit providers and its first customers
// domestic customers wired. Venezuela is the only month-dependent
// piece: MonthTopology passes a month's timeline, and the campaign
// kernel passes no providers and every customer that will ever exist,
// carving months out by overlay edits.
func (w *World) buildTopology(provs []bgp.ASN, customers int) *netsim.Topology {
	t := netsim.New()

	// Global transit core: full peer mesh among tier-1s plus Google.
	var tier1s []bgp.ASN
	for asn, iata := range tier1Locations {
		t.Locate(asn, cityAt(iata))
		tier1s = append(tier1s, asn)
	}
	sortASNs(tier1s)
	for i, a := range tier1s {
		for _, b := range tier1s[i+1:] {
			t.AddLink(a, b, bgp.PeerPeer)
		}
	}
	t.Locate(ASGoogle, cityAt("MIA"))
	for _, a := range tier1s {
		t.AddLink(ASGoogle, a, bgp.PeerPeer)
	}

	// Foreign national networks join the mesh.
	for cc, asn := range foreignTransits {
		if _, ok := tier1Locations[asn]; ok {
			continue // already placed as a tier-1
		}
		cities := geo.CitiesIn(cc)
		if len(cities) > 0 {
			t.Locate(asn, cities[0])
		}
		for _, a := range tier1s {
			t.AddLink(asn, a, bgp.PeerPeer)
		}
	}

	// Country fleets: the national transit buys from two tier-1s (or a
	// regional neighbor), eyeballs buy from the national transit.
	for _, cc := range sortedCountries(w.Nets) {
		net := w.Nets[cc]
		capital := capitalOf(cc)
		t.Locate(net.Transit, capital)
		if cc == "VE" {
			// CANTV's transit providers and domestic customer cone, the
			// independent internationally-connected networks, and the
			// border ASes homed to Colombia.
			ccs := cityAt("CCS")
			t.Locate(ASCANTV, ccs)
			for _, p := range provs {
				t.AddLink(p, ASCANTV, bgp.ProviderCustomer)
			}
			for i := 0; i < customers; i++ {
				cust := cantvCustomerASN(i)
				t.Locate(cust, ccs)
				t.AddLink(ASCANTV, cust, bgp.ProviderCustomer)
			}
			for _, eb := range net.Eyeballs {
				if eb == ASCANTV {
					continue
				}
				if iata, ok := veBorderASes[eb]; ok {
					t.Locate(eb, cityAt(iata))
					t.AddLink(w.Nets["CO"].Transit, eb, bgp.ProviderCustomer)
					continue
				}
				t.Locate(eb, ccs)
				if upstream, ok := veOwnTransitASes[eb]; ok {
					t.AddLink(upstream, eb, bgp.ProviderCustomer)
					continue
				}
				t.AddLink(ASCANTV, eb, bgp.ProviderCustomer)
			}
			continue
		}
		if via, ok := regionalUpstreams[cc]; ok {
			t.AddLink(w.Nets[via].Transit, net.Transit, bgp.ProviderCustomer)
		} else {
			// Deterministic pair of tier-1 providers.
			idx := int(net.Transit) % len(tier1s)
			t.AddLink(tier1s[idx], net.Transit, bgp.ProviderCustomer)
			t.AddLink(tier1s[(idx+7)%len(tier1s)], net.Transit, bgp.ProviderCustomer)
		}
		for _, eb := range net.Eyeballs {
			t.Locate(eb, capital)
			t.AddLink(net.Transit, eb, bgp.ProviderCustomer)
		}
	}

	return t
}

// capitalOf returns a country's primary city (first city-table entry).
func capitalOf(cc string) geo.City {
	cities := geo.CitiesIn(cc)
	if len(cities) == 0 {
		if c, ok := geo.LookupCountry(cc); ok {
			return geo.City{Name: c.Name, Country: cc, Lat: c.Lat, Lon: c.Lon}
		}
		return geo.City{Name: cc, Country: cc}
	}
	return cities[0]
}

// gpdnsSite describes one Google Public DNS deployment.
type gpdnsSite struct {
	iata  string
	host  string // "google" or the country code whose transit hosts it
	since months.Month
}

// gpdnsRollout models GPDNS expansion over the study period: the US
// anycast origin from the start, in-country replicas appearing as Google
// built out the region — never in Venezuela.
var gpdnsRollout = []gpdnsSite{
	{"MIA", "google", mm(2009, time.December)},
	{"GRU", "BR", mm(2014, time.January)},
	{"EZE", "AR", mm(2014, time.January)},
	{"SCL", "CL", mm(2014, time.January)},
	{"MEX", "MX", mm(2014, time.January)},
	{"BOG", "CO", mm(2017, time.January)},
	{"LIM", "PE", mm(2018, time.January)},
	{"MVD", "UY", mm(2018, time.January)},
	{"GIG", "BR", mm(2019, time.January)},
	{"PTY", "PA", mm(2019, time.January)},
	{"UIO", "EC", mm(2020, time.January)},
	{"FOR", "BR", mm(2020, time.January)},
	{"POA", "BR", mm(2021, time.January)},
	{"SJO", "CR", mm(2021, time.January)},
	{"SDQ", "DO", mm(2021, time.January)},
	{"ASU", "PY", mm(2021, time.January)},
	{"GUA", "GT", mm(2022, time.January)},
	{"SAL", "SV", mm(2021, time.June)},
	{"CUR", "CW", mm(2021, time.June)},
	{"CAY", "GF", mm(2021, time.June)},
	{"POS", "TT", mm(2021, time.June)},
	{"TGU", "HN", mm(2022, time.June)},
	{"MGA", "NI", mm(2022, time.June)},
	{"LPB", "BO", mm(2022, time.June)},
	{"BZE", "BZ", mm(2023, time.January)},
	{"GEO", "GY", mm(2023, time.January)},
	{"PBM", "SR", mm(2023, time.January)},
}

// GPDNSSitesAt returns the Google Public DNS anycast sites active at
// month m.
func (w *World) GPDNSSitesAt(m months.Month) []netsim.Site {
	var out []netsim.Site
	for _, s := range gpdnsRollout {
		if m.Before(s.since) {
			continue
		}
		host := ASGoogle
		if s.host != "google" {
			host = w.Nets[s.host].Transit
		}
		out = append(out, netsim.Site{Host: host, City: cityAt(s.iata)})
	}
	return out
}

// RootSitesAt returns the anycast sites of one root letter at month m,
// paired with the instances they represent. Instances are hosted by
// networks of their country (cycling through the national fleet);
// Venezuela's Caracas instances were hosted inside CANTV, the Maracaibo
// replacement inside Airtek's Maracaibo network.
func (w *World) RootSitesAt(letter dnsroot.Letter, m months.Month) ([]netsim.Site, []dnsroot.Instance) {
	return w.rootSitesIn(w.Roots.ActiveAt(m), letter)
}

// rootSitesIn is RootSitesAt over a given active-instance snapshot.
func (w *World) rootSitesIn(active []dnsroot.Instance, letter dnsroot.Letter) ([]netsim.Site, []dnsroot.Instance) {
	var sites []netsim.Site
	var insts []dnsroot.Instance
	for _, inst := range active {
		if inst.Letter != letter {
			continue
		}
		sites = append(sites, netsim.Site{Host: w.rootHost(inst), City: inst.City})
		insts = append(insts, inst)
	}
	return sites, insts
}

// rootHost picks the AS hosting a root instance.
func (w *World) rootHost(inst dnsroot.Instance) bgp.ASN {
	cc := inst.City.Country
	if cc == "VE" {
		if inst.City.Name == "Maracaibo" {
			return 61461 // Airtek
		}
		return ASCANTV
	}
	if net, ok := w.Nets[cc]; ok {
		all := append([]bgp.ASN{net.Transit}, net.Eyeballs...)
		return all[(int(inst.Letter)+inst.Index)%len(all)]
	}
	if asn, ok := foreignTransits[cc]; ok {
		return asn
	}
	return ASLevel3
}

// accessAnchor pins a country's last-mile access delay (ms, one way).
type accessAnchor struct {
	m  months.Month
	ms float64
}

// accessDelay encodes each country's access-network latency trajectory:
// most of the region improves as fiber replaces DSL; Venezuela improves
// only with the 2022 fiber plans.
var accessDelay = map[string][]accessAnchor{
	"VE": {{mm(2014, time.January), 5.5}, {mm(2021, time.October), 5.0}, {mm(2023, time.July), 1.0}},
	"AR": {{mm(2014, time.January), 5.8}, {mm(2016, time.January), 5.2}, {mm(2023, time.July), 4.7}},
	"CL": {{mm(2014, time.January), 5.4}, {mm(2016, time.January), 4.7}, {mm(2023, time.July), 5.0}},
	"BR": {{mm(2014, time.January), 9.5}, {mm(2016, time.January), 8.3}, {mm(2023, time.July), 2.9}},
	"CO": {{mm(2014, time.January), 5.0}, {mm(2017, time.June), 7.5}, {mm(2023, time.July), 7.2}},
	"MX": {{mm(2014, time.January), 14.4}, {mm(2019, time.January), 12.0}, {mm(2023, time.July), 9.8}},
	"PE": {{mm(2014, time.January), 9.0}, {mm(2023, time.July), 5.0}},
	"EC": {{mm(2014, time.January), 9.0}, {mm(2023, time.July), 6.0}},
	"UY": {{mm(2014, time.January), 6.0}, {mm(2023, time.July), 3.0}},
}

const defaultAccessMs = 8.0

// AccessDelayMs returns the one-way access delay for country cc at month
// m, interpolating between anchors.
func AccessDelayMs(cc string, m months.Month) float64 {
	as, ok := accessDelay[cc]
	if !ok {
		return defaultAccessMs
	}
	if !m.After(as[0].m) {
		return as[0].ms
	}
	last := as[len(as)-1]
	if !m.Before(last.m) {
		return last.ms
	}
	for i := 0; i < len(as)-1; i++ {
		lo, hi := as[i], as[i+1]
		if m.Before(lo.m) || !m.Before(hi.m) {
			continue
		}
		frac := float64(m.Sub(lo.m)) / float64(hi.m.Sub(lo.m))
		return lo.ms*(1-frac) + hi.ms*frac
	}
	return last.ms
}

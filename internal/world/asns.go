// Package world builds the coherent synthetic Latin-American Internet
// that every dataset in vzlens derives from: autonomous systems and their
// populations, the interdomain graph and its monthly evolution (including
// CANTV's documented transit history), address allocations and
// announcements, peering facilities, IXP memberships, hypergiant off-net
// roll-outs, the RIPE Atlas probe fleet, and the two active-measurement
// campaigns simulated over the topology. One World value is internally
// consistent: joins across datasets behave like joins across the real
// archives.
package world

import (
	"fmt"
	"sort"

	"vzlens/internal/aspop"
	"vzlens/internal/bgp"
	"vzlens/internal/geo"
)

// Transit providers with documented relationships to CANTV (Figure 9) and
// other well-known networks referenced across the paper.
const (
	ASCANTV      bgp.ASN = 8048
	ASTelefonica bgp.ASN = 6306
	ASMovilnet   bgp.ASN = 27889

	ASVerizon   bgp.ASN = 701
	ASSprint    bgp.ASN = 1239
	ASArelion   bgp.ASN = 1299
	ASGTT       bgp.ASN = 3257
	ASLevel3    bgp.ASN = 3356
	ASGBLX      bgp.ASN = 3549
	ASNetRail   bgp.ASN = 4004
	ASnLayer    bgp.ASN = 4436
	ASOrange    bgp.ASN = 5511
	ASTelecomIT bgp.ASN = 6762
	ASATT       bgp.ASN = 7018
	ASISPNet    bgp.ASN = 7927
	ASTelxius   bgp.ASN = 12956
	ASLatamTel  bgp.ASN = 19962
	ASColumbus  bgp.ASN = 23520
	ASGoldData  bgp.ASN = 28007
	ASVtal      bgp.ASN = 52320
	ASGoldDataI bgp.ASN = 262589

	ASGoogle bgp.ASN = 15169
)

// CountryNet describes a country's synthetic network fleet: one national
// transit operator plus eyeball access networks whose populations follow
// a fixed market-share split.
type CountryNet struct {
	CC       string
	Transit  bgp.ASN
	Eyeballs []bgp.ASN
}

// internetUsers approximates each country's Internet population
// (millions). Venezuela's is replaced by the exact Table 1 composition.
var internetUsers = map[string]float64{
	"BR": 160, "MX": 96, "AR": 39, "CO": 35, "PE": 24, "VE": 20.1,
	"CL": 15, "EC": 13, "GT": 9, "BO": 8, "DO": 8, "CU": 6,
	"HN": 5, "PY": 5, "SV": 4, "HT": 4, "CR": 4, "PA": 3.5,
	"UY": 3, "NI": 3, "TT": 1, "GY": 0.6, "SR": 0.4, "BZ": 0.3,
	"GF": 0.15, "CW": 0.15, "SX": 0.03, "BQ": 0.02,
}

// realTransits gives the highlighted countries their actual national
// operators; remaining countries use synthetic registry-range ASNs.
var realTransits = map[string]bgp.ASN{
	"VE": ASCANTV,
	"BR": 4230,  // Claro/Embratel
	"AR": 7303,  // Telecom Argentina
	"CL": 6471,  // ENTEL Chile
	"MX": 8151,  // Uninet/Telmex
	"CO": 3816,  // Telecom Colombia
	"PE": 6147,  // Telefonica del Peru
	"EC": 14420, // CNT Ecuador
	"UY": 6057,  // ANTEL
	"CR": 11830, // ICE, the state-owned provider the paper contrasts
	"PA": 11556,
}

// eyeballShares splits each country's population across its access
// networks, largest first.
var eyeballShares = []float64{0.34, 0.22, 0.16, 0.12, 0.09, 0.07}

// buildNets constructs every country's fleet deterministically. Venezuela
// keeps its real provider list (from the Table 1 estimates); other
// countries get one transit plus six eyeballs.
func buildNets() map[string]CountryNet {
	out := map[string]CountryNet{}
	ccs := geo.LACNICCountries()
	for idx, cc := range ccs {
		if cc == "VE" {
			out[cc] = CountryNet{
				CC:      cc,
				Transit: ASCANTV,
				Eyeballs: []bgp.ASN{
					ASCANTV, 21826, ASTelefonica, 264731, 264628,
					61461, 263703, 11562, 272809, ASMovilnet,
				},
			}
			continue
		}
		transit, ok := realTransits[cc]
		if !ok {
			transit = bgp.ASN(264000 + idx*50)
		}
		eyeballs := make([]bgp.ASN, len(eyeballShares))
		for k := range eyeballs {
			eyeballs[k] = bgp.ASN(265000 + idx*50 + k)
		}
		out[cc] = CountryNet{CC: cc, Transit: transit, Eyeballs: eyeballs}
	}
	return out
}

// buildPopulations assembles the regional population table: the exact
// Venezuelan composition plus share-split fleets everywhere else.
func buildPopulations(nets map[string]CountryNet) *aspop.Estimates {
	est := aspop.Venezuela()
	for cc, net := range nets {
		if cc == "VE" {
			continue
		}
		total := internetUsers[cc] * 1e6
		for k, asn := range net.Eyeballs {
			est.Add(aspop.Estimate{
				ASN:     asn,
				Name:    fmt.Sprintf("%s Access Network %d", cc, k+1),
				Country: cc,
				Users:   int64(total * eyeballShares[k]),
			})
		}
	}
	return est
}

// buildOrgs assembles the as2org+-style directory. The Venezuelan state
// operator and its mobile arm share one organization, as the paper notes;
// every other AS maps to its own organization.
func buildOrgs(nets map[string]CountryNet, est *aspop.Estimates) *bgp.OrgMap {
	orgs := bgp.NewOrgMap()
	orgs.Add(bgp.ASInfo{ASN: ASCANTV, Name: "CANTV Servicios, Venezuela", Country: "VE", Org: "ORG-CANV"})
	orgs.Add(bgp.ASInfo{ASN: ASMovilnet, Name: "Telecomunicaciones MOVILNET", Country: "VE", Org: "ORG-CANV"})
	orgs.Add(bgp.ASInfo{ASN: ASTelefonica, Name: "TELEFONICA VENEZOLANA, C.A.", Country: "VE", Org: "ORG-TELF"})
	// Countries in sorted order: an AS wired into two countries takes
	// the first one's, so the directory is the same on every build.
	for _, cc := range sortedCountries(nets) {
		net := nets[cc]
		all := append([]bgp.ASN{net.Transit}, net.Eyeballs...)
		for _, asn := range all {
			if _, ok := orgs.Lookup(asn); ok {
				continue
			}
			name := fmt.Sprintf("AS%d", asn)
			if e, ok := est.Lookup(asn); ok {
				name = e.Name
			}
			orgs.Add(bgp.ASInfo{ASN: asn, Name: name, Country: cc, Org: fmt.Sprintf("ORG-%d", asn)})
		}
	}
	return orgs
}

// sortedCountries returns the fleet countries in deterministic order.
func sortedCountries(nets map[string]CountryNet) []string {
	out := make([]string, 0, len(nets))
	for cc := range nets {
		out = append(out, cc)
	}
	sort.Strings(out)
	return out
}

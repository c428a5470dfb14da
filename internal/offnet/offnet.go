// Package offnet reimplements the off-net detection methodology of Gigis
// et al. that the paper applies in Section 5.5: scanning TLS certificates
// served from addresses inside eyeball networks and flagging a hypergiant
// off-net replica when a certificate carries the hypergiant's domains
// (subject or dNSNames) but is served from another organization's AS.
// Population coverage then weights hosting organizations by APNIC-style
// user estimates, aggregated at the organization level with as2org+ to
// suppress per-AS fluctuations.
package offnet

import (
	"sort"
	"strings"

	"vzlens/internal/aspop"
	"vzlens/internal/bgp"
)

// Hypergiant is one content provider whose off-net footprint the paper
// tracks.
type Hypergiant struct {
	Name    string
	ASN     bgp.ASN  // the provider's own network
	Domains []string // certificate subject/dNSName fingerprints
}

// Hypergiants returns the ten providers of Figures 7 and 18.
func Hypergiants() []Hypergiant {
	return []Hypergiant{
		{"Google", 15169, []string{"google.com", "*.google.com", "*.gvt1.com", "dns.google"}},
		{"Akamai", 20940, []string{"*.akamaiedge.net", "*.akamaized.net", "a248.e.akamai.net"}},
		{"Facebook", 32934, []string{"*.facebook.com", "*.fbcdn.net", "*.whatsapp.net"}},
		{"Netflix", 2906, []string{"*.nflxvideo.net", "*.netflix.com"}},
		{"Microsoft", 8075, []string{"*.microsoft.com", "*.msedge.net", "*.azureedge.net"}},
		{"Cloudflare", 13335, []string{"*.cloudflare.com", "*.cloudflaressl.com"}},
		{"Amazon", 16509, []string{"*.cloudfront.net", "*.amazonaws.com"}},
		{"Limelight", 22822, []string{"*.llnwd.net", "*.limelight.com"}},
		{"CDNetworks", 36408, []string{"*.cdngc.net", "*.cdnetworks.com"}},
		{"Alibaba", 45102, []string{"*.alicdn.com", "*.alikunlun.com"}},
	}
}

// CertRecord is one observation from a TLS scan: the certificate names
// served from an address originated by ASN.
type CertRecord struct {
	ASN   bgp.ASN
	Names []string // subject CN + dNSNames
}

// Scan is one scan campaign (the paper uses one per year, 2013-2021).
type Scan struct {
	records []CertRecord
}

// NewScan returns an empty Scan.
func NewScan() *Scan { return &Scan{} }

// Add appends a record.
func (s *Scan) Add(r CertRecord) { s.records = append(s.records, r) }

// matches reports whether a certificate name matches a hypergiant
// fingerprint. Fingerprints with a "*." prefix match any subdomain;
// exact fingerprints match exactly.
func matches(name, fingerprint string) bool {
	name = strings.ToLower(strings.TrimSpace(name))
	fingerprint = strings.ToLower(fingerprint)
	if tail, ok := strings.CutPrefix(fingerprint, "*."); ok {
		return name == tail || strings.HasSuffix(name, "."+tail) ||
			(strings.HasPrefix(name, "*.") && strings.HasSuffix(name, tail))
	}
	return name == fingerprint
}

// DetectOffnets returns, per hypergiant name, the set of ASes serving
// that hypergiant's certificates from outside its own network — the
// off-net hosts. Results are sorted by ASN.
func DetectOffnets(s *Scan, hgs []Hypergiant) map[string][]bgp.ASN {
	found := map[string]map[bgp.ASN]bool{}
	for _, rec := range s.records {
		for _, hg := range hgs {
			if rec.ASN == hg.ASN {
				continue // on-net, not an off-net
			}
			if recordMatches(rec, hg) {
				set, ok := found[hg.Name]
				if !ok {
					set = map[bgp.ASN]bool{}
					found[hg.Name] = set
				}
				set[rec.ASN] = true
			}
		}
	}
	out := map[string][]bgp.ASN{}
	for name, set := range found {
		asns := make([]bgp.ASN, 0, len(set))
		for asn := range set {
			asns = append(asns, asn)
		}
		sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
		out[name] = asns
	}
	return out
}

func recordMatches(rec CertRecord, hg Hypergiant) bool {
	for _, name := range rec.Names {
		for _, fp := range hg.Domains {
			if matches(name, fp) {
				return true
			}
		}
	}
	return false
}

// Coverage computes the share (0-1) of country cc's user population in
// organizations hosting an off-net, expanding each hosting AS to its full
// organization through orgs (the as2org+ step). A nil orgs map falls back
// to per-AS accounting.
func Coverage(cc string, hosts []bgp.ASN, pop *aspop.Estimates, orgs *bgp.OrgMap) float64 {
	expanded := hosts
	if orgs != nil {
		seen := map[bgp.ASN]bool{}
		expanded = nil
		for _, asn := range hosts {
			for _, member := range orgs.ASNsOf(orgs.Org(asn)) {
				if !seen[member] {
					seen[member] = true
					expanded = append(expanded, member)
				}
			}
			// ASes with no org mapping still count themselves.
			if len(orgs.ASNsOf(orgs.Org(asn))) == 0 && !seen[asn] {
				seen[asn] = true
				expanded = append(expanded, asn)
			}
		}
	}
	return pop.ShareOf(cc, expanded)
}

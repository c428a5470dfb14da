// Package webdeps reimplements the third-party dependency analysis of
// Appendix H (following Kumar et al.): for each country, take the top
// 1,000 most popular websites as seen by a local user, keep only the
// sites unique to that country's list (shared global sites would be
// served by the same large providers everywhere), and measure what
// fraction are served via third-party DNS, third-party certificate
// authorities, third-party CDNs, and HTTPS.
//
// Calibration matches Figure 19: Venezuela at 0.29 DNS (regional mean
// 0.32), 0.22 CA (0.26), 0.37 CDN (0.46) and 0.58 HTTPS (0.60) — ahead of
// only Bolivia on the three infrastructure dimensions.
package webdeps

import (
	"fmt"
	"sort"
)

// Site is one scraped website with its serving-infrastructure flags.
type Site struct {
	Host     string
	ThirdDNS bool // authoritative DNS outsourced to a third party
	ThirdCA  bool // certificate from a third-party-managed CA
	ThirdCDN bool // content served through a third-party CDN
	HTTPS    bool
}

// Snapshot is one scraping campaign: per country, the ranked site list a
// local user sees.
type Snapshot struct {
	lists map[string][]Site
}

// NewSnapshot returns an empty Snapshot.
func NewSnapshot() *Snapshot { return &Snapshot{lists: map[string][]Site{}} }

// SetList records the site list scraped from country cc's vantage point.
func (s *Snapshot) SetList(cc string, sites []Site) {
	if s.lists == nil {
		s.lists = map[string][]Site{}
	}
	s.lists[cc] = sites
}

// Countries returns the countries scraped, sorted.
func (s *Snapshot) Countries() []string {
	out := make([]string, 0, len(s.lists))
	for cc := range s.lists {
		out = append(out, cc)
	}
	sort.Strings(out)
	return out
}

// UniqueSites returns the sites appearing only in cc's list and no
// other's — the paper's uniqueness filter.
func (s *Snapshot) UniqueSites(cc string) []Site {
	counts := map[string]int{}
	for _, sites := range s.lists {
		seen := map[string]bool{}
		for _, site := range sites {
			if !seen[site.Host] {
				seen[site.Host] = true
				counts[site.Host]++
			}
		}
	}
	var out []Site
	for _, site := range s.lists[cc] {
		if counts[site.Host] == 1 {
			out = append(out, site)
		}
	}
	return out
}

// Rates holds the four adoption fractions for one country.
type Rates struct {
	DNS, CA, CDN, HTTPS float64
	Sites               int // unique sites the rates are computed over
}

// Adoption computes the adoption rates over cc's unique sites; ok is
// false when the country has no unique sites.
func (s *Snapshot) Adoption(cc string) (Rates, bool) {
	unique := s.UniqueSites(cc)
	if len(unique) == 0 {
		return Rates{}, false
	}
	var r Rates
	r.Sites = len(unique)
	for _, site := range unique {
		if site.ThirdDNS {
			r.DNS++
		}
		if site.ThirdCA {
			r.CA++
		}
		if site.ThirdCDN {
			r.CDN++
		}
		if site.HTTPS {
			r.HTTPS++
		}
	}
	n := float64(len(unique))
	r.DNS /= n
	r.CA /= n
	r.CDN /= n
	r.HTTPS /= n
	return r, true
}

// RegionalMeans averages the adoption rates across all scraped countries.
func (s *Snapshot) RegionalMeans() Rates {
	var sum Rates
	n := 0
	for cc := range s.lists {
		r, ok := s.Adoption(cc)
		if !ok {
			continue
		}
		sum.DNS += r.DNS
		sum.CA += r.CA
		sum.CDN += r.CDN
		sum.HTTPS += r.HTTPS
		n++
	}
	if n == 0 {
		return Rates{}
	}
	sum.DNS /= float64(n)
	sum.CA /= float64(n)
	sum.CDN /= float64(n)
	sum.HTTPS /= float64(n)
	sum.Sites = n
	return sum
}

// calibratedRates encodes Figure 19's per-country adoption levels.
var calibratedRates = map[string]Rates{
	"BO": {DNS: 0.25, CA: 0.16, CDN: 0.28, HTTPS: 0.48},
	"VE": {DNS: 0.29, CA: 0.22, CDN: 0.37, HTTPS: 0.58},
	"AR": {DNS: 0.30, CA: 0.25, CDN: 0.54, HTTPS: 0.54},
	"PY": {DNS: 0.31, CA: 0.23, CDN: 0.34, HTTPS: 0.59},
	"BR": {DNS: 0.32, CA: 0.30, CDN: 0.58, HTTPS: 0.72},
	"CL": {DNS: 0.33, CA: 0.27, CDN: 0.65, HTTPS: 0.67},
	"CO": {DNS: 0.34, CA: 0.32, CDN: 0.42, HTTPS: 0.56},
	"MX": {DNS: 0.36, CA: 0.35, CDN: 0.50, HTTPS: 0.62},
	"UY": {DNS: 0.38, CA: 0.24, CDN: 0.46, HTTPS: 0.64},
}

// GenerateSnapshot synthesizes a scraping campaign whose unique-site
// adoption rates reproduce the calibrated table exactly: each country
// gets uniquePerCC unique local sites with flag counts set by the rates,
// plus a block of global sites shared by every list (which the uniqueness
// filter must discard — they are all fully third-party-served).
func GenerateSnapshot(uniquePerCC int) *Snapshot {
	s := NewSnapshot()
	shared := make([]Site, 40)
	for i := range shared {
		shared[i] = Site{
			Host:     fmt.Sprintf("global-%d.example.com", i),
			ThirdDNS: true, ThirdCA: true, ThirdCDN: true, HTTPS: true,
		}
	}
	for cc, rates := range calibratedRates {
		sites := make([]Site, 0, uniquePerCC+len(shared))
		for i := 0; i < uniquePerCC; i++ {
			sites = append(sites, Site{
				Host:     fmt.Sprintf("site-%d.%s.example", i, cc),
				ThirdDNS: i < int(rates.DNS*float64(uniquePerCC)+0.5),
				ThirdCA:  i < int(rates.CA*float64(uniquePerCC)+0.5),
				ThirdCDN: i < int(rates.CDN*float64(uniquePerCC)+0.5),
				HTTPS:    i < int(rates.HTTPS*float64(uniquePerCC)+0.5),
			})
		}
		sites = append(sites, shared...)
		s.SetList(cc, sites)
	}
	return s
}

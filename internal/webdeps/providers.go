package webdeps

// This file adds provider attribution on top of the adoption flags:
// which third party actually serves each dependent site.

// Dimension selects a third-party service market.
type Dimension int

// The three outsourced service markets.
const (
	DimDNS Dimension = iota
	DimCA
	DimCDN
)

// providerPalettes gives each market its major players with global
// popularity weights; assignment cycles deterministically so the
// per-country mix approximates the weights.
var providerPalettes = map[Dimension][]struct {
	name   string
	weight int
}{
	DimDNS: {
		{"Cloudflare DNS", 35}, {"Amazon Route 53", 25}, {"GoDaddy DNS", 14},
		{"Google Cloud DNS", 12}, {"DigitalOcean DNS", 8}, {"NS1", 6},
	},
	DimCA: {
		{"Let's Encrypt", 52}, {"DigiCert", 18}, {"Sectigo", 14},
		{"GlobalSign", 9}, {"GoDaddy CA", 7},
	},
	DimCDN: {
		{"Cloudflare", 42}, {"Amazon CloudFront", 22}, {"Akamai", 16},
		{"Fastly", 12}, {"Google Cloud CDN", 8},
	},
}

// assignProvider picks the provider for the i-th dependent site of a
// market, walking the weighted palette deterministically.
func assignProvider(d Dimension, i int) string {
	palette := providerPalettes[d]
	total := 0
	for _, p := range palette {
		total += p.weight
	}
	slot := i % total
	for _, p := range palette {
		if slot < p.weight {
			return p.name
		}
		slot -= p.weight
	}
	return palette[len(palette)-1].name
}

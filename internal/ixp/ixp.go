// Package ixp models Internet exchange point membership and the
// population-weighted presence analyses of Section 6.2 and Appendix I:
// which share of each country's Internet users sits in networks that peer
// at a given exchange (Figure 10's heatmap for the largest IXP per Latin
// American country, Figure 21's for exchanges in the United States).
package ixp

import (
	"sort"

	"vzlens/internal/aspop"
	"vzlens/internal/bgp"
)

// Exchange is one IXP.
type Exchange struct {
	Name    string
	Country string // where the exchange operates
	City    string
}

// LatAmExchanges returns the largest exchange of each Latin American
// country with one, as drawn in Figure 10, plus Equinix Bogota (the one
// exchange where a Venezuela-serving network peers).
func LatAmExchanges() []Exchange {
	return []Exchange{
		{"AMS-IX (CW)", "CW", "Willemstad"},
		{"AR-IX", "AR", "Buenos Aires"},
		{"CRIX", "CR", "San Jose"},
		{"GTIX", "GT", "Guatemala City"},
		{"Guyanix", "GY", "Georgetown"},
		{"IX.br (SP)", "BR", "Sao Paulo"},
		{"IXP-HN", "HN", "Tegucigalpa"},
		{"IXSY", "SX", "Philipsburg"},
		{"IXpy", "PY", "Asuncion"},
		{"InteRed (PA)", "PA", "Panama City"},
		{"NAP.CO", "CO", "Bogota"},
		{"NAP.EC - UIO", "EC", "Quito"},
		{"OCIX", "BQ", "Kralendijk"},
		{"PIT.BO", "BO", "La Paz"},
		{"PIT Chile (SCL)", "CL", "Santiago"},
		{"Peru IX", "PE", "Lima"},
		{"SUR-IX", "SR", "Paramaribo"},
		{"TTIX", "TT", "Port of Spain"},
		{"Equinix Bogota", "CO", "Bogota"},
	}
}

// USExchanges returns the United States exchanges of Appendix I that
// attract Latin American networks. (Figure 21 lists ~70; the ones below
// carry essentially all the Latin American presence.)
func USExchanges() []Exchange {
	return []Exchange{
		{"FL-IX", "US", "Miami"},
		{"Equinix Miami", "US", "Miami"},
		{"DE-CIX New York", "US", "New York"},
		{"Equinix Ashburn", "US", "Ashburn"},
		{"Equinix Dallas", "US", "Dallas"},
		{"Equinix Los Angeles", "US", "Los Angeles"},
		{"Any2West", "US", "Los Angeles"},
		{"NYIIX New York", "US", "New York"},
		{"MEX-IX McAllen", "US", "McAllen"},
		{"Equinix Chicago", "US", "Chicago"},
	}
}

// Membership records which networks peer at which exchange.
type Membership struct {
	byExchange map[string]map[bgp.ASN]bool
}

// NewMembership returns an empty Membership.
func NewMembership() *Membership {
	return &Membership{byExchange: map[string]map[bgp.ASN]bool{}}
}

// Join records asn peering at the named exchange.
func (m *Membership) Join(exchange string, asn bgp.ASN) {
	if m.byExchange == nil {
		m.byExchange = map[string]map[bgp.ASN]bool{}
	}
	set, ok := m.byExchange[exchange]
	if !ok {
		set = map[bgp.ASN]bool{}
		m.byExchange[exchange] = set
	}
	set[asn] = true
}

// Members returns the networks at the exchange, sorted.
func (m *Membership) Members(exchange string) []bgp.ASN {
	set := m.byExchange[exchange]
	out := make([]bgp.ASN, 0, len(set))
	for asn := range set {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Exchanges returns the exchanges with at least one member, sorted.
func (m *Membership) Exchanges() []string {
	out := make([]string, 0, len(m.byExchange))
	for name := range m.byExchange {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Cell is one heatmap entry: the share of a country's population in
// networks present at an exchange, and how many of its networks peer
// there.
type Cell struct {
	Share    float64 // 0-1
	Networks int
}

// Heatmap computes, for each exchange and each country in countries, the
// population share and network count of that country present at the
// exchange — Figures 10 and 21. Countries with zero presence are omitted
// from each exchange's row.
func Heatmap(m *Membership, pop *aspop.Estimates, exchanges []Exchange, countries []string) map[string]map[string]Cell {
	out := map[string]map[string]Cell{}
	for _, ex := range exchanges {
		members := m.Members(ex.Name)
		if len(members) == 0 {
			continue
		}
		row := map[string]Cell{}
		for _, cc := range countries {
			var asns []bgp.ASN
			for _, asn := range members {
				if est, ok := pop.Lookup(asn); ok && est.Country == cc {
					asns = append(asns, asn)
				}
			}
			if len(asns) == 0 {
				continue
			}
			row[cc] = Cell{Share: pop.ShareOf(cc, asns), Networks: len(asns)}
		}
		if len(row) > 0 {
			out[ex.Name] = row
		}
	}
	return out
}

// CountryPresence aggregates a country's total distinct networks and
// population share across a set of exchanges — the Appendix I summary
// ("seven networks serving a mere 7% of Venezuela's population").
func CountryPresence(m *Membership, pop *aspop.Estimates, exchanges []Exchange, cc string) Cell {
	seen := map[bgp.ASN]bool{}
	for _, ex := range exchanges {
		for _, asn := range m.Members(ex.Name) {
			if est, ok := pop.Lookup(asn); ok && est.Country == cc {
				seen[asn] = true
			}
		}
	}
	asns := make([]bgp.ASN, 0, len(seen))
	for asn := range seen {
		asns = append(asns, asn)
	}
	return Cell{Share: pop.ShareOf(cc, asns), Networks: len(asns)}
}

package world

import (
	"errors"

	"vzlens/internal/atlas"
	"vzlens/internal/bgp"
	"vzlens/internal/dnsroot"
	"vzlens/internal/geo"
	"vzlens/internal/months"
)

// This file is the world's surface for the live DNS data plane
// (internal/dnsplane): per-query catchment answers that are guaranteed
// to agree with the CHAOS campaign. DNSAnswerAt runs exactly the
// per-class steps chaosCells runs — same interned root lists, same
// netsim.Resolver.CatchmentInfo call with the client's country, same
// distance table — so a DNS response and a campaign row for the same
// (letter, month, client location) can never disagree.

// ErrNoInstances reports a root letter with no active instances at the
// requested month (the paper's post-withdrawal Venezuela, letter-wide):
// the DNS plane maps it onto SERVFAIL.
var ErrNoInstances = errors.New("world: root letter has no active instances")

// DNSAnswer is one resolved (letter, month, client location) triple:
// the instance that catches the client's queries, its CHAOS TXT
// identity at that month, and its index within the letter's site list.
type DNSAnswer struct {
	TXT       string
	Instance  dnsroot.Instance
	SiteIndex int
}

// DNSAnswerAt resolves which instance of letter serves a client in
// (cc, asn, city) at month m under plan (nil = baseline). It is the
// campaign kernel's chaosCells for a single (letter, class) cell:
// catchment through the month's (possibly overlaid) topology over the
// interned site list seen from the client's country, with the TXT
// identity from the per-era intern table. Unreachable clients return
// netsim.ErrUnreachable; letters with no active instances return
// ErrNoInstances.
func (w *World) DNSAnswerAt(letter dnsroot.Letter, m months.Month, cc string, asn bgp.ASN, city geo.City, plan *ScenarioPlan) (DNSAnswer, error) {
	resolver := w.topologyFor(m, plan)
	rl := w.rootSiteListAt(letter, m, plan)
	if len(rl.insts) == 0 {
		return DNSAnswer{}, ErrNoInstances
	}
	c, err := resolver.CatchmentInfo(asn, city, cc, rl.sites, w.Config.Policy)
	if err != nil {
		return DNSAnswer{}, err
	}
	return DNSAnswer{TXT: w.txtFor(rl, m)[c.Index], Instance: rl.insts[c.Index], SiteIndex: c.Index}, nil
}

// ProbeAt returns the probe with the given ID when it is connected at
// month m — the DNS plane's "simulated client identity" lookup for
// queries whose ECS names a probe address.
func (w *World) ProbeAt(id int, m months.Month) (atlas.Probe, bool) {
	p, ok := w.Fleet.Probe(id)
	if !ok || !p.ActiveAt(m) {
		return atlas.Probe{}, false
	}
	return p, true
}

// VantageCountries lists the countries with modeled networks in
// deterministic order — the DNS plane's ECS-geo fallback table.
func (w *World) VantageCountries() []string {
	return sortedCountries(w.Nets)
}

// CountryVantage returns a representative client location for cc: the
// country's transit AS and its primary city (the one its fleet and
// infrastructure placement lead with). This is the data plane's
// stand-in for a GeoIP lookup when ECS names an address outside the
// simulated probe space.
func (w *World) CountryVantage(cc string) (bgp.ASN, geo.City, bool) {
	net, ok := w.Nets[cc]
	if !ok {
		return 0, geo.City{}, false
	}
	cities := geo.CitiesIn(cc)
	if len(cities) == 0 {
		return 0, geo.City{}, false
	}
	return net.Transit, cities[0], true
}

// DefaultDNSMonth is the month a DNS plane pins to when the operator
// does not choose one: the end of the CHAOS window, i.e. the world's
// most recent simulated state.
func (w *World) DefaultDNSMonth() months.Month {
	return w.Config.ChaosEnd
}

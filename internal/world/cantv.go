package world

import (
	"net/netip"
	"slices"
	"time"

	"vzlens/internal/bgp"
	"vzlens/internal/months"
	"vzlens/internal/registry"
)

// span is a months.Window declared here so the tables below keep one
// positional literal a row.
type span months.Window

func mm(y int, mo time.Month) months.Month { return months.New(y, mo) }

// cantvTransits encodes Figure 9: every provider that served transit to
// CANTV for more than a year since January 1998, with its activity
// window. US-registered providers leave between 2013 and 2018; the
// submarine-cable partners (Telecom Italia via SAC/Americas-II, V.tal via
// GlobeNet, Columbus and Orange via Americas-II, Gold Data recently)
// sustain connectivity afterwards.
var cantvTransits = map[bgp.ASN][]span{
	ASVerizon:   {{mm(1998, time.January), mm(2013, time.July)}},
	ASSprint:    {{mm(2000, time.January), mm(2013, time.October)}},
	ASATT:       {{mm(2004, time.January), mm(2013, time.April)}},
	ASGTT:       {{mm(2011, time.June), mm(2017, time.July)}},
	ASnLayer:    {{mm(2012, time.July), mm(2017, time.April)}},
	ASLevel3:    {{mm(2007, time.January), mm(2018, time.July)}},
	ASGBLX:      {{mm(2002, time.January), mm(2018, time.April)}},
	ASArelion:   {{mm(2009, time.January), mm(2016, time.February)}},
	ASTelxius:   {{mm(2008, time.January), mm(2015, time.July)}},
	ASTelecomIT: {{mm(1998, time.June), 0}},
	ASOrange:    {{mm(2000, time.January), mm(2009, time.January)}, {mm(2021, time.July), 0}},
	ASColumbus:  {{mm(2006, time.January), 0}},
	ASVtal:      {{mm(2014, time.January), 0}},
	ASGoldData:  {{mm(2021, time.July), 0}},
	ASGoldDataI: {{mm(2022, time.January), 0}},
	ASISPNet:    {{mm(1998, time.January), mm(2003, time.January)}},
	ASNetRail:   {{mm(2000, time.January), mm(2004, time.June)}},
	ASLatamTel:  {{mm(2009, time.January), mm(2010, time.June)}},
}

// CANTVProvidersAt returns CANTV's active transit providers at month m.
func CANTVProvidersAt(m months.Month) []bgp.ASN {
	var out []bgp.ASN
	for asn, spans := range cantvTransits {
		for _, s := range spans {
			if months.Window(s).Contains(m) {
				out = append(out, asn)
				break
			}
		}
	}
	slices.Sort(out)
	return out
}

// maxCANTVCustomers is the ceiling of cantvCustomerCount: the campaign
// kernel's static base topology wires all of them and per-month
// overlays remove the ones not yet active.
const maxCANTVCustomers = 21

// cantvCustomerCount models CANTV's domestic transit expansion after its
// 2007 re-nationalization: academic institutions and local banks join
// steadily, reaching roughly twenty customers (Figure 8, bottom).
func cantvCustomerCount(m months.Month) int {
	start := mm(2007, time.January)
	if m.Before(start) {
		return 0
	}
	n := m.Sub(start) / 10 // one new customer roughly every ten months
	if n > maxCANTVCustomers {
		n = maxCANTVCustomers
	}
	return n
}

// cantvCustomerASN returns the ASN of CANTV's i-th domestic customer.
// Customers are small Venezuelan enterprise, bank and university
// networks.
func cantvCustomerASN(i int) bgp.ASN { return bgp.ASN(270100 + i) }

// prefixSpan is an announced prefix with its visibility window.
type prefixSpan struct {
	cidr string
	span span
}

// cantvPrefixes is CANTV's announcement history: early blocks from the
// 1990s/2000s, growth until Venezuela's 2014 stall (aligned with LACNIC
// exhaustion phases 1-2), then essentially flat.
var cantvPrefixes = []prefixSpan{
	{"200.44.0.0/16", span{mm(1998, time.January), 0}},
	{"200.82.0.0/15", span{mm(2000, time.June), 0}},
	{"150.186.0.0/16", span{mm(2001, time.March), 0}},
	{"200.11.128.0/17", span{mm(2002, time.June), 0}},
	{"201.208.0.0/13", span{mm(2005, time.March), 0}},
	{"190.72.0.0/14", span{mm(2007, time.September), 0}},
	{"186.88.0.0/13", span{mm(2010, time.June), 0}},
	{"190.202.0.0/16", span{mm(2012, time.March), 0}},
	{"190.36.0.0/15", span{mm(2013, time.June), 0}},
	{"190.38.0.0/15", span{mm(2022, time.June), 0}},
}

// telefonicaPrefixes encodes Appendix C: stable blocks, the /17s that
// vanished around June 2016, and their June 2023 reappearance inside
// larger aggregates (179.20.0.0/14 and 161.255.0.0/16).
var telefonicaPrefixes = []prefixSpan{
	// Stable footprint.
	{"200.35.64.0/18", span{mm(2005, time.June), 0}},
	{"186.24.0.0/17", span{mm(2008, time.March), 0}},
	{"186.25.0.0/16", span{mm(2008, time.September), 0}},
	{"200.71.128.0/19", span{mm(2006, time.June), 0}},
	{"186.185.0.0/16", span{mm(2011, time.January), 0}},
	{"186.186.0.0/15", span{mm(2012, time.June), 0}},
	{"181.180.0.0/14", span{mm(2012, time.September), 0}},
	{"186.164.0.0/15", span{mm(2013, time.January), 0}},
	{"190.96.0.0/15", span{mm(2013, time.March), 0}},
	// The disappearing /17s (June 2016 withdrawal).
	{"161.255.0.0/17", span{mm(2010, time.March), mm(2016, time.June)}},
	{"161.255.128.0/17", span{mm(2010, time.March), mm(2016, time.June)}},
	{"179.20.128.0/17", span{mm(2012, time.January), mm(2016, time.June)}},
	{"179.21.0.0/17", span{mm(2012, time.January), mm(2016, time.June)}},
	{"179.21.128.0/17", span{mm(2012, time.January), mm(2016, time.June)}},
	{"179.22.0.0/17", span{mm(2012, time.January), mm(2016, time.June)}},
	{"179.22.128.0/17", span{mm(2012, time.January), mm(2016, time.June)}},
	{"179.23.0.0/17", span{mm(2012, time.January), mm(2016, time.June)}},
	{"179.23.128.0/17", span{mm(2012, time.January), mm(2016, time.June)}},
	{"161.140.0.0/16", span{mm(2011, time.June), mm(2016, time.June)}},
	// June 2023 reappearance as larger aggregates.
	{"179.20.0.0/14", span{mm(2023, time.June), 0}},
	{"161.255.0.0/16", span{mm(2023, time.June), 0}},
}

// otherVEPrefixes gives the remaining Venezuelan providers their address
// blocks, with start dates spread through the market's growth years.
var otherVEPrefixes = map[bgp.ASN][]prefixSpan{
	21826:  {{"190.120.0.0/15", span{mm(2006, time.June), 0}}, {"190.76.0.0/15", span{mm(2011, time.June), 0}}, {"200.109.0.0/16", span{mm(2010, time.January), 0}}},
	264731: {{"190.204.0.0/15", span{mm(2013, time.June), 0}}},
	264628: {{"190.98.0.0/15", span{mm(2014, time.January), 0}}},
	61461:  {{"190.207.0.0/17", span{mm(2013, time.January), 0}}},
	263703: {{"190.207.128.0/17", span{mm(2013, time.March), 0}}},
	11562:  {{"200.74.192.0/18", span{mm(2003, time.June), 0}}, {"201.249.0.0/16", span{mm(2009, time.June), 0}}},
	272809: {{"190.216.0.0/17", span{mm(2019, time.June), 0}}},
	27889:  {{"200.84.0.0/14", span{mm(2004, time.June), 0}}},
}

// VEPrefixOrigins returns every Venezuelan (prefix, origin, window)
// triple used to synthesize RIBs and delegation files.
func VEPrefixOrigins() []struct {
	Prefix netip.Prefix
	Origin bgp.ASN
	Span   [2]months.Month
} {
	var out []struct {
		Prefix netip.Prefix
		Origin bgp.ASN
		Span   [2]months.Month
	}
	add := func(origin bgp.ASN, specs []prefixSpan) {
		for _, ps := range specs {
			out = append(out, struct {
				Prefix netip.Prefix
				Origin bgp.ASN
				Span   [2]months.Month
			}{netip.MustParsePrefix(ps.cidr), origin, [2]months.Month{ps.span.From, ps.span.To}})
		}
	}
	add(ASCANTV, cantvPrefixes)
	add(ASTelefonica, telefonicaPrefixes)
	for asn, specs := range otherVEPrefixes {
		add(asn, specs)
	}
	return out
}

// buildVERIB assembles the Venezuelan announcements visible at month m.
func buildVERIB(m months.Month) *bgp.RIB {
	rib := bgp.NewRIB()
	appendActive := func(origin bgp.ASN, specs []prefixSpan) {
		for _, ps := range specs {
			if months.Window(ps.span).Contains(m) {
				rib.Announce(bgp.Prefix{Network: netip.MustParsePrefix(ps.cidr), Origin: origin})
			}
		}
	}
	appendActive(ASCANTV, cantvPrefixes)
	appendActive(ASTelefonica, telefonicaPrefixes)
	for asn, specs := range otherVEPrefixes {
		appendActive(asn, specs)
	}
	return rib
}

// buildVERegistry synthesizes the LACNIC delegation records for
// Venezuela: each announced block was delegated when first announced, to
// the holder org of its origin AS.
func buildVERegistry() *registry.Table {
	t := registry.NewTable()
	holder := func(origin bgp.ASN) string {
		switch origin {
		case ASCANTV, ASMovilnet:
			return "ORG-CANV"
		case ASTelefonica:
			return "ORG-TELF"
		default:
			return "ORG-VE" + origin.String()
		}
	}
	seenASN := map[bgp.ASN]bool{}
	for _, po := range VEPrefixOrigins() {
		// Withdrawn announcements remain delegated; skip the 2023
		// re-aggregates to avoid double-counting delegated space.
		if po.Span[0].After(mm(2023, time.January)) {
			continue
		}
		bits := po.Prefix.Bits()
		t.Add(registry.Record{
			Registry: "lacnic",
			Country:  "VE",
			Type:     "ipv4",
			Start:    po.Prefix.Addr().String(),
			Value:    1 << (32 - bits),
			Date:     po.Span[0],
			Status:   "allocated",
			Holder:   holder(po.Origin),
		})
		if !seenASN[po.Origin] {
			seenASN[po.Origin] = true
			t.Add(registry.Record{
				Registry: "lacnic",
				Country:  "VE",
				Type:     "asn",
				Start:    po.Origin.String(),
				Value:    1,
				Date:     po.Span[0],
				Status:   "allocated",
				Holder:   holder(po.Origin),
			})
		}
	}
	// CANTV's lone IPv6 allocation (2019), still essentially unused —
	// consistent with the country's near-zero IPv6 adoption (Figure 5).
	t.Add(registry.Record{
		Registry: "lacnic",
		Country:  "VE",
		Type:     "ipv6",
		Start:    "2801:10::",
		Value:    32,
		Date:     mm(2019, time.June),
		Status:   "allocated",
		Holder:   "ORG-CANV",
	})
	return t
}

package bgp

import (
	"bytes"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"vzlens/internal/months"
)

func mon(y int, m time.Month) months.Month { return months.New(y, m) }

func TestGraphRelationships(t *testing.T) {
	g := NewGraph()
	g.AddRel(Rel{701, 8048, ProviderCustomer})
	g.AddRel(Rel{1239, 8048, ProviderCustomer})
	g.AddRel(Rel{8048, 27889, ProviderCustomer})
	g.AddRel(Rel{8048, 6306, PeerPeer})

	if got := g.Providers(8048); len(got) != 2 || got[0] != 701 || got[1] != 1239 {
		t.Errorf("Providers = %v", got)
	}
	if got := g.Customers(8048); len(got) != 1 || got[0] != 27889 {
		t.Errorf("Customers = %v", got)
	}
	if got := g.Peers(8048); len(got) != 1 || got[0] != 6306 {
		t.Errorf("Peers = %v", got)
	}
	if got := g.Peers(6306); len(got) != 1 || got[0] != 8048 {
		t.Errorf("Peers symmetric = %v", got)
	}
	if !g.HasProvider(8048, 701) || g.HasProvider(8048, 27889) {
		t.Error("HasProvider broken")
	}
}

func TestGraphDuplicateEdges(t *testing.T) {
	g := NewGraph()
	g.AddRel(Rel{701, 8048, ProviderCustomer})
	g.AddRel(Rel{701, 8048, ProviderCustomer})
	g.AddRel(Rel{8048, 6306, PeerPeer})
	g.AddRel(Rel{8048, 6306, PeerPeer})
	if got := relLines(t, g); len(got) != 2 {
		t.Errorf("edges = %q, want 2", got)
	}
	if len(g.Providers(8048)) != 1 {
		t.Errorf("duplicate provider stored")
	}
}

func TestGraphSerial1RoundTrip(t *testing.T) {
	g := NewGraph()
	g.AddRel(Rel{701, 8048, ProviderCustomer})
	g.AddRel(Rel{8048, 264731, ProviderCustomer})
	g.AddRel(Rel{6306, 8048, PeerPeer})

	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "#") {
		t.Error("missing comment header")
	}
	parsed, err := ParseGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := relLines(t, parsed), relLines(t, g); !slices.Equal(got, want) {
		t.Errorf("edges = %q, want %q", got, want)
	}
	if got := parsed.Providers(8048); len(got) != 1 || got[0] != 701 {
		t.Errorf("Providers after round trip = %v", got)
	}
	if got := parsed.Peers(8048); len(got) != 1 || got[0] != 6306 {
		t.Errorf("Peers after round trip = %v", got)
	}
}

func TestParseGraphErrors(t *testing.T) {
	for _, in := range []string{
		"701|8048",   // short
		"x|8048|-1",  // bad ASN
		"701|y|-1",   // bad ASN
		"701|8048|9", // unknown kind
		"701|8048|z", // non-numeric kind
	} {
		if _, err := ParseGraph(strings.NewReader(in)); err == nil {
			t.Errorf("ParseGraph(%q): want error", in)
		}
	}
	// Comments and blanks are fine.
	g, err := ParseGraph(strings.NewReader("# hi\n\n701|8048|-1\n"))
	if err != nil || len(relLines(t, g)) != 1 {
		t.Errorf("comment handling: %v %v", g, err)
	}
}

func TestArchiveSeries(t *testing.T) {
	a := NewArchive()
	g1 := NewGraph()
	g1.AddRel(Rel{701, 8048, ProviderCustomer})
	g1.AddRel(Rel{1239, 8048, ProviderCustomer})
	a.Put(mon(2013, time.January), g1)

	g2 := NewGraph()
	g2.AddRel(Rel{23520, 8048, ProviderCustomer})
	g2.AddRel(Rel{8048, 27889, ProviderCustomer})
	a.Put(mon(2020, time.January), g2)

	up := a.UpstreamSeries(8048)
	if up[mon(2013, time.January)] != 2 || up[mon(2020, time.January)] != 1 {
		t.Errorf("UpstreamSeries = %v", up)
	}
	down := a.DownstreamSeries(8048)
	if down[mon(2020, time.January)] != 1 || down[mon(2013, time.January)] != 0 {
		t.Errorf("DownstreamSeries = %v", down)
	}
	ms := a.Months()
	if len(ms) != 2 || ms[0] != mon(2013, time.January) {
		t.Errorf("Months = %v", ms)
	}
}

func TestProviderHistoryMinMonths(t *testing.T) {
	a := NewArchive()
	for i := 0; i < 14; i++ {
		g := NewGraph()
		g.AddRel(Rel{701, 8048, ProviderCustomer})
		if i == 0 {
			g.AddRel(Rel{9999, 8048, ProviderCustomer}) // one-month fluke
		}
		a.Put(mon(2000, time.January).Add(i), g)
	}
	hist := a.ProviderHistory(8048, 12)
	if _, ok := hist[701]; !ok {
		t.Error("701 should pass the 12-month filter")
	}
	if _, ok := hist[9999]; ok {
		t.Error("9999 should be filtered (paper: >12 months only)")
	}
	ms := hist[701]
	for i := 1; i < len(ms); i++ {
		if ms[i] < ms[i-1] {
			t.Fatal("history months unsorted")
		}
	}
}

func mustPrefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func TestRIBAnnouncedSpace(t *testing.T) {
	r := NewRIB()
	r.Announce(Prefix{mustPrefix("200.44.0.0/16"), 8048})
	r.Announce(Prefix{mustPrefix("186.88.0.0/17"), 8048})
	r.Announce(Prefix{mustPrefix("190.202.0.0/16"), 6306})
	if got := r.AnnouncedSpace(8048); got != 1<<16+1<<15 {
		t.Errorf("AnnouncedSpace(8048) = %d", got)
	}
	if got := r.AnnouncedSpace(6306); got != 1<<16 {
		t.Errorf("AnnouncedSpace(6306) = %d", got)
	}
	if got := r.AnnouncedSpace(9999); got != 0 {
		t.Errorf("AnnouncedSpace(9999) = %d", got)
	}
}

func TestRIBNestedPrefixNotDoubleCounted(t *testing.T) {
	r := NewRIB()
	r.Announce(Prefix{mustPrefix("200.44.0.0/16"), 8048})
	r.Announce(Prefix{mustPrefix("200.44.128.0/17"), 8048}) // nested more-specific
	if got := r.AnnouncedSpace(8048); got != 1<<16 {
		t.Errorf("AnnouncedSpace with nesting = %d, want %d", got, 1<<16)
	}
}

func TestRIBDuplicates(t *testing.T) {
	r := NewRIB()
	p := Prefix{mustPrefix("200.44.0.0/16"), 8048}
	r.Announce(p)
	r.Announce(p)
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
	if got := r.Prefixes(); len(got) != 1 || got[0] != p {
		t.Errorf("Prefixes = %v, want [%v]", got, p)
	}
}

func TestParseRIB(t *testing.T) {
	in := "# pfx2as\n200.44.0.0\t16\t8048\n190.202.0.0\t17\t6306_8048\n"
	r, err := ParseRIB(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	// MOAS takes first origin.
	if !slices.Contains(r.Prefixes(), Prefix{mustPrefix("190.202.0.0/17"), 6306}) {
		t.Error("MOAS first-origin rule broken")
	}
}

func TestParseRIBErrors(t *testing.T) {
	for _, in := range []string{
		"200.44.0.0\t16",         // short
		"banana\t16\t8048",       // bad addr
		"200.44.0.0\t99\t8048",   // bad length
		"200.44.0.0\t16\tbanana", // bad origin
	} {
		if _, err := ParseRIB(strings.NewReader(in)); err == nil {
			t.Errorf("ParseRIB(%q): want error", in)
		}
	}
}

func TestRIBRoundTrip(t *testing.T) {
	r := NewRIB()
	r.Announce(Prefix{mustPrefix("200.44.0.0/16"), 8048})
	r.Announce(Prefix{mustPrefix("186.88.0.0/17"), 8048})
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseRIB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Len() != r.Len() || parsed.AnnouncedSpace(8048) != r.AnnouncedSpace(8048) {
		t.Error("round trip mismatch")
	}
}

func TestVisibilityMatrix(t *testing.T) {
	a := NewRIBArchive()
	r1 := NewRIB()
	r1.Announce(Prefix{mustPrefix("161.255.0.0/17"), 6306})
	a.Put(mon(2016, time.March), r1)
	r2 := NewRIB() // prefix withdrawn
	a.Put(mon(2016, time.June), r2)
	r3 := NewRIB()
	r3.Announce(Prefix{mustPrefix("161.255.0.0/17"), 6306})
	a.Put(mon(2023, time.June), r3)

	matrix := a.VisibilityMatrix(6306)
	ms := matrix["161.255.0.0/17"]
	if len(ms) != 2 || ms[0] != mon(2016, time.March) || ms[1] != mon(2023, time.June) {
		t.Errorf("matrix = %v", matrix)
	}
	if got := a.Months(); len(got) != 3 {
		t.Errorf("Months = %v", got)
	}
}

func TestOrgMap(t *testing.T) {
	o := NewOrgMap()
	o.Add(ASInfo{8048, "CANTV Servicios, Venezuela", "VE", "ORG-CANV"})
	o.Add(ASInfo{27889, "Telecomunicaciones MOVILNET", "VE", "ORG-CANV"})
	o.Add(ASInfo{6306, "TELEFONICA VENEZOLANA", "VE", "ORG-TELF"})

	if o.Org(8048) != "ORG-CANV" {
		t.Errorf("Org = %q", o.Org(8048))
	}
	if o.Org(9999) != "AS9999" {
		t.Errorf("unknown Org = %q", o.Org(9999))
	}
	if got := o.ASNsOf("ORG-CANV"); len(got) != 2 || got[0] != 8048 || got[1] != 27889 {
		t.Errorf("ASNsOf = %v", got)
	}
	ve := 0
	for _, info := range o.All() {
		if info.Country == "VE" {
			ve++
		}
	}
	if ve != 3 {
		t.Errorf("VE ASes = %d, want 3", ve)
	}
	info, ok := o.Lookup(6306)
	if !ok || info.Name != "TELEFONICA VENEZOLANA" {
		t.Errorf("Lookup = %+v %v", info, ok)
	}
}

func TestOrgMapRoundTrip(t *testing.T) {
	o := NewOrgMap()
	o.Add(ASInfo{8048, "CANTV", "VE", "ORG-CANV"})
	o.Add(ASInfo{15169, "Google LLC", "US", "ORG-GOOG"})
	var buf bytes.Buffer
	if _, err := o.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseOrgMap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Len() != 2 || parsed.Org(15169) != "ORG-GOOG" {
		t.Error("round trip mismatch")
	}
}

func TestParseOrgMapErrors(t *testing.T) {
	if _, err := ParseOrgMap(strings.NewReader("8048|CANTV|VE")); err == nil {
		t.Error("short line: want error")
	}
	if _, err := ParseOrgMap(strings.NewReader("x|CANTV|VE|ORG")); err == nil {
		t.Error("bad ASN: want error")
	}
}

// Property: peer edges are always symmetric.
func TestQuickPeerSymmetry(t *testing.T) {
	f := func(pairs []struct{ A, B uint16 }) bool {
		g := NewGraph()
		for _, p := range pairs {
			if p.A == p.B {
				continue
			}
			g.AddRel(Rel{ASN(p.A), ASN(p.B), PeerPeer})
		}
		for _, a := range g.ASes() {
			for _, b := range g.Peers(a) {
				if !containsASN(g.peers[b], a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: serial-1 round trip preserves provider sets.
func TestQuickSerial1RoundTrip(t *testing.T) {
	f := func(cust []uint16) bool {
		g := NewGraph()
		for _, c := range cust {
			if c == 0 {
				continue
			}
			g.AddRel(Rel{701, ASN(c), ProviderCustomer})
		}
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			return false
		}
		parsed, err := ParseGraph(&buf)
		if err != nil {
			return false
		}
		return len(parsed.Customers(701)) == len(g.Customers(701))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// relLines returns g's relationship lines in serial-1 syntax, one per
// distinct edge, without the comment header.
func relLines(t *testing.T, g *Graph) []string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			out = append(out, line)
		}
	}
	return out
}

package aspop

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"vzlens/internal/bgp"
)

func TestTable1TopTen(t *testing.T) {
	e := Venezuela()
	top := e.TopN("VE", 10)
	if len(top) != 10 {
		t.Fatalf("top = %d entries", len(top))
	}
	// Exact figures from Table 1.
	if top[0].ASN != 8048 || top[0].Users != 4330868 {
		t.Errorf("rank 1 = %+v, want CANTV 4,330,868", top[0])
	}
	if top[1].ASN != 21826 || top[1].Users != 2490253 {
		t.Errorf("rank 2 = %+v, want Telemic 2,490,253", top[1])
	}
	if top[9].ASN != 27889 || top[9].Users != 417762 {
		t.Errorf("rank 10 = %+v, want MOVILNET 417,762", top[9])
	}
	var sum int64
	for _, est := range top {
		sum += est.Users
	}
	if sum != 15552683 {
		t.Errorf("top-10 sum = %d, want 15,552,683", sum)
	}
}

func TestTable1Shares(t *testing.T) {
	e := Venezuela()
	// CANTV holds 21.50% of the market.
	if got := e.Share(8048) * 100; math.Abs(got-21.50) > 0.2 {
		t.Errorf("CANTV share = %.2f%%, want 21.50%%", got)
	}
	// Top ten hold 77.18%.
	var asns []bgp.ASN
	for _, est := range e.TopN("VE", 10) {
		asns = append(asns, est.ASN)
	}
	if got := e.ShareOf("VE", asns) * 100; math.Abs(got-77.18) > 0.2 {
		t.Errorf("top-10 share = %.2f%%, want 77.18%%", got)
	}
	// CANTV is nearly double its closest competitor (paper).
	ratio := float64(e.byASN[8048].Users) / float64(e.byASN[21826].Users)
	if ratio < 1.6 || ratio > 2.1 {
		t.Errorf("CANTV/Telemic ratio = %.2f, want ~1.74", ratio)
	}
}

func TestShareOfDeduplicates(t *testing.T) {
	e := Venezuela()
	once := e.ShareOf("VE", []bgp.ASN{8048})
	twice := e.ShareOf("VE", []bgp.ASN{8048, 8048})
	if once != twice {
		t.Error("duplicate ASNs must not double-count")
	}
}

func TestShareOfIgnoresForeign(t *testing.T) {
	e := Venezuela()
	e.Add(Estimate{15169, "Google", "US", 1000000})
	with := e.ShareOf("VE", []bgp.ASN{8048, 15169})
	without := e.ShareOf("VE", []bgp.ASN{8048})
	if with != without {
		t.Error("foreign AS should not contribute to VE share")
	}
}

func TestLookupAndUsers(t *testing.T) {
	e := Venezuela()
	est, ok := e.Lookup(6306)
	if !ok || est.Name != "TELEFONICA VENEZOLANA, C.A." {
		t.Errorf("Lookup = %+v %v", est, ok)
	}
	if _, ok := e.Lookup(99999); ok {
		t.Error("unknown ASN resolved")
	}
	if e.byASN[99999].Users != 0 {
		t.Error("unknown users != 0")
	}
}

func TestEmptyCountry(t *testing.T) {
	e := Venezuela()
	if e.CountryUsers("ZZ") != 0 {
		t.Error("unknown country users != 0")
	}
	if e.ShareOf("ZZ", []bgp.ASN{8048}) != 0 {
		t.Error("unknown country share != 0")
	}
	if got := e.TopN("ZZ", 5); len(got) != 0 {
		t.Errorf("unknown country TopN = %v", got)
	}
}

func TestInCountryDescending(t *testing.T) {
	e := Venezuela()
	all := e.InCountry("VE")
	if len(all) != e.Len() {
		t.Fatalf("InCountry = %d, want %d", len(all), e.Len())
	}
	for i := 1; i < len(all); i++ {
		if all[i].Users > all[i-1].Users {
			t.Fatal("not descending")
		}
	}
}

func TestRoundTrip(t *testing.T) {
	e := Venezuela()
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Len() != e.Len() {
		t.Fatalf("round trip len = %d, want %d", parsed.Len(), e.Len())
	}
	if parsed.byASN[8048].Users != e.byASN[8048].Users {
		t.Error("CANTV users differ after round trip")
	}
	// Names with separators survive (SplitN keeps commas in names).
	est, _ := parsed.Lookup(6306)
	if est.Name != "TELEFONICA VENEZOLANA, C.A." {
		t.Errorf("name after round trip = %q", est.Name)
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"8048|123|VE",    // short
		"x|123|VE|name",  // bad ASN
		"8048|x|VE|name", // bad users
	} {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("Parse(%q): want error", in)
		}
	}
}

func TestTopNClamp(t *testing.T) {
	e := New()
	e.Add(Estimate{1, "A", "VE", 10})
	if got := e.TopN("VE", 99); len(got) != 1 {
		t.Errorf("TopN clamp = %v", got)
	}
}

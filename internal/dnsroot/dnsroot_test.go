package dnsroot

import (
	"testing"
	"testing/quick"
	"time"

	"vzlens/internal/geo"
	"vzlens/internal/months"
)

func TestLetters(t *testing.T) {
	ls := Letters()
	if len(ls) != 13 || ls[0] != 'A' || ls[12] != 'M' {
		t.Errorf("Letters = %v", ls)
	}
	for _, l := range ls {
		if !l.Valid() {
			t.Errorf("%v not valid", l)
		}
	}
	if Letter('N').Valid() || Letter('@').Valid() {
		t.Error("out-of-range letters should be invalid")
	}
}

func TestPaperInstanceNames(t *testing.T) {
	// The three concrete names the paper reports for Venezuela.
	ccs, _ := geo.LookupIATA("CCS")
	mar, _ := geo.LookupIATA("MAR")

	if got := InstanceName('L', ccs, 1, EraClassic); got != "ccs01.l.root-servers.org" {
		t.Errorf("classic L = %q, want ccs01.l.root-servers.org", got)
	}
	if got := InstanceName('F', ccs, 1, EraClassic); got != "ccs1a.f.root-servers.org" {
		t.Errorf("F = %q, want ccs1a.f.root-servers.org", got)
	}
	if got := InstanceName('L', mar, 1, EraModern); got != "aa.ve-mar.l.root" {
		t.Errorf("modern L = %q, want aa.ve-mar.l.root", got)
	}
}

func TestAllThirteenFormatsRoundTrip(t *testing.T) {
	city, _ := geo.LookupIATA("BOG")
	for _, l := range Letters() {
		for _, era := range []Era{EraClassic, EraModern} {
			name := InstanceName(l, city, 2, era)
			if name == "" {
				t.Fatalf("%s: empty instance name", l)
			}
			site, err := ParseInstance(l, name)
			if err != nil {
				t.Fatalf("%s (%v): parse %q: %v", l, era, name, err)
			}
			if site.Country != "CO" || site.IATA != "BOG" {
				t.Errorf("%s: parsed %q to %+v", l, name, site)
			}
		}
	}
}

func TestParseRejectsWrongConvention(t *testing.T) {
	// An F-style response handed to the L parser must not resolve.
	if _, err := ParseInstance('L', "bog1a.f.root-servers.org"); err == nil {
		t.Error("cross-letter parse should fail")
	}
	if _, err := ParseInstance('A', "garbage"); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := ParseInstance(Letter('z'), "s1.bog"); err == nil {
		t.Error("invalid letter should fail")
	}
	// Unknown location tag.
	if _, err := ParseInstance('I', "s1.zzz"); err == nil {
		t.Error("unknown airport code should fail")
	}
	// Country/city mismatch in country-carrying formats.
	if _, err := ParseInstance('K', "ns1.br-bog.k.ripe.net"); err == nil {
		t.Error("K with mismatched country should fail")
	}
	if _, err := ParseInstance('L', "aa.br-bog.l.root"); err == nil {
		t.Error("modern L with mismatched country should fail")
	}
}

func TestParseIsCaseAndSpaceTolerant(t *testing.T) {
	site, err := ParseInstance('I', "  S1.BOG \n")
	if err != nil {
		t.Fatal(err)
	}
	if site.City != "Bogota" {
		t.Errorf("City = %q", site.City)
	}
}

func TestServerTag(t *testing.T) {
	if serverTag(1) != "aa" || serverTag(2) != "ab" || serverTag(27) != "ba" {
		t.Errorf("serverTag: %q %q %q", serverTag(1), serverTag(2), serverTag(27))
	}
	if serverTag(0) != "aa" {
		t.Errorf("serverTag(0) = %q, want aa", serverTag(0))
	}
}

func mon(y int, m time.Month) months.Month { return months.New(y, m) }

func TestInstanceActiveWindow(t *testing.T) {
	i := Instance{Window: months.Window{From: mon(2016, time.January), To: mon(2019, time.July)}}
	if i.Contains(mon(2015, time.December)) {
		t.Error("active before start")
	}
	if !i.Contains(mon(2016, time.January)) || !i.Contains(mon(2019, time.June)) {
		t.Error("inactive inside window")
	}
	if i.Contains(mon(2019, time.July)) {
		t.Error("active at exclusive end")
	}
	open := Instance{Window: months.Window{From: mon(2016, time.January)}}
	if !open.Contains(mon(2030, time.January)) {
		t.Error("open-ended instance should stay active")
	}
}

func TestLRootRename(t *testing.T) {
	ccs, _ := geo.LookupIATA("CCS")
	i := Instance{Letter: 'L', City: ccs, Index: 1, Window: months.Window{From: mon(2015, time.January)}}
	before := i.ChaosName(mon(2017, time.January))
	after := i.ChaosName(mon(2019, time.January))
	if before != "ccs01.l.root-servers.org" {
		t.Errorf("before rename = %q", before)
	}
	if after != "aa.ve-ccs.l.root" {
		t.Errorf("after rename = %q", after)
	}
	// Non-L letters never change convention.
	f := Instance{Letter: 'F', City: ccs, Index: 1, Window: months.Window{From: mon(2015, time.January)}}
	if f.ChaosName(mon(2017, time.January)) != f.ChaosName(mon(2019, time.January)) {
		t.Error("F convention should not change")
	}
}

func TestDefaultDeploymentRegionalGrowth(t *testing.T) {
	d := DefaultDeployment()
	lacnic := map[string]bool{}
	for _, cc := range geo.LACNICCountries() {
		lacnic[cc] = true
	}
	count := func(m months.Month) int {
		total := 0
		for cc, n := range d.CountByCountry(m) {
			if lacnic[cc] {
				total += n
			}
		}
		return total
	}
	at2016 := count(mon(2016, time.January))
	at2024 := count(mon(2024, time.January))
	// Paper: 59 -> 138 replicas (a 2.34-fold rise).
	if at2016 < 57 || at2016 > 63 {
		t.Errorf("region replicas 2016 = %d, want ~59", at2016)
	}
	if at2024 < 132 || at2024 > 144 {
		t.Errorf("region replicas 2024 = %d, want ~138", at2024)
	}
	ratio := float64(at2024) / float64(at2016)
	if ratio < 2.0 || ratio > 2.7 {
		t.Errorf("growth ratio = %.2f, want ~2.34", ratio)
	}
}

func TestDefaultDeploymentCountryStories(t *testing.T) {
	d := DefaultDeployment()
	check := func(cc string, m months.Month, lo, hi int) {
		t.Helper()
		n := d.CountByCountry(m)[cc]
		if n < lo || n > hi {
			t.Errorf("%s at %v = %d, want [%d,%d]", cc, m, n, lo, hi)
		}
	}
	check("BR", mon(2016, time.January), 17, 19) // paper: 18
	check("BR", mon(2024, time.January), 39, 43) // paper: 41
	check("MX", mon(2016, time.January), 4, 4)
	check("MX", mon(2024, time.January), 15, 17)
	check("CL", mon(2016, time.January), 5, 5)
	check("CL", mon(2024, time.January), 19, 21)
	check("AR", mon(2016, time.January), 14, 14)
	check("AR", mon(2024, time.January), 15, 15)
}

func TestVenezuelaRegression(t *testing.T) {
	d := DefaultDeployment()
	// Two instances (L and F, Caracas) early in the window.
	early := d.InCountry("VE", mon(2016, time.June))
	if len(early) != 2 {
		t.Fatalf("VE 2016 = %d instances, want 2", len(early))
	}
	letters := map[Letter]bool{}
	for _, i := range early {
		letters[i.Letter] = true
		if i.City.Name != "Caracas" {
			t.Errorf("early VE instance in %s, want Caracas", i.City.Name)
		}
	}
	if !letters['L'] || !letters['F'] {
		t.Errorf("early VE letters = %v, want L and F", letters)
	}
	// Maracaibo L replaces the Caracas pair.
	mid := d.InCountry("VE", mon(2021, time.January))
	foundMaracaibo := false
	for _, i := range mid {
		if i.City.Name == "Maracaibo" && i.Letter == 'L' {
			foundMaracaibo = true
			// The modern-format name the paper saw.
			if name := i.ChaosName(mon(2021, time.January)); name != "aa.ve-mar.l.root" {
				t.Errorf("Maracaibo chaos name = %q", name)
			}
		}
	}
	if !foundMaracaibo {
		t.Error("Maracaibo L root missing in 2021")
	}
	// Nothing left by 2023.
	if late := d.InCountry("VE", mon(2023, time.June)); len(late) != 0 {
		t.Errorf("VE 2023 = %d instances, want 0", len(late))
	}
}

func TestUSHostsMost(t *testing.T) {
	d := DefaultDeployment()
	counts := d.CountByCountry(mon(2023, time.January))
	us := counts["US"]
	for cc, n := range counts {
		if cc != "US" && n > us {
			t.Errorf("%s (%d) exceeds US (%d)", cc, n, us)
		}
	}
	if us < 20 {
		t.Errorf("US = %d instances, want a large deployment", us)
	}
}

func TestActiveAtSorted(t *testing.T) {
	d := DefaultDeployment()
	active := d.ActiveAt(mon(2020, time.January))
	for i := 1; i < len(active); i++ {
		a, b := active[i-1], active[i]
		if a.Letter > b.Letter {
			t.Fatal("not letter-sorted")
		}
		if a.Letter == b.Letter && a.City.Name > b.City.Name {
			t.Fatal("not city-sorted within letter")
		}
	}
}

// Property: every generated instance name for any city and letter parses
// back to the same country.
func TestQuickNameParseInverse(t *testing.T) {
	cities := geo.AllCities()
	f := func(li, ci, idx uint8) bool {
		l := Letters()[int(li)%13]
		city := cities[int(ci)%len(cities)]
		index := int(idx)%20 + 1
		for _, era := range []Era{EraClassic, EraModern} {
			site, err := ParseInstance(l, InstanceName(l, city, index, era))
			if err != nil || site.Country != city.Country {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

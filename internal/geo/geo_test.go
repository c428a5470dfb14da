package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLookupCountry(t *testing.T) {
	c, ok := LookupCountry("VE")
	if !ok || c.Name != "Venezuela" || !c.LACNIC {
		t.Errorf("LookupCountry(VE) = %+v %v", c, ok)
	}
	if c, ok := LookupCountry("ve"); !ok || c.Code != "VE" {
		t.Error("lookup should be case-insensitive")
	}
	if _, ok := LookupCountry("ZZ"); ok {
		t.Error("unknown country should not resolve")
	}
	us, ok := LookupCountry("US")
	if !ok || us.LACNIC {
		t.Errorf("US = %+v %v", us, ok)
	}
}

func TestLACNICCountries(t *testing.T) {
	ccs := LACNICCountries()
	if len(ccs) != 28 {
		t.Errorf("LACNIC region size = %d, want 28 (paper: 28 countries in M-Lab data)", len(ccs))
	}
	seen := map[string]bool{}
	for _, cc := range ccs {
		if seen[cc] {
			t.Errorf("duplicate country %s", cc)
		}
		seen[cc] = true
		c, ok := LookupCountry(cc)
		if !ok || !c.LACNIC {
			t.Errorf("%s not a LACNIC country", cc)
		}
	}
	for _, want := range []string{"VE", "BR", "AR", "CL", "MX", "UY", "CO"} {
		if !seen[want] {
			t.Errorf("missing %s", want)
		}
	}
}

func TestComparablePeers(t *testing.T) {
	for _, cc := range ComparablePeers {
		c, ok := LookupCountry(cc)
		if !ok || !c.LACNIC {
			t.Errorf("peer %s invalid", cc)
		}
		if cc == "VE" {
			t.Error("VE is not its own peer")
		}
	}
}

func TestLookupIATA(t *testing.T) {
	c, ok := LookupIATA("CCS")
	if !ok || c.Country != "VE" || c.Name != "Caracas" {
		t.Errorf("CCS = %+v %v", c, ok)
	}
	if _, ok := LookupIATA("XXX"); ok {
		t.Error("unknown IATA should not resolve")
	}
	if c, ok := LookupIATA("ccs"); !ok || c.IATA != "CCS" {
		t.Error("IATA lookup should be case-insensitive")
	}
}

func TestCitiesIn(t *testing.T) {
	ve := CitiesIn("VE")
	if len(ve) < 2 {
		t.Fatalf("VE cities = %d, want >= 2 (Caracas, Maracaibo)", len(ve))
	}
	for _, c := range ve {
		if c.Country != "VE" {
			t.Errorf("city %s in wrong country %s", c.Name, c.Country)
		}
	}
	if len(CitiesIn("ZZ")) != 0 {
		t.Error("unknown country should have no cities")
	}
}

func TestAllCitiesIsCopy(t *testing.T) {
	a := AllCities()
	if len(a) == 0 {
		t.Fatal("empty city table")
	}
	orig := a[0].Name
	a[0].Name = "Mutated"
	b := AllCities()
	if b[0].Name != orig {
		t.Error("AllCities leaked internal state")
	}
}

func TestHaversineKnownDistance(t *testing.T) {
	km := func(a, b string) float64 {
		ca, okA := LookupIATA(a)
		cb, okB := LookupIATA(b)
		if !okA || !okB {
			t.Fatalf("unknown airport code in %s-%s", a, b)
		}
		return HaversineKm(ca.Lat, ca.Lon, cb.Lat, cb.Lon)
	}
	// Caracas to Bogota is ~1,000 km.
	if d := km("CCS", "BOG"); d < 800 || d > 1200 {
		t.Errorf("CCS-BOG = %.0f km, want ~1000", d)
	}
	// Curacao is ~295 km from Caracas per the paper (section 6.2).
	if d := km("CCS", "CUR"); d < 200 || d > 400 {
		t.Errorf("CCS-CUR = %.0f km, want ~295 (paper)", d)
	}
}

func TestHaversineZero(t *testing.T) {
	if d := HaversineKm(10, 20, 10, 20); d != 0 {
		t.Errorf("same point distance = %v", d)
	}
}

// Property: haversine is symmetric and non-negative.
func TestQuickHaversineSymmetric(t *testing.T) {
	f := func(a, b, c, d int16) bool {
		la1 := float64(a%90) / 1.0
		lo1 := float64(b % 180)
		la2 := float64(c % 90)
		lo2 := float64(d % 180)
		d1 := HaversineKm(la1, lo1, la2, lo2)
		d2 := HaversineKm(la2, lo2, la1, lo1)
		return d1 >= 0 && math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropagationDelay(t *testing.T) {
	// ~1000 km should be roughly 7-8 ms one-way with stretch.
	ms := PropagationDelayMs(1000)
	if ms < 5 || ms > 10 {
		t.Errorf("PropagationDelayMs(1000) = %v, want 5-10", ms)
	}
	if PropagationDelayMs(0) != 0 {
		t.Error("zero distance should be zero delay")
	}
}

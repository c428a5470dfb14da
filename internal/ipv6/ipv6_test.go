package ipv6

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"vzlens/internal/months"
)

func m(y int, mo time.Month) months.Month { return months.New(y, mo) }

func TestVenezuelaLagsMatchingFigure5(t *testing.T) {
	// Near-zero until 2021.
	if v := Adoption("VE", m(2020, time.June)); v > 0.5 {
		t.Errorf("VE 2020-06 = %.2f%%, want < 0.5%%", v)
	}
	// ~1.5% by mid-2023.
	v := Adoption("VE", m(2023, time.June))
	if v < 1.0 || v > 2.0 {
		t.Errorf("VE 2023-06 = %.2f%%, want ~1.5%%", v)
	}
}

func TestLeadersMatchFigure5(t *testing.T) {
	// Mexico and Brazil surpass ~40% in the latest snapshots.
	for _, cc := range []string{"MX", "BR"} {
		if v := Adoption(cc, m(2023, time.June)); v < 40 {
			t.Errorf("%s 2023-06 = %.1f%%, want >= 40%%", cc, v)
		}
	}
	// Argentina, Chile, Colombia around the 20% mark.
	for _, cc := range []string{"AR", "CL", "CO"} {
		v := Adoption(cc, m(2023, time.June))
		if v < 12 || v > 35 {
			t.Errorf("%s 2023-06 = %.1f%%, want ~20%%", cc, v)
		}
	}
}

func TestChileSurge2022(t *testing.T) {
	// Chile's curve steepens through 2022: the gain during 2022 exceeds
	// the gain during 2020.
	gain2020 := Adoption("CL", m(2021, time.January)) - Adoption("CL", m(2020, time.January))
	gain2022 := Adoption("CL", m(2023, time.January)) - Adoption("CL", m(2022, time.January))
	if gain2022 <= gain2020 {
		t.Errorf("CL 2022 gain %.1f <= 2020 gain %.1f, want surge", gain2022, gain2020)
	}
}

func TestRegionalMeanTrajectory(t *testing.T) {
	d := Collect(CoveredCountries(), m(2018, time.January), m(2023, time.June))
	mean := d.RegionalMean()
	at2018 := mean.At(m(2018, time.January))
	at2021 := mean.At(m(2021, time.January))
	at2023 := mean.At(m(2023, time.June))
	if at2018 > 7 {
		t.Errorf("regional mean 2018 = %.1f%%, want < 7%%", at2018)
	}
	if at2021 < 7 || at2021 > 15 {
		t.Errorf("regional mean 2021 = %.1f%%, want ~11%%", at2021)
	}
	if at2023 < 17 || at2023 > 27 {
		t.Errorf("regional mean 2023 = %.1f%%, want ~22%%", at2023)
	}
	if !(at2018 < at2021 && at2021 < at2023) {
		t.Error("regional mean should grow monotonically at the anchor points")
	}
}

func TestUnknownCountryZero(t *testing.T) {
	if v := Adoption("ZZ", m(2023, time.January)); v != 0 {
		t.Errorf("unknown country adoption = %v", v)
	}
}

func TestCaseInsensitive(t *testing.T) {
	if Adoption("ve", m(2023, time.June)) != Adoption("VE", m(2023, time.June)) {
		t.Error("country lookup should be case-insensitive")
	}
}

func TestDatasetRoundTrip(t *testing.T) {
	d := Collect([]string{"VE", "BR"}, m(2020, time.January), m(2020, time.March))
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := parsed.Panel().Countries(); len(got) != 2 {
		t.Fatalf("Countries = %v", got)
	}
	want := d.At("BR", m(2020, time.February))
	got := parsed.At("BR", m(2020, time.February))
	if diff := want - got; diff > 0.001 || diff < -0.001 {
		t.Errorf("round trip value = %v, want %v", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"VE,2020-01",        // short
		"VE,banana,1.0",     // bad month
		"VE,2020-01,banana", // bad pct
	} {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("Parse(%q): want error", in)
		}
	}
}

// Property: adoption is monotone non-decreasing and bounded by the
// ceiling for every covered country.
func TestQuickMonotoneBounded(t *testing.T) {
	ccs := CoveredCountries()
	f := func(ci uint8, a, b uint8) bool {
		cc := ccs[int(ci)%len(ccs)]
		m1 := m(2015, time.January).Add(int(a))
		m2 := m1.Add(int(b))
		v1, v2 := Adoption(cc, m1), Adoption(cc, m2)
		return v1 >= 0 && v2 <= 100 && v1 <= v2+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

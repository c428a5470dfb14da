package mlab

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"vzlens/internal/months"
)

func mon(y int, m time.Month) months.Month { return months.New(y, m) }

func TestFigure11Calibration(t *testing.T) {
	july23 := mon(2023, time.July)
	want := map[string]float64{
		"UY": 47.33, "BR": 32.44, "CL": 25.25, "MX": 18.66, "AR": 15.48, "VE": 2.93,
	}
	for cc, w := range want {
		if got := MedianSpeed(cc, july23); math.Abs(got-w) > 0.01 {
			t.Errorf("%s July 2023 = %.2f, want %.2f", cc, got, w)
		}
	}
}

func TestVenezuelaStagnation(t *testing.T) {
	// Below 1 Mbps for over a decade (2010 through late 2021).
	for y := 2010; y <= 2021; y++ {
		if v := MedianSpeed("VE", mon(y, time.June)); v >= 1.0 {
			t.Errorf("VE %d = %.2f Mbps, want < 1", y, v)
		}
	}
	// Recovery since end of 2021: 1 → ~3 Mbps.
	v22, v23 := MedianSpeed("VE", mon(2022, time.June)), MedianSpeed("VE", mon(2023, time.June))
	if v22 < 1.0 || v23 < 2.5 {
		t.Errorf("VE recovery = %.2f (2022), %.2f (2023)", v22, v23)
	}
}

func TestHistoricalEquivalences(t *testing.T) {
	// Paper: VE's July-2023 speed equals UY and MX in Nov 2013, CL in Jun
	// 2017, AR in Apr 2018, BR in Sep 2019.
	target := MedianSpeed("VE", mon(2023, time.July))
	checks := []struct {
		cc string
		m  months.Month
	}{
		{"UY", mon(2013, time.November)},
		{"MX", mon(2013, time.November)},
		{"CL", mon(2017, time.June)},
		{"AR", mon(2018, time.April)},
		{"BR", mon(2019, time.September)},
	}
	for _, c := range checks {
		if got := MedianSpeed(c.cc, c.m); math.Abs(got-target) > 0.05 {
			t.Errorf("%s at %v = %.2f, want %.2f (VE July 2023)", c.cc, c.m, got, target)
		}
	}
}

func TestNormalizedDeclineMatchesFigure11(t *testing.T) {
	// VE was near the regional average before 2010 (89%) and fell to
	// ~17% of it by 2023.
	mean := func(m months.Month) float64 {
		var sum float64
		var n int
		for _, cc := range Countries() {
			if v := MedianSpeed(cc, m); v > 0 {
				sum += v
				n++
			}
		}
		return sum / float64(n)
	}
	early := MedianSpeed("VE", mon(2009, time.July)) / mean(mon(2009, time.July))
	late := MedianSpeed("VE", mon(2023, time.July)) / mean(mon(2023, time.July))
	if early < 0.7 || early > 1.2 {
		t.Errorf("VE/regional 2009 = %.2f, want ~0.89", early)
	}
	if late < 0.12 || late > 0.25 {
		t.Errorf("VE/regional 2023 = %.2f, want ~0.17", late)
	}
}

func TestMedianSpeedClamping(t *testing.T) {
	before := MedianSpeed("VE", mon(2000, time.January))
	first := MedianSpeed("VE", mon(2007, time.July))
	if before != first {
		t.Errorf("pre-range speed %v != first anchor %v", before, first)
	}
	after := MedianSpeed("VE", mon(2030, time.January))
	last := MedianSpeed("VE", mon(2024, time.June))
	if after != last {
		t.Errorf("post-range speed %v != last anchor %v", after, last)
	}
	if MedianSpeed("ZZ", mon(2020, time.January)) != 0 {
		t.Error("unknown country should be 0")
	}
}

func TestGeneratorMedianConverges(t *testing.T) {
	g := NewGenerator(42)
	m := mon(2023, time.July)
	tests := g.Draw("VE", m, 20001)
	ar := NewArchive()
	ar.Add(tests)
	med, ok := ar.Median("VE", m)
	if !ok {
		t.Fatal("no median")
	}
	want := MedianSpeed("VE", m)
	if math.Abs(med-want)/want > 0.05 {
		t.Errorf("sample median = %.2f, want ~%.2f", med, want)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(7).Draw("BR", mon(2020, time.March), 10)
	b := NewGenerator(7).Draw("BR", mon(2020, time.March), 10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("generator not deterministic for equal seeds")
		}
	}
}

func TestGeneratorEdgeCases(t *testing.T) {
	g := NewGenerator(1)
	if got := g.Draw("ZZ", mon(2020, time.January), 10); got != nil {
		t.Error("unknown country should draw nothing")
	}
	if got := g.Draw("VE", mon(2020, time.January), 0); got != nil {
		t.Error("zero count should draw nothing")
	}
}

func TestArchiveHeavyTailMeanAboveMedian(t *testing.T) {
	g := NewGenerator(3)
	m := mon(2023, time.July)
	ar := NewArchive()
	ar.Add(g.Draw("BR", m, 5001))
	med, _ := ar.Median("BR", m)
	mean, _ := ar.Mean("BR", m)
	if mean <= med {
		t.Errorf("lognormal mean %.2f should exceed median %.2f", mean, med)
	}
}

func TestArchiveCountsAndPanel(t *testing.T) {
	g := NewGenerator(5)
	ar := NewArchive()
	m := mon(2023, time.July)
	ar.Add(g.Draw("VE", m, 100))
	ar.Add(g.Draw("BR", m, 200))
	if ar.TestCount() != 300 {
		t.Errorf("TestCount = %d", ar.TestCount())
	}
	if n := len(ar.samples["VE"][m]); n != 100 {
		t.Errorf("VE tests = %d", n)
	}
	p := ar.MedianPanel()
	if len(p.Countries()) != 2 {
		t.Errorf("panel countries = %v", p.Countries())
	}
	if _, ok := ar.Median("CL", m); ok {
		t.Error("no-sample country should have no median")
	}
}

func TestMonthlyVolume(t *testing.T) {
	if MonthlyVolume("BR") <= MonthlyVolume("VE") {
		t.Error("Brazil should test more than Venezuela")
	}
	if MonthlyVolume("HT") <= 0 {
		t.Error("every country has some volume")
	}
}

// Property: median speeds are positive and monotone non-decreasing for
// countries without a crisis dip (Uruguay).
func TestQuickUruguayMonotone(t *testing.T) {
	f := func(x, y uint8) bool {
		m1 := mon(2007, time.July).Add(int(x))
		m2 := m1.Add(int(y))
		a, b := MedianSpeed("UY", m1), MedianSpeed("UY", m2)
		return a > 0 && a <= b+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

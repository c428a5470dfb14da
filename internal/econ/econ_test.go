package econ

import (
	"math"
	"testing"
	"time"

	"vzlens/internal/months"
)

func jan(y int) months.Month { return months.New(y, time.January) }

func TestOilCollapseMatchesPaper(t *testing.T) {
	oil := OilProductionVE()
	drop, ok := DropFromPeak(oil)
	if !ok {
		t.Fatal("no drop computed")
	}
	// Paper Figure 1a annotates -81.49%.
	if drop > -78 || drop < -85 {
		t.Errorf("oil drop = %.2f%%, want ~-81.5%%", drop)
	}
	peak, _ := oil.MaxPoint()
	if peak.Month.Year() != 1998 {
		t.Errorf("oil peak year = %d, want 1998", peak.Month.Year())
	}
}

func TestGDPDropMatchesPaper(t *testing.T) {
	ve := GDPPerCapita().Country("VE")
	drop, ok := DropFromPeak(ve)
	if !ok {
		t.Fatal("no drop computed")
	}
	// Paper Figure 1b annotates -70.90% over 7 years.
	if math.Abs(drop-(-70.9)) > 2 {
		t.Errorf("GDP drop = %.2f%%, want ~-70.9%%", drop)
	}
	peak, _ := ve.MaxPoint()
	if peak.Month.Year() != 2013 {
		t.Errorf("GDP peak year = %d, want 2013", peak.Month.Year())
	}
}

func TestInflationPeak(t *testing.T) {
	inf := InflationVE()
	peak, ok := inf.MaxPoint()
	if !ok {
		t.Fatal("empty inflation series")
	}
	if peak.Value != 32000 || peak.Month.Year() != 2018 {
		t.Errorf("inflation peak = %v at %d, want 32000 at 2018", peak.Value, peak.Month.Year())
	}
}

func TestPopulationDecline(t *testing.T) {
	pop := PopulationVE()
	drop, ok := DropFromPeak(pop)
	if !ok {
		t.Fatal("no drop computed")
	}
	// Paper Figure 1d annotates -13.85%.
	if math.Abs(drop-(-13.85)) > 1 {
		t.Errorf("population drop = %.2f%%, want ~-13.85%%", drop)
	}
}

func TestAnnualCoverage(t *testing.T) {
	for name, s := range map[string]interface {
		Get(months.Month) (float64, bool)
	}{
		"oil":        OilProductionVE(),
		"inflation":  InflationVE(),
		"population": PopulationVE(),
	} {
		for y := 1980; y <= 2024; y++ {
			if _, ok := s.Get(jan(y)); !ok {
				t.Errorf("%s: missing year %d", name, y)
			}
		}
	}
}

// TestGDPRanksMatchFigure13 checks the paper's five-yearly rank
// annotations for Venezuela: 3 (1980), 2 (1985), 8 (1990), 9 (1995),
// 7 (2000), 6 (2005), 6 (2010), 18 (2015), 23 (2020).
func TestGDPRanksMatchFigure13(t *testing.T) {
	p := GDPPerCapita()
	want := map[int]int{
		1980: 3, 1985: 2, 1990: 8, 1995: 9, 2000: 7,
		2005: 6, 2010: 6, 2015: 18, 2020: 23,
	}
	for year, wantRank := range want {
		rank, of, ok := p.RankAt("VE", jan(year))
		if !ok {
			t.Fatalf("no VE value for %d", year)
		}
		if of != 24 {
			t.Errorf("%d: ranked among %d countries, want 24", year, of)
		}
		if rank != wantRank {
			t.Errorf("%d: VE rank = %d, want %d", year, rank, wantRank)
		}
	}
}

func TestGDPCountries(t *testing.T) {
	if len(gdpAnchors) != 24 {
		t.Fatalf("countries = %d, want 24", len(gdpAnchors))
	}
}

func TestInterpolationIsMonotoneBetweenAnchors(t *testing.T) {
	// GDP of Chile grows monotonically between the 1990 and 1995 anchors.
	cl := GDPPerCapita().Country("CL")
	prev := cl.At(jan(1990))
	for y := 1991; y <= 1995; y++ {
		v := cl.At(jan(y))
		if v < prev {
			t.Errorf("CL GDP decreases %d→%d: %v → %v", y-1, y, prev, v)
		}
		prev = v
	}
}

func TestDropFromPeakEdgeCases(t *testing.T) {
	if _, ok := DropFromPeak(GDPPerCapita().Country("ZZ")); ok {
		t.Error("empty series should not produce a drop")
	}
	// Strictly growing series has no post-peak decline.
	uy := GDPPerCapita().Country("UY")
	last, _ := uy.Last()
	peak, _ := uy.MaxPoint()
	if peak.Month == last.Month {
		if _, ok := DropFromPeak(uy); ok {
			t.Error("peak-at-end series should not produce a drop")
		}
	}
}

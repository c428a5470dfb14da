// Package econ provides the macroeconomic indicator series behind the
// paper's Figure 1 (Venezuela's oil production, GDP per capita, inflation
// and population) and Figure 13 (GDP-per-capita ranks across the LACNIC
// region).
//
// The paper sources these from the IMF Data Mapper and OECD crude-oil
// production statistics. Those archives are not redistributable, so this
// package embeds piecewise-linear annual series calibrated to the paper's
// reported shape: the -81.49% oil collapse, the -70.90% GDP-per-capita
// drop in seven years, the 32,000% inflation peak, the -13.85% population
// decline, and Venezuela's region-wide GDP rank path 3, 2, 8, 9, 7, 6, 6,
// 18, 23 at five-year marks from 1980.
package econ

import (
	"sort"
	"time"

	"vzlens/internal/months"
	"vzlens/internal/series"
)

// anchor is one (year, value) control point of a piecewise-linear series.
type anchor struct {
	year  int
	value float64
}

// interpolate expands anchors into an annual series (January months) from
// the first to the last anchor year.
func interpolate(anchors []anchor) *series.Series {
	out := series.New()
	if len(anchors) == 0 {
		return out
	}
	sorted := make([]anchor, len(anchors))
	copy(sorted, anchors)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].year < sorted[j].year })
	for i := 0; i < len(sorted)-1; i++ {
		a, b := sorted[i], sorted[i+1]
		span := b.year - a.year
		for y := a.year; y < b.year; y++ {
			frac := float64(y-a.year) / float64(span)
			out.Set(months.New(y, time.January), a.value*(1-frac)+b.value*frac)
		}
	}
	last := sorted[len(sorted)-1]
	out.Set(months.New(last.year, time.January), last.value)
	return out
}

// OilProductionVE returns Venezuela's crude production in thousand barrels
// per day, annual 1980-2024. Peak 3,480 kb/d (1998); trough 644 kb/d
// (2020), a -81.5% collapse matching Figure 1a's annotation.
func OilProductionVE() *series.Series {
	return interpolate([]anchor{
		{1980, 2168}, {1985, 1680}, {1990, 2137}, {1995, 2750},
		{1998, 3480}, {2000, 3155}, {2003, 2640}, {2005, 3270},
		{2008, 3220}, {2010, 2840}, {2013, 2900}, {2015, 2650},
		{2017, 2070}, {2018, 1510}, {2019, 1000}, {2020, 644},
		{2021, 680}, {2022, 716}, {2023, 780}, {2024, 850},
	})
}

// InflationVE returns Venezuela's annual inflation rate in percent,
// 1980-2024, peaking at 32,000% in 2018 (Figure 1c, log scale).
func InflationVE() *series.Series {
	return interpolate([]anchor{
		{1980, 20}, {1985, 11}, {1989, 84}, {1992, 31}, {1996, 100},
		{2000, 16}, {2004, 22}, {2008, 30}, {2013, 40}, {2015, 122},
		{2016, 255}, {2017, 438}, {2018, 32000}, {2019, 19900},
		{2020, 2355}, {2021, 1588}, {2022, 210}, {2023, 337}, {2024, 60},
	})
}

// PopulationVE returns Venezuela's population in millions, 1980-2024.
// Peak 30.08M (2015); trough 25.91M (2022), -13.85% as annotated in
// Figure 1d.
func PopulationVE() *series.Series {
	return interpolate([]anchor{
		{1980, 15.0}, {1985, 17.3}, {1990, 19.8}, {1995, 22.0},
		{2000, 24.5}, {2005, 26.6}, {2010, 28.4}, {2015, 30.08},
		{2018, 28.9}, {2020, 26.4}, {2022, 25.91}, {2024, 26.2},
	})
}

// gdpAnchors holds GDP per capita (nominal USD) control points per
// country. The values are synthetic but rank-calibrated: at every
// five-year mark Venezuela's descending rank matches the paper's Figure 13
// annotations.
var gdpAnchors = map[string][]anchor{
	"AR": {{1980, 8500}, {1985, 5500}, {1990, 4300}, {1995, 7800}, {2000, 8200}, {2005, 5500}, {2010, 11500}, {2015, 13800}, {2020, 8500}, {2024, 13000}},
	"BO": {{1980, 1000}, {1985, 900}, {1990, 800}, {1995, 900}, {2000, 1000}, {2005, 1100}, {2010, 2000}, {2015, 3100}, {2020, 3800}, {2024, 3900}},
	"BR": {{1980, 4800}, {1985, 3800}, {1990, 3100}, {1995, 4700}, {2000, 3700}, {2005, 4800}, {2010, 11300}, {2015, 8800}, {2020, 6800}, {2024, 10500}},
	"BZ": {{1980, 1500}, {1985, 1400}, {1990, 1900}, {1995, 2800}, {2000, 3400}, {2005, 3900}, {2010, 4300}, {2015, 4900}, {2020, 4400}, {2024, 5200}},
	"CL": {{1980, 5500}, {1985, 3500}, {1990, 2600}, {1995, 5000}, {2000, 5100}, {2005, 7600}, {2010, 12800}, {2015, 13500}, {2020, 13000}, {2024, 16500}},
	"CO": {{1980, 1800}, {1985, 1500}, {1990, 1600}, {1995, 2500}, {2000, 2500}, {2005, 3400}, {2010, 6300}, {2015, 6700}, {2020, 5300}, {2024, 7000}},
	"CR": {{1980, 3800}, {1985, 2900}, {1990, 1800}, {1995, 3750}, {2000, 4100}, {2005, 4700}, {2010, 8200}, {2015, 11300}, {2020, 12000}, {2024, 14500}},
	"CU": {{1980, 3000}, {1985, 2800}, {1990, 2400}, {1995, 2400}, {2000, 2800}, {2005, 3800}, {2010, 5700}, {2015, 7700}, {2020, 8000}, {2024, 8200}},
	"DO": {{1980, 2100}, {1985, 1900}, {1990, 1600}, {1995, 2100}, {2000, 2800}, {2005, 3700}, {2010, 5400}, {2015, 6900}, {2020, 7200}, {2024, 9800}},
	"EC": {{1980, 1900}, {1985, 1700}, {1990, 1500}, {1995, 2100}, {2000, 1500}, {2005, 3000}, {2010, 4600}, {2015, 6600}, {2020, 5600}, {2024, 6500}},
	"GT": {{1980, 2200}, {1985, 1900}, {1990, 1300}, {1995, 1600}, {2000, 1900}, {2005, 2200}, {2010, 2900}, {2015, 4000}, {2020, 4400}, {2024, 5400}},
	"GY": {{1980, 900}, {1985, 800}, {1990, 700}, {1995, 1000}, {2000, 1000}, {2005, 1100}, {2010, 3000}, {2015, 4600}, {2020, 6900}, {2024, 19000}},
	"HN": {{1980, 1200}, {1985, 1100}, {1990, 1000}, {1995, 1100}, {2000, 1300}, {2005, 1500}, {2010, 2100}, {2015, 2300}, {2020, 3700}, {2024, 3900}},
	"HT": {{1980, 800}, {1985, 900}, {1990, 700}, {1995, 800}, {2000, 800}, {2005, 900}, {2010, 1200}, {2015, 1400}, {2020, 1400}, {2024, 1700}},
	"MX": {{1980, 5200}, {1985, 4800}, {1990, 3100}, {1995, 4000}, {2000, 7000}, {2005, 8300}, {2010, 9300}, {2015, 9600}, {2020, 8300}, {2024, 13000}},
	"NI": {{1980, 1100}, {1985, 1000}, {1990, 900}, {1995, 1000}, {2000, 1200}, {2005, 1300}, {2010, 1700}, {2015, 2100}, {2020, 3600}, {2024, 3900}},
	"PA": {{1980, 3600}, {1985, 3400}, {1990, 2550}, {1995, 3900}, {2000, 4900}, {2005, 4900}, {2010, 8000}, {2015, 13000}, {2020, 12300}, {2024, 17000}},
	"PE": {{1980, 2000}, {1985, 1700}, {1990, 1200}, {1995, 2200}, {2000, 2000}, {2005, 2900}, {2010, 5100}, {2015, 6750}, {2020, 6100}, {2024, 7800}},
	"PY": {{1980, 1700}, {1985, 1500}, {1990, 1400}, {1995, 1900}, {2000, 1700}, {2005, 1700}, {2010, 3200}, {2015, 5400}, {2020, 4900}, {2024, 6200}},
	"SR": {{1980, 2800}, {1985, 2600}, {1990, 2100}, {1995, 1900}, {2000, 2200}, {2005, 3100}, {2010, 8500}, {2015, 8900}, {2020, 6100}, {2024, 6800}},
	"SV": {{1980, 1600}, {1985, 1500}, {1990, 1200}, {1995, 1700}, {2000, 2200}, {2005, 2800}, {2010, 3500}, {2015, 3500}, {2020, 3900}, {2024, 5300}},
	"TT": {{1980, 9000}, {1985, 8200}, {1990, 4200}, {1995, 4600}, {2000, 6400}, {2005, 12000}, {2010, 16000}, {2015, 17000}, {2020, 15000}, {2024, 16500}},
	"UY": {{1980, 6500}, {1985, 4500}, {1990, 3000}, {1995, 6000}, {2000, 6900}, {2005, 5600}, {2010, 11900}, {2015, 15200}, {2020, 15500}, {2024, 22000}},
	"VE": {{1980, 8000}, {1985, 7600}, {1990, 2500}, {1995, 3700}, {2000, 4800}, {2005, 5450}, {2010, 11000}, {2013, 12200}, {2015, 4500}, {2020, 3550}, {2024, 4200}},
}

// GDPPerCapita returns the per-country annual GDP-per-capita panel for the
// 24 LACNIC economies the IMF reports (the registry's small Caribbean
// territories have no IMF series and are excluded, as in the paper).
func GDPPerCapita() *series.Panel {
	p := series.NewPanel()
	for cc, a := range gdpAnchors {
		dst := p.Country(cc)
		for _, pt := range interpolate(a).Points() {
			dst.Set(pt.Month, pt.Value)
		}
	}
	return p
}

// DropFromPeak returns the percent change from the series' maximum to the
// minimum value observed at or after the peak month — the statistic
// annotated on Figure 1's panels. ok is false for series with fewer than
// two points.
func DropFromPeak(s *series.Series) (percent float64, ok bool) {
	peak, found := s.MaxPoint()
	if !found || peak.Value == 0 {
		return 0, false
	}
	min := peak.Value
	seen := false
	for _, p := range s.Points() {
		if p.Month < peak.Month {
			continue
		}
		seen = true
		if p.Value < min {
			min = p.Value
		}
	}
	if !seen || min == peak.Value {
		return 0, false
	}
	return (min - peak.Value) / peak.Value * 100, true
}

// Package mlab models the Measurement Lab NDT archive the paper
// aggregates in Section 7.1: crowdsourced download-speed tests per
// country, aggregated to month-country medians. The generator draws
// individual tests from a lognormal around each country's calibrated
// median trajectory — crowdsourced speed tests are heavy-tailed, which is
// exactly why the paper reports medians.
//
// Calibration follows Figure 11: Venezuela stagnates below 1 Mbps from
// 2010 through late 2021 and recovers to 2.93 Mbps by July 2023, when its
// peers reach 47.33 (UY), 32.44 (BR), 25.25 (CL), 18.66 (MX) and 15.48
// (AR) Mbps; the historical equivalences the paper lists (Uruguay and
// Mexico in November 2013, Chile in June 2017, Argentina in April 2018,
// Brazil in September 2019 all at Venezuela's current speed) hold by
// construction.
package mlab

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"vzlens/internal/months"
	"vzlens/internal/series"
	"vzlens/internal/stats"
)

// anchor pins a country's median download speed at a month.
type anchor struct {
	m    months.Month
	mbps float64
}

func a(y int, mo time.Month, mbps float64) anchor {
	return anchor{months.New(y, mo), mbps}
}

// speedAnchors drives each country's median NDT download speed.
// Interpolation between anchors is geometric (exponential growth), the
// empirical shape of broadband build-outs.
var speedAnchors = map[string][]anchor{
	"VE": {a(2007, time.July, 0.70), a(2009, time.July, 0.85), a(2012, time.January, 0.90),
		a(2014, time.January, 0.80), a(2018, time.January, 0.72), a(2021, time.October, 0.95),
		a(2022, time.June, 1.80), a(2023, time.July, 2.93), a(2024, time.June, 3.20)},
	"UY": {a(2007, time.July, 1.40), a(2013, time.November, 2.93), a(2017, time.July, 11.0),
		a(2020, time.July, 28.0), a(2023, time.July, 47.33), a(2024, time.June, 50.0)},
	"MX": {a(2007, time.July, 1.40), a(2013, time.November, 2.93), a(2018, time.July, 7.5),
		a(2021, time.July, 13.0), a(2023, time.July, 18.66), a(2024, time.June, 20.5)},
	"CL": {a(2007, time.July, 1.20), a(2013, time.July, 1.9), a(2017, time.June, 2.93),
		a(2020, time.July, 11.0), a(2023, time.July, 25.25), a(2024, time.June, 28.0)},
	"AR": {a(2007, time.July, 1.30), a(2014, time.July, 2.0), a(2018, time.April, 2.93),
		a(2021, time.July, 8.0), a(2023, time.July, 15.48), a(2024, time.June, 17.0)},
	"BR": {a(2007, time.July, 1.20), a(2015, time.July, 2.2), a(2019, time.September, 2.93),
		a(2021, time.July, 12.0), a(2023, time.July, 32.44), a(2024, time.June, 36.0)},
	"CO": {a(2007, time.July, 1.00), a(2015, time.July, 2.4), a(2020, time.July, 6.0),
		a(2023, time.July, 12.0), a(2024, time.June, 13.5)},
	"PE": {a(2007, time.July, 0.85), a(2016, time.July, 2.5), a(2020, time.July, 5.5),
		a(2023, time.July, 10.0), a(2024, time.June, 11.5)},
	"EC": {a(2007, time.July, 0.80), a(2016, time.July, 2.3), a(2020, time.July, 5.8),
		a(2023, time.July, 9.0), a(2024, time.June, 10.0)},
	"PY": {a(2007, time.July, 0.35), a(2016, time.July, 1.6), a(2020, time.July, 4.0),
		a(2023, time.July, 8.0), a(2024, time.June, 9.0)},
	"BO": {a(2007, time.July, 0.25), a(2016, time.July, 1.0), a(2020, time.July, 2.4),
		a(2023, time.July, 4.2), a(2024, time.June, 5.0)},
	"CR": {a(2007, time.July, 1.10), a(2016, time.July, 2.8), a(2020, time.July, 7.0),
		a(2023, time.July, 13.0), a(2024, time.June, 14.5)},
	"PA": {a(2007, time.July, 1.10), a(2016, time.July, 3.2), a(2020, time.July, 8.0),
		a(2023, time.July, 14.0), a(2024, time.June, 16.0)},
	"DO": {a(2007, time.July, 0.45), a(2016, time.July, 2.0), a(2020, time.July, 5.0),
		a(2023, time.July, 9.0), a(2024, time.June, 10.0)},
	"GT": {a(2007, time.July, 0.35), a(2016, time.July, 1.7), a(2020, time.July, 4.0),
		a(2023, time.July, 7.0), a(2024, time.June, 8.0)},
	"HN": {a(2007, time.July, 0.30), a(2016, time.July, 1.3), a(2020, time.July, 3.0),
		a(2023, time.July, 5.0), a(2024, time.June, 6.0)},
	"NI": {a(2007, time.July, 0.30), a(2016, time.July, 1.2), a(2020, time.July, 2.5),
		a(2023, time.July, 4.0), a(2024, time.June, 4.5)},
	"HT": {a(2007, time.July, 0.20), a(2016, time.July, 0.7), a(2020, time.July, 1.3),
		a(2023, time.July, 2.0), a(2024, time.June, 2.3)},
	"CU": {a(2008, time.July, 0.15), a(2016, time.July, 0.5), a(2020, time.July, 1.0),
		a(2023, time.July, 1.5), a(2024, time.June, 1.8)},
	"TT": {a(2007, time.July, 1.40), a(2016, time.July, 3.5), a(2020, time.July, 9.0),
		a(2023, time.July, 15.0), a(2024, time.June, 17.0)},
	"SR": {a(2007, time.July, 0.35), a(2016, time.July, 1.5), a(2020, time.July, 3.5),
		a(2023, time.July, 6.0), a(2024, time.June, 7.0)},
	"GY": {a(2007, time.July, 0.30), a(2016, time.July, 1.2), a(2020, time.July, 3.0),
		a(2023, time.July, 5.5), a(2024, time.June, 7.0)},
	"BZ": {a(2007, time.July, 0.35), a(2016, time.July, 1.5), a(2020, time.July, 3.5),
		a(2023, time.July, 6.0), a(2024, time.June, 7.0)},
	"SV": {a(2007, time.July, 0.35), a(2016, time.July, 1.6), a(2020, time.July, 3.8),
		a(2023, time.July, 6.5), a(2024, time.June, 7.5)},
	"GF": {a(2007, time.July, 1.30), a(2016, time.July, 3.0), a(2020, time.July, 6.5),
		a(2023, time.July, 10.0), a(2024, time.June, 11.0)},
	"CW": {a(2007, time.July, 1.80), a(2016, time.July, 4.5), a(2020, time.July, 12.0),
		a(2023, time.July, 20.0), a(2024, time.June, 22.0)},
	"BQ": {a(2007, time.July, 1.60), a(2016, time.July, 4.0), a(2020, time.July, 11.0),
		a(2023, time.July, 18.0), a(2024, time.June, 20.0)},
	"SX": {a(2007, time.July, 1.60), a(2016, time.July, 4.0), a(2020, time.July, 11.0),
		a(2023, time.July, 18.0), a(2024, time.June, 20.0)},
}

// MedianSpeed returns the calibrated median download speed (Mbps) for
// country cc at month m, interpolating geometrically between anchors and
// clamping outside the anchored range. Unknown countries return 0.
func MedianSpeed(cc string, m months.Month) float64 {
	as, ok := speedAnchors[cc]
	if !ok || len(as) == 0 {
		return 0
	}
	if !m.After(as[0].m) {
		return as[0].mbps
	}
	last := as[len(as)-1]
	if !m.Before(last.m) {
		return last.mbps
	}
	for i := 0; i < len(as)-1; i++ {
		lo, hi := as[i], as[i+1]
		if m.Before(lo.m) || !m.Before(hi.m) {
			continue
		}
		frac := float64(m.Sub(lo.m)) / float64(hi.m.Sub(lo.m))
		// Geometric interpolation: exp(lerp(log lo, log hi)).
		return math.Exp(math.Log(lo.mbps)*(1-frac) + math.Log(hi.mbps)*frac)
	}
	return last.mbps
}

// Countries returns the countries with calibrated curves, sorted.
func Countries() []string {
	out := make([]string, 0, len(speedAnchors))
	for cc := range speedAnchors {
		out = append(out, cc)
	}
	sort.Strings(out)
	return out
}

// Test is one NDT download measurement.
type Test struct {
	Month        months.Month
	Country      string
	DownloadMbps float64
}

// Generator draws synthetic NDT tests. The zero value is not usable; use
// NewGenerator with a seed for reproducibility.
type Generator struct {
	rng   *rand.Rand
	sigma float64
}

// NewGenerator returns a deterministic test generator. Sigma is the
// lognormal shape parameter; 0.8 reproduces the dispersion of
// crowdsourced NDT data.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed)), sigma: 0.8}
}

// Draw samples n tests for (cc, m) around the calibrated median. The
// median of the lognormal equals exp(mu), so the sample median converges
// to MedianSpeed(cc, m).
func (g *Generator) Draw(cc string, m months.Month, n int) []Test {
	med := MedianSpeed(cc, m)
	if med <= 0 || n <= 0 {
		return nil
	}
	mu := math.Log(med)
	out := make([]Test, n)
	for i := range out {
		speed := math.Exp(mu + g.rng.NormFloat64()*g.sigma)
		out[i] = Test{Month: m, Country: cc, DownloadMbps: speed}
	}
	return out
}

// MonthlyVolume approximates each country's crowdsourced test volume
// (scaled down from M-Lab's millions). Bigger Internet populations test
// more.
func MonthlyVolume(cc string) int {
	switch cc {
	case "BR":
		return 1200
	case "MX", "AR", "CO", "CL":
		return 500
	case "VE", "PE", "EC", "UY":
		return 250
	default:
		return 120
	}
}

// Archive aggregates tests to the month-country granularity the paper
// reports.
type Archive struct {
	samples map[string]map[months.Month][]float64
	total   int
}

// NewArchive returns an empty Archive.
func NewArchive() *Archive {
	return &Archive{samples: map[string]map[months.Month][]float64{}}
}

// Add records tests into the archive.
func (ar *Archive) Add(tests []Test) {
	for _, t := range tests {
		byMonth, ok := ar.samples[t.Country]
		if !ok {
			byMonth = map[months.Month][]float64{}
			ar.samples[t.Country] = byMonth
		}
		byMonth[t.Month] = append(byMonth[t.Month], t.DownloadMbps)
		ar.total++
	}
}

// TestCount returns the number of archived tests.
func (ar *Archive) TestCount() int { return ar.total }

// Median returns the median download speed for (cc, m); ok is false with
// no samples.
func (ar *Archive) Median(cc string, m months.Month) (float64, bool) {
	xs := ar.samples[cc][m]
	med, err := stats.Median(xs)
	return med, err == nil
}

// Mean returns the mean download speed for (cc, m) — the non-robust
// estimator used by the ablation benchmarks.
func (ar *Archive) Mean(cc string, m months.Month) (float64, bool) {
	xs := ar.samples[cc][m]
	mean, err := stats.Mean(xs)
	return mean, err == nil
}

// MedianPanel returns the per-country monthly median panel behind
// Figure 11.
func (ar *Archive) MedianPanel() *series.Panel {
	p := series.NewPanel()
	for cc, byMonth := range ar.samples {
		dst := p.Country(cc)
		for m := range byMonth {
			if med, ok := ar.Median(cc, m); ok {
				dst.Set(m, med)
			}
		}
	}
	return p
}

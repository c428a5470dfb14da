// Package ipv6 models the per-country IPv6 adoption dataset the paper
// takes from Meta (the percentage of requests Facebook receives over IPv6,
// per country per month). Curves are logistic with country-specific
// midpoints and ceilings, calibrated to Figure 5: the LACNIC mean rising
// from under 5% (2018) through ~11% (early 2021) to ~22% (2023); Mexico
// and Brazil above 40%; Chile surging in 2022; and Venezuela near zero
// until 2021, reaching only ~1.5% by mid-2023.
package ipv6

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"vzlens/internal/months"
	"vzlens/internal/series"
)

// curve parameterizes one country's logistic adoption trajectory:
// pct(t) = ceiling / (1 + exp(-rate * (t - midpoint))), with t in months.
type curve struct {
	ceiling  float64      // asymptotic adoption percentage
	midpoint months.Month // month at half the ceiling
	rate     float64      // steepness per month
}

// curves holds the calibrated trajectories. Countries absent from the map
// report zero adoption (several small LACNIC economies still do).
var curves = map[string]curve{
	"MX": {58, months.New(2017, time.June), 0.045},
	"BR": {48, months.New(2019, time.January), 0.055},
	"EC": {38, months.New(2021, time.January), 0.06},
	"PE": {36, months.New(2019, time.June), 0.05},
	"UY": {45, months.New(2020, time.January), 0.05},
	"AR": {26, months.New(2021, time.March), 0.055},
	"CO": {24, months.New(2021, time.June), 0.07},
	"CL": {30, months.New(2022, time.April), 0.12}, // the 2022 surge
	"GT": {30, months.New(2021, time.June), 0.06},
	"BO": {28, months.New(2021, time.January), 0.05},
	"PY": {22, months.New(2021, time.June), 0.05},
	"TT": {28, months.New(2020, time.June), 0.05},
	"CR": {22, months.New(2021, time.January), 0.05},
	"DO": {18, months.New(2021, time.June), 0.05},
	"PA": {15, months.New(2021, time.June), 0.05},
	"SV": {14, months.New(2021, time.June), 0.05},
	"HN": {12, months.New(2021, time.June), 0.05},
	"NI": {10, months.New(2021, time.June), 0.05},
	"HT": {4, months.New(2022, time.January), 0.05},
	"SR": {6, months.New(2022, time.January), 0.05},
	"GY": {6, months.New(2022, time.January), 0.05},
	// Venezuela: a barely-started rollout. Near zero through 2020, ~1.5%
	// by mid-2023.
	"VE": {2.1, months.New(2022, time.September), 0.10},
}

// Adoption returns the percentage of requests over IPv6 for country cc at
// month m. Unknown countries report 0.
func Adoption(cc string, m months.Month) float64 {
	c, ok := curves[strings.ToUpper(cc)]
	if !ok {
		return 0
	}
	t := float64(m.Sub(c.midpoint))
	return c.ceiling / (1 + math.Exp(-c.rate*t))
}

// Dataset is a materialized per-country monthly adoption table, the form
// the analyses and the CSV codec work with.
type Dataset struct {
	panel *series.Panel
}

// Collect materializes adoption for the given countries over [lo, hi].
func Collect(countries []string, lo, hi months.Month) *Dataset {
	p := series.NewPanel()
	for _, cc := range countries {
		s := p.Country(cc)
		for _, m := range months.Range(lo, hi) {
			s.Set(m, Adoption(cc, m))
		}
	}
	return &Dataset{panel: p}
}

// Panel exposes the underlying per-country series panel.
func (d *Dataset) Panel() *series.Panel { return d.panel }

// At returns adoption for cc at m.
func (d *Dataset) At(cc string, m months.Month) float64 {
	return d.panel.Country(cc).At(m)
}

// RegionalMean returns the month-wise mean across covered countries — the
// paper's lower-right Figure 5 panel.
func (d *Dataset) RegionalMean() *series.Series { return d.panel.RegionalMean() }

// WriteTo writes "cc,YYYY-MM,pct" lines, implementing io.WriterTo.
func (d *Dataset) WriteTo(w io.Writer) (int64, error) {
	var n int64
	write := func(s string) error {
		k, err := io.WriteString(w, s)
		n += int64(k)
		return err
	}
	if err := write("country,month,pct\n"); err != nil {
		return n, err
	}
	for _, cc := range d.panel.Countries() {
		for _, p := range d.panel.Country(cc).Points() {
			if err := write(fmt.Sprintf("%s,%s,%.4f\n", cc, p.Month, p.Value)); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// Parse reads the CSV form produced by WriteTo.
func Parse(r io.Reader) (*Dataset, error) {
	p := series.NewPanel()
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line == "country,month,pct" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("ipv6: line %d: malformed %q", lineNo, line)
		}
		m, err := months.Parse(parts[1])
		if err != nil {
			return nil, fmt.Errorf("ipv6: line %d: %w", lineNo, err)
		}
		v, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, fmt.Errorf("ipv6: line %d: bad pct %q", lineNo, parts[2])
		}
		p.Country(strings.ToUpper(parts[0])).Set(m, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ipv6: read: %w", err)
	}
	return &Dataset{panel: p}, nil
}

// CoveredCountries returns the countries with calibrated curves, sorted.
func CoveredCountries() []string {
	out := make([]string, 0, len(curves))
	for cc := range curves {
		out = append(out, cc)
	}
	sort.Strings(out)
	return out
}

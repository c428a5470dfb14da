// Package series implements the monthly time-series containers shared by
// every analysis: a single series keyed by month, and a panel of series
// keyed by country, with the cross-country aggregations (regional mean,
// normalization against a regional reference) that the paper's multi-panel
// figures use.
package series

import (
	"fmt"
	"sort"
	"strings"

	"vzlens/internal/months"
)

// Point is one (month, value) observation.
type Point struct {
	Month months.Month
	Value float64
}

// Series is an ordered monthly time series. The zero value is an empty
// series ready to use.
type Series struct {
	points map[months.Month]float64
}

// New returns an empty Series.
func New() *Series { return &Series{points: map[months.Month]float64{}} }

// Set records value v for month m, replacing any prior value.
func (s *Series) Set(m months.Month, v float64) {
	if s.points == nil {
		s.points = map[months.Month]float64{}
	}
	s.points[m] = v
}

// Add accumulates v onto the value stored for month m.
func (s *Series) Add(m months.Month, v float64) {
	if s.points == nil {
		s.points = map[months.Month]float64{}
	}
	s.points[m] += v
}

// Get returns the value at m and whether one is recorded.
func (s *Series) Get(m months.Month) (float64, bool) {
	v, ok := s.points[m]
	return v, ok
}

// At returns the value at m, or 0 when absent.
func (s *Series) At(m months.Month) float64 { return s.points[m] }

// Points returns all observations ordered by month.
func (s *Series) Points() []Point {
	out := make([]Point, 0, len(s.points))
	for m, v := range s.points {
		out = append(out, Point{m, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Month < out[j].Month })
	return out
}

// Span returns the earliest and latest recorded months; ok is false for an
// empty series.
func (s *Series) Span() (lo, hi months.Month, ok bool) {
	for m := range s.points {
		if !ok {
			lo, hi, ok = m, m, true
			continue
		}
		if m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	return lo, hi, ok
}

// First returns the earliest observation; ok is false for an empty series.
func (s *Series) First() (Point, bool) {
	lo, _, ok := s.Span()
	if !ok {
		return Point{}, false
	}
	return Point{lo, s.points[lo]}, true
}

// Last returns the latest observation; ok is false for an empty series.
func (s *Series) Last() (Point, bool) {
	_, hi, ok := s.Span()
	if !ok {
		return Point{}, false
	}
	return Point{hi, s.points[hi]}, true
}

// MaxPoint returns the observation with the largest value.
func (s *Series) MaxPoint() (Point, bool) {
	var best Point
	found := false
	for m, v := range s.points {
		if !found || v > best.Value || (v == best.Value && m < best.Month) {
			best = Point{m, v}
			found = true
		}
	}
	return best, found
}

// Panel is a set of per-country series, as drawn in the paper's
// country-comparison panels.
type Panel struct {
	byCountry map[string]*Series
}

// NewPanel returns an empty Panel.
func NewPanel() *Panel { return &Panel{byCountry: map[string]*Series{}} }

// Country returns the series for country cc, creating it when absent.
func (p *Panel) Country(cc string) *Series {
	if p.byCountry == nil {
		p.byCountry = map[string]*Series{}
	}
	s, ok := p.byCountry[cc]
	if !ok {
		s = New()
		p.byCountry[cc] = s
	}
	return s
}

// Countries returns the country codes present, sorted.
func (p *Panel) Countries() []string {
	out := make([]string, 0, len(p.byCountry))
	for cc := range p.byCountry {
		out = append(out, cc)
	}
	sort.Strings(out)
	return out
}

// RegionalTotal returns the sum across all countries for each month that
// any country has recorded.
func (p *Panel) RegionalTotal() *Series {
	out := New()
	for _, s := range p.byCountry {
		for m, v := range s.points {
			out.Add(m, v)
		}
	}
	return out
}

// RegionalMean returns, per month, the mean over the countries that have a
// value recorded for that month (the paper's "mean LACNIC" curves).
func (p *Panel) RegionalMean() *Series {
	sums := map[months.Month]float64{}
	counts := map[months.Month]int{}
	for _, s := range p.byCountry {
		for m, v := range s.points {
			sums[m] += v
			counts[m]++
		}
	}
	out := New()
	for m, sum := range sums {
		out.Set(m, sum/float64(counts[m]))
	}
	return out
}

// NormalizeAgainst returns the cc series divided month-by-month by ref
// (months where ref is absent or zero are skipped). This is the paper's
// "VE / regional mean" lower-right panel.
func (p *Panel) NormalizeAgainst(cc string, ref *Series) *Series {
	out := New()
	s, ok := p.byCountry[cc]
	if !ok {
		return out
	}
	for m, v := range s.points {
		r, ok := ref.Get(m)
		if !ok || r == 0 {
			continue
		}
		out.Set(m, v/r)
	}
	return out
}

// RankAt returns cc's descending-value rank (1 = highest) among countries
// with a value at month m, and the number of ranked countries. ok is false
// when cc has no value at m.
func (p *Panel) RankAt(cc string, m months.Month) (rank, of int, ok bool) {
	v, exists := p.byCountry[cc]
	if !exists {
		return 0, 0, false
	}
	val, has := v.Get(m)
	if !has {
		return 0, 0, false
	}
	rank = 1
	for other, s := range p.byCountry {
		ov, ok2 := s.Get(m)
		if !ok2 {
			continue
		}
		of++
		if other != cc && ov > val {
			rank++
		}
	}
	return rank, of, true
}

// CSV renders the panel as a month-by-country CSV table with a header row,
// for the plotting tools. Missing cells are empty.
func (p *Panel) CSV() string {
	ccs := p.Countries()
	allMonths := map[months.Month]bool{}
	for _, s := range p.byCountry {
		for m := range s.points {
			allMonths[m] = true
		}
	}
	ms := make([]months.Month, 0, len(allMonths))
	for m := range allMonths {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })

	var b strings.Builder
	b.WriteString("month")
	for _, cc := range ccs {
		b.WriteString(",")
		b.WriteString(cc)
	}
	b.WriteString("\n")
	for _, m := range ms {
		b.WriteString(m.String())
		for _, cc := range ccs {
			b.WriteString(",")
			if v, ok := p.byCountry[cc].Get(m); ok {
				fmt.Fprintf(&b, "%g", v)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Package anomaly detects the crisis signatures the paper reads off its
// longitudinal series by eye: multi-year stagnation (Venezuela's
// bandwidth), sustained contractions (CANTV's upstream providers,
// Telefonica's address space), disappearances (the country's root DNS
// instances), and divergence from a regional reference (the normalized
// download-speed decline). It generalizes the paper's narrative into
// reusable detectors — the automation its future-work section points at.
package anomaly

import (
	"fmt"
	"sort"

	"vzlens/internal/months"
	"vzlens/internal/series"
)

// Event is one detected signature.
type Event struct {
	Kind  Kind
	Start months.Month
	End   months.Month // inclusive
	// Magnitude is kind-specific: relative band width for stagnation,
	// relative drop for contraction, fraction of reference for
	// divergence; zero for disappearance.
	Magnitude float64
}

// Kind classifies an event.
type Kind int

// Detected event kinds.
const (
	Stagnation Kind = iota
	Contraction
	Disappearance
	Divergence
	Recovery
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Stagnation:
		return "stagnation"
	case Contraction:
		return "contraction"
	case Disappearance:
		return "disappearance"
	case Divergence:
		return "divergence"
	case Recovery:
		return "recovery"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Months returns the event duration in calendar months, inclusive.
func (e Event) Months() int { return e.End.Sub(e.Start) + 1 }

// Stagnations finds maximal runs of at least minMonths where the series
// stays within ±tolerance (relative) of the run's starting value — flat
// growth in a metric that is expected to grow.
func Stagnations(s *series.Series, minMonths int, tolerance float64) []Event {
	pts := s.Points()
	var out []Event
	i := 0
	for i < len(pts) {
		base := pts[i].Value
		j := i
		for j+1 < len(pts) && within(pts[j+1].Value, base, tolerance) {
			j++
		}
		if span := pts[j].Month.Sub(pts[i].Month) + 1; span >= minMonths && j > i {
			out = append(out, Event{
				Kind:      Stagnation,
				Start:     pts[i].Month,
				End:       pts[j].Month,
				Magnitude: tolerance,
			})
		}
		if j == i {
			i++
		} else {
			i = j + 1
		}
	}
	return out
}

func within(v, base, tol float64) bool {
	if base == 0 {
		return v == 0
	}
	rel := (v - base) / base
	return rel <= tol && rel >= -tol
}

// Contractions finds declines of at least minRelDrop (0-1) from a local
// peak to a subsequent trough. Each event spans peak month to trough
// month with the relative drop as magnitude.
func Contractions(s *series.Series, minRelDrop float64) []Event {
	pts := s.Points()
	var out []Event
	i := 0
	for i < len(pts) {
		// Find the next local peak.
		peak := i
		for peak+1 < len(pts) && pts[peak+1].Value >= pts[peak].Value {
			peak++
		}
		if pts[peak].Value <= 0 {
			i = peak + 1
			continue
		}
		// Descend to the trough.
		trough := peak
		for trough+1 < len(pts) && pts[trough+1].Value <= pts[trough].Value {
			trough++
		}
		drop := (pts[peak].Value - pts[trough].Value) / pts[peak].Value
		if trough > peak && drop >= minRelDrop {
			out = append(out, Event{
				Kind:      Contraction,
				Start:     pts[peak].Month,
				End:       pts[trough].Month,
				Magnitude: drop,
			})
		}
		i = trough + 1
	}
	return out
}

// Disappearances finds months where a count series reaches zero after
// having been positive — infrastructure that vanished. Each event is a
// single month (the first zero of each run).
func Disappearances(s *series.Series) []Event {
	pts := s.Points()
	var out []Event
	seenPositive := false
	inZeroRun := false
	for _, p := range pts {
		switch {
		case p.Value > 0:
			seenPositive = true
			inZeroRun = false
		case seenPositive && !inZeroRun:
			out = append(out, Event{Kind: Disappearance, Start: p.Month, End: p.Month})
			inZeroRun = true
		}
	}
	return out
}

// Divergences finds maximal runs of at least minMonths where s stays
// below fraction*ref — a country falling away from the regional
// trajectory. Magnitude is the run's minimum s/ref ratio.
func Divergences(s, ref *series.Series, fraction float64, minMonths int) []Event {
	type ratioPoint struct {
		m months.Month
		r float64
	}
	var ratios []ratioPoint
	for _, p := range s.Points() {
		rv, ok := ref.Get(p.Month)
		if !ok || rv == 0 {
			continue
		}
		ratios = append(ratios, ratioPoint{p.Month, p.Value / rv})
	}
	sort.Slice(ratios, func(i, j int) bool { return ratios[i].m < ratios[j].m })
	var out []Event
	i := 0
	for i < len(ratios) {
		if ratios[i].r >= fraction {
			i++
			continue
		}
		j := i
		minRatio := ratios[i].r
		for j+1 < len(ratios) && ratios[j+1].r < fraction {
			j++
			if ratios[j].r < minRatio {
				minRatio = ratios[j].r
			}
		}
		if span := ratios[j].m.Sub(ratios[i].m) + 1; span >= minMonths {
			out = append(out, Event{
				Kind:      Divergence,
				Start:     ratios[i].m,
				End:       ratios[j].m,
				Magnitude: minRatio,
			})
		}
		i = j + 1
	}
	return out
}

// Recoveries finds rises of at least minRelRise (relative to the local
// trough) following a decline — the partial rebounds the paper notes
// since 2021-2022 (CANTV's upstream count, Venezuelan bandwidth,
// Telefonica's 2023 re-aggregation). Each event spans trough month to
// the subsequent peak.
func Recoveries(s *series.Series, minRelRise float64) []Event {
	pts := s.Points()
	var out []Event
	i := 0
	for i < len(pts) {
		// Find the next local trough that follows a decline.
		trough := i
		declined := false
		for trough+1 < len(pts) && pts[trough+1].Value <= pts[trough].Value {
			if pts[trough+1].Value < pts[trough].Value {
				declined = true
			}
			trough++
		}
		if !declined || pts[trough].Value <= 0 {
			i = trough + 1
			continue
		}
		// Climb to the recovery peak.
		peak := trough
		for peak+1 < len(pts) && pts[peak+1].Value >= pts[peak].Value {
			peak++
		}
		rise := (pts[peak].Value - pts[trough].Value) / pts[trough].Value
		if peak > trough && rise >= minRelRise {
			out = append(out, Event{
				Kind:      Recovery,
				Start:     pts[trough].Month,
				End:       pts[peak].Month,
				Magnitude: rise,
			})
		}
		i = peak + 1
	}
	return out
}

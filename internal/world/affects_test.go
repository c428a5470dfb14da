package world

import (
	"math/rand"
	"testing"
	"time"

	"vzlens/internal/bgp"
	"vzlens/internal/months"
)

// The per-edit-kind month scans the plan's window list replaced, kept
// verbatim as the oracle of TestAffectsMatchesPerKindScans.

// oldWindowActive is the deleted windowActive.
func oldWindowActive(from, until, m months.Month) bool {
	if !from.IsZero() && m.Before(from) {
		return false
	}
	return until.IsZero() || m.Before(until)
}

// oldEqualASNs is the deleted equalASNs.
func oldEqualASNs(a, b []bgp.ASN) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// oldTopoActiveAt is the deleted ScenarioPlan.topoActiveAt.
func oldTopoActiveAt(p *ScenarioPlan, m months.Month) bool {
	if s := p.EventShiftMonths; s != 0 {
		if !oldEqualASNs(CANTVProvidersAt(m), CANTVProvidersAt(m.Add(-s))) {
			return true
		}
	}
	for _, l := range p.AddLinks {
		if oldWindowActive(l.From, l.To, m) {
			return true
		}
	}
	for _, l := range p.RemoveLinks {
		if oldWindowActive(l.From, l.To, m) {
			return true
		}
	}
	for _, d := range p.Depeers {
		if oldWindowActive(d.From, d.To, m) {
			return true
		}
	}
	for _, mv := range p.Moves {
		if oldWindowActive(mv.From, mv.To, m) {
			return true
		}
	}
	return false
}

// oldAffectsTraceAt is AffectsTraceAt as it was over topoActiveAt.
func oldAffectsTraceAt(p *ScenarioPlan, m months.Month) bool {
	if oldTopoActiveAt(p, m) {
		return true
	}
	for _, ch := range p.GPDNS {
		if oldWindowActive(ch.From, ch.To, m) {
			return true
		}
	}
	return false
}

// oldAffectsChaosAt is AffectsChaosAt as it was over topoActiveAt.
func oldAffectsChaosAt(p *ScenarioPlan, m months.Month) bool {
	if oldTopoActiveAt(p, m) {
		return true
	}
	for _, ch := range p.Roots {
		if oldWindowActive(ch.From, ch.To, m) {
			return true
		}
	}
	return false
}

// TestAffectsMatchesPerKindScans is the plan half of the validity
// window's property test: over random plans with up to two edits of
// every kind (windows with zero, open or inverted bounds among them)
// and an EventShiftMonths of 0, ±1, ±24 or ±120, AffectsTraceAt and
// AffectsChaosAt equal the per-edit-kind scans they replaced for every
// month from 1998-01 to 2025-12.
func TestAffectsMatchesPerKindScans(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	lo, hi := months.New(1998, time.January), months.New(2025, time.December)
	window := func() months.Window {
		var w months.Window
		if rng.Intn(4) != 0 {
			w.From = lo.Add(rng.Intn(hi.Sub(lo) + 1))
		}
		if rng.Intn(4) != 0 {
			w.To = lo.Add(rng.Intn(hi.Sub(lo) + 1))
		}
		return w
	}
	shifts := []int{0, 1, -1, 24, -24, 120, -120}
	for i := 0; i < 150; i++ {
		p := &ScenarioPlan{EventShiftMonths: shifts[rng.Intn(len(shifts))]}
		for k := rng.Intn(3); k > 0; k-- {
			p.AddLinks = append(p.AddLinks, ScenarioLink{Window: window()})
		}
		for k := rng.Intn(3); k > 0; k-- {
			p.RemoveLinks = append(p.RemoveLinks, ScenarioLink{Window: window()})
		}
		for k := rng.Intn(3); k > 0; k-- {
			p.Depeers = append(p.Depeers, ScenarioDepeer{Window: window()})
		}
		for k := rng.Intn(3); k > 0; k-- {
			p.Moves = append(p.Moves, ScenarioMove{Window: window()})
		}
		for k := rng.Intn(3); k > 0; k-- {
			p.GPDNS = append(p.GPDNS, ScenarioGPDNSSite{Window: window()})
		}
		for k := rng.Intn(3); k > 0; k-- {
			p.Roots = append(p.Roots, ScenarioRootReplica{Window: window()})
		}
		for m := lo; !m.After(hi); m = m.Add(1) {
			if got, want := p.AffectsTraceAt(m), oldAffectsTraceAt(p, m); got != want {
				t.Fatalf("plan %d %+v: AffectsTraceAt(%s) = %v, the per-kind scan says %v", i, p, m, got, want)
			}
			if got, want := p.AffectsChaosAt(m), oldAffectsChaosAt(p, m); got != want {
				t.Fatalf("plan %d %+v: AffectsChaosAt(%s) = %v, the per-kind scan says %v", i, p, m, got, want)
			}
		}
	}
}

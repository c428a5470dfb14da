package months

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The checks Window replaced, each kept verbatim over its own field
// pair as an oracle for TestWindowMatchesReplacedChecks.

// spanActive is world's span.active over (from, to).
func spanActive(from, to, m Month) bool {
	if m.Before(from) {
		return false
	}
	return to.IsZero() || m.Before(to)
}

// windowActive is world's windowActive over a scenario edit's
// (From, Until).
func windowActive(from, until, m Month) bool {
	if !from.IsZero() && m.Before(from) {
		return false
	}
	return until.IsZero() || m.Before(until)
}

// instanceActiveAt is dnsroot's Instance.ActiveAt over (Start, End).
func instanceActiveAt(start, end, m Month) bool {
	if m.Before(start) {
		return false
	}
	return end.IsZero() || m.Before(end)
}

// probeActiveAt is atlas's Probe.ActiveAt over
// (Connected, Disconnected).
func probeActiveAt(connected, disconnected, m Month) bool {
	if m.Before(connected) {
		return false
	}
	return disconnected.IsZero() || m.Before(disconnected)
}

// probeRowActiveAt is facts's ProbeRow.ActiveAt over
// (ValidFrom, ValidTo).
func probeRowActiveAt(validFrom, validTo, m Month) bool {
	if m.Before(validFrom) {
		return false
	}
	return validTo.IsZero() || m.Before(validTo)
}

// conflictOverlap is scenario's checkConflicts overlap closure over
// two ops' parsed windows.
func conflictOverlap(af, au, bf, bu Month) bool {
	if !au.IsZero() && !bf.IsZero() && !bf.Before(au) {
		return false
	}
	if !bu.IsZero() && !af.IsZero() && !af.Before(bu) {
		return false
	}
	return true
}

// opWindow is scenario's Op.window over an op's From and Until.
func opWindow(opFrom, opUntil string) (from, until Month, err error) {
	if opFrom != "" {
		if from, err = Parse(opFrom); err != nil {
			return 0, 0, fmt.Errorf("bad from %q: %w", opFrom, err)
		}
	}
	if opUntil != "" {
		if until, err = Parse(opUntil); err != nil {
			return 0, 0, fmt.Errorf("bad until %q: %w", opUntil, err)
		}
	}
	if !from.IsZero() && !until.IsZero() && !from.Before(until) {
		return 0, 0, fmt.Errorf("window inverted: from %s not before until %s", opFrom, opUntil)
	}
	return from, until, nil
}

// TestWindowMatchesReplacedChecks is the property test of the one
// validity window: over random windows (a quarter of the bounds zero,
// some windows empty or inverted) and months from 1997 to 2026,
// Contains equals each of the five activity predicates it replaced;
// Overlaps equals month-by-month enumeration, and for windows
// ParseWindow accepts, the conflict check's overlap closure; and
// ParseWindow equals Op.window's parse, error texts included.
func TestWindowMatchesReplacedChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	lo, hi := New(1998, time.January), New(2025, time.December)
	bound := func() Month {
		if rng.Intn(4) == 0 {
			return 0
		}
		return lo.Add(rng.Intn(hi.Sub(lo) + 1))
	}
	window := func() Window { return Window{From: bound(), To: bound()} }

	olds := []struct {
		name string
		f    func(from, to, m Month) bool
	}{
		{"span.active", spanActive},
		{"windowActive", windowActive},
		{"Instance.ActiveAt", instanceActiveAt},
		{"Probe.ActiveAt", probeActiveAt},
		{"ProbeRow.ActiveAt", probeRowActiveAt},
	}
	for i := 0; i < 20000; i++ {
		w := window()
		m := lo.Add(rng.Intn(hi.Sub(lo)+25) - 12)
		for _, old := range olds {
			if got, want := w.Contains(m), old.f(w.From, w.To, m); got != want {
				t.Fatalf("%+v.Contains(%s) = %v, %s says %v", w, m, got, old.name, want)
			}
		}
	}

	inverted := func(w Window) bool { return !w.From.IsZero() && !w.To.IsZero() && !w.From.Before(w.To) }
	for i := 0; i < 5000; i++ {
		a, b := window(), window()
		want := false
		for m := lo.Add(-1); !m.After(hi.Add(1)); m++ {
			if a.Contains(m) && b.Contains(m) {
				want = true
				break
			}
		}
		if got := a.Overlaps(b); got != want {
			t.Fatalf("%+v.Overlaps(%+v) = %v, enumeration says %v", a, b, got, want)
		}
		if inverted(a) || inverted(b) {
			continue
		}
		if got, want := a.Overlaps(b), conflictOverlap(a.From, a.To, b.From, b.To); got != want {
			t.Fatalf("%+v.Overlaps(%+v) = %v, checkConflicts' overlap says %v", a, b, got, want)
		}
	}

	texts := []string{"", "", "1998-01", "2019-04", "2019-10", "2025-12", "2020-13", "2019-00", "soon", "2019"}
	text := func() string {
		if rng.Intn(2) == 0 {
			return texts[rng.Intn(len(texts))]
		}
		return lo.Add(rng.Intn(hi.Sub(lo) + 1)).String()
	}
	for i := 0; i < 5000; i++ {
		from, until := text(), text()
		w, err := ParseWindow(from, until)
		of, ou, oerr := opWindow(from, until)
		if (err == nil) != (oerr == nil) || err != nil && err.Error() != oerr.Error() {
			t.Fatalf("ParseWindow(%q, %q) error %v, Op.window's %v", from, until, err, oerr)
		}
		if w != (Window{From: of, To: ou}) {
			t.Fatalf("ParseWindow(%q, %q) = %+v, Op.window's [%d, %d)", from, until, w, of, ou)
		}
	}
}

package anomaly

import (
	"testing"
	"time"

	"vzlens/internal/mlab"
	"vzlens/internal/months"
	"vzlens/internal/series"
)

func mm(y int, mo time.Month) months.Month { return months.New(y, mo) }

func monthlySeries(start months.Month, values ...float64) *series.Series {
	s := series.New()
	for i, v := range values {
		s.Set(start.Add(i), v)
	}
	return s
}

func TestStagnationsDetectsFlatline(t *testing.T) {
	s := monthlySeries(mm(2010, time.January),
		1.0, 1.02, 0.98, 1.01, 0.99, 1.0, // flat
		2.0, 3.0, 4.0) // then growth
	events := Stagnations(s, 4, 0.10)
	if len(events) != 1 {
		t.Fatalf("events = %v", events)
	}
	e := events[0]
	if e.Kind != Stagnation || e.Start != mm(2010, time.January) || e.Months() < 4 {
		t.Errorf("event = %v", e)
	}
}

func TestStagnationsIgnoresGrowth(t *testing.T) {
	s := monthlySeries(mm(2010, time.January), 1, 2, 4, 8, 16, 32)
	if events := Stagnations(s, 3, 0.10); len(events) != 0 {
		t.Errorf("growth flagged as stagnation: %v", events)
	}
}

func TestContractionsDetectsDrop(t *testing.T) {
	s := monthlySeries(mm(2012, time.January), 5, 8, 11, 10, 7, 5, 3, 3, 4)
	events := Contractions(s, 0.5)
	if len(events) != 1 {
		t.Fatalf("events = %v", events)
	}
	e := events[0]
	if e.Kind != Contraction {
		t.Errorf("kind = %v", e.Kind)
	}
	if e.Start != mm(2012, time.March) { // the peak at 11
		t.Errorf("start = %v, want 2012-03", e.Start)
	}
	if e.Magnitude < 0.7 || e.Magnitude > 0.75 { // 11 -> 3 is -72.7%
		t.Errorf("magnitude = %.2f", e.Magnitude)
	}
}

func TestContractionsIgnoresSmallDips(t *testing.T) {
	s := monthlySeries(mm(2012, time.January), 10, 11, 10, 11, 10, 11)
	if events := Contractions(s, 0.5); len(events) != 0 {
		t.Errorf("noise flagged: %v", events)
	}
}

func TestDisappearances(t *testing.T) {
	s := monthlySeries(mm(2016, time.January), 2, 2, 1, 0, 0, 1, 0)
	events := Disappearances(s)
	if len(events) != 2 {
		t.Fatalf("events = %v", events)
	}
	if events[0].Start != mm(2016, time.April) {
		t.Errorf("first disappearance = %v, want 2016-04", events[0].Start)
	}
	if events[1].Start != mm(2016, time.July) {
		t.Errorf("second disappearance = %v, want 2016-07", events[1].Start)
	}
	// Never-positive series produce nothing.
	if got := Disappearances(monthlySeries(mm(2016, time.January), 0, 0, 0)); len(got) != 0 {
		t.Errorf("all-zero flagged: %v", got)
	}
}

func TestDivergences(t *testing.T) {
	target := monthlySeries(mm(2014, time.January), 1, 1, 1, 1, 1, 1)
	ref := monthlySeries(mm(2014, time.January), 1, 2, 4, 5, 5, 1)
	events := Divergences(target, ref, 0.5, 2)
	if len(events) != 1 {
		t.Fatalf("events = %v", events)
	}
	e := events[0]
	if e.Start != mm(2014, time.March) || e.End != mm(2014, time.May) {
		t.Errorf("span = %v..%v", e.Start, e.End)
	}
	if e.Magnitude != 0.2 { // 1/5 at the worst month
		t.Errorf("magnitude = %v", e.Magnitude)
	}
}

// TestDetectsVenezuelanBandwidthStagnation runs the detector over the
// calibrated M-Lab curves: Venezuela's decade under 1 Mbps must surface;
// Uruguay's steady growth must not.
func TestDetectsVenezuelanBandwidthStagnation(t *testing.T) {
	build := func(cc string) *series.Series {
		s := series.New()
		for m := mm(2008, time.January); !m.After(mm(2024, time.January)); m = m.Add(1) {
			s.Set(m, mlab.MedianSpeed(cc, m))
		}
		return s
	}
	veEvents := Stagnations(build("VE"), 60, 0.35)
	if len(veEvents) == 0 {
		t.Fatal("Venezuela's bandwidth stagnation not detected")
	}
	longest := veEvents[0]
	for _, e := range veEvents {
		if e.Months() > longest.Months() {
			longest = e
		}
	}
	if longest.Months() < 96 {
		t.Errorf("longest VE stagnation = %d months, want a decade-scale run", longest.Months())
	}
	if uy := Stagnations(build("UY"), 60, 0.35); len(uy) != 0 {
		t.Errorf("Uruguay flagged as stagnant: %v", uy)
	}
}

func TestKindAndEventStrings(t *testing.T) {
	if Kind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
	for k, name := range map[Kind]string{
		Stagnation: "stagnation", Disappearance: "disappearance", Divergence: "divergence",
	} {
		if k.String() != name {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

func TestRecoveriesDetectsRebound(t *testing.T) {
	// Decline 10 -> 3, then rebound to 6: a 100% rise from the trough.
	s := monthlySeries(mm(2013, time.January), 10, 8, 5, 3, 4, 5, 6)
	events := Recoveries(s, 0.5)
	if len(events) != 1 {
		t.Fatalf("events = %v", events)
	}
	e := events[0]
	if e.Kind != Recovery || e.Start != mm(2013, time.April) {
		t.Errorf("event = %v", e)
	}
	if e.Magnitude != 1.0 {
		t.Errorf("magnitude = %v, want 1.0 (3 -> 6)", e.Magnitude)
	}
}

func TestRecoveriesNeedsPriorDecline(t *testing.T) {
	// Pure growth has no trough to recover from.
	s := monthlySeries(mm(2013, time.January), 1, 2, 3, 4)
	if events := Recoveries(s, 0.1); len(events) != 0 {
		t.Errorf("growth flagged as recovery: %v", events)
	}
}

func TestDetectsVenezuelanBandwidthRecovery(t *testing.T) {
	s := series.New()
	for m := mm(2008, time.January); !m.After(mm(2024, time.January)); m = m.Add(1) {
		s.Set(m, mlab.MedianSpeed("VE", m))
	}
	events := Recoveries(s, 1.0) // the paper's 1 -> ~3 Mbps rebound
	found := false
	for _, e := range events {
		if e.Start.Year() >= 2017 && e.End.Year() >= 2022 {
			found = true
		}
	}
	if !found {
		t.Errorf("2022 bandwidth recovery not detected: %v", events)
	}
}

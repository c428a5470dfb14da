package world

import (
	"context"
	"slices"
	"testing"
	"time"

	"vzlens/internal/atlas"
	"vzlens/internal/bgp"
	"vzlens/internal/dnsroot"
	"vzlens/internal/geo"
	"vzlens/internal/months"
)

// windowedTestWorld compresses both campaigns to a short range around
// the depeering era so each full replay stays cheap.
func windowedTestWorld(t *testing.T) *World {
	t.Helper()
	w, err := Build(Config{
		TraceStart: months.New(2019, time.January),
		TraceEnd:   months.New(2020, time.January),
		ChaosStart: months.New(2019, time.January),
		ChaosEnd:   months.New(2020, time.January),
		Step:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// windowedPlans are the equivalence fixtures: each exercises a
// different affectedness path (topology window, GPDNS-only, roots-only,
// event shift).
func windowedPlans(t *testing.T) map[string]*ScenarioPlan {
	t.Helper()
	ccs, ok := geo.LookupIATA("CCS")
	if !ok {
		t.Fatal("CCS unknown")
	}
	from := months.New(2019, time.April)
	until := months.New(2019, time.October)
	return map[string]*ScenarioPlan{
		"depeer_window": {
			Key:     "w-depeer",
			Depeers: []ScenarioDepeer{{ASN: ASCANTV, Window: months.Window{From: from, To: until}}},
		},
		"gpdns_only": {
			Key:   "w-gpdns",
			GPDNS: []ScenarioGPDNSSite{{Host: ASCANTV, City: ccs, Window: months.Window{From: from}}},
		},
		"roots_only": {
			Key: "w-roots",
			Roots: []ScenarioRootReplica{{
				Letter: dnsroot.Letter('L'), Host: ASCANTV, City: ccs, Window: months.Window{From: from},
			}},
		},
		"event_shift": {
			Key:              "w-shift",
			EventShiftMonths: 24,
		},
	}
}

// TestWindowedScenarioEquivalence is the windowed engine's core
// contract: re-simulating only the affected months and splicing the
// baseline in for the rest must reproduce the full scenario replay
// sample for sample, in order.
func TestWindowedScenarioEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation")
	}
	w := windowedTestWorld(t)
	ctx := context.Background()
	baseTC := w.TraceCampaign()
	baseCC := w.ChaosCampaign()
	for name, plan := range windowedPlans(t) {
		t.Run(name, func(t *testing.T) {
			fullTC := w.traceCampaign(ctx, plan)
			fullCC := w.chaosCampaign(ctx, plan)
			winTC, recompTC := w.TraceCampaignScenarioWindowed(ctx, plan, baseTC)
			winCC, recompCC := w.ChaosCampaignScenarioWindowed(ctx, plan, baseCC)

			if !equalTraceSamples(fullTC.Samples(), winTC.Samples()) {
				t.Errorf("windowed trace campaign diverges from full replay (%d vs %d samples)",
					winTC.Len(), fullTC.Len())
			}
			if !equalChaosResults(fullCC.Results(), winCC.Results()) {
				t.Errorf("windowed chaos campaign diverges from full replay (%d vs %d results)",
					winCC.Len(), fullCC.Len())
			}

			nTrace := len(w.campaignMonths(w.Config.TraceStart, w.Config.TraceEnd))
			nChaos := len(w.campaignMonths(w.Config.ChaosStart, w.Config.ChaosEnd))
			switch name {
			case "depeer_window":
				// A six-month window at quarterly resolution touches a
				// strict subset of the five campaign snapshots.
				if recompTC == 0 || recompTC >= nTrace {
					t.Errorf("depeer window recomputed %d/%d trace months, want a strict subset", recompTC, nTrace)
				}
			case "gpdns_only":
				if recompCC != 0 {
					t.Errorf("GPDNS-only plan recomputed %d chaos months, want 0", recompCC)
				}
			case "roots_only":
				if recompTC != 0 {
					t.Errorf("roots-only plan recomputed %d trace months, want 0", recompTC)
				}
				if recompCC == 0 || recompCC >= nChaos {
					t.Errorf("roots-only plan recomputed %d/%d chaos months, want a strict subset", recompCC, nChaos)
				}
			}
		})
	}
}

// TestWindowedNilBaseFallsBack: without a memoized baseline the
// windowed entry points must still produce the full scenario campaign.
func TestWindowedNilBaseFallsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation")
	}
	w := windowedTestWorld(t)
	plan := windowedPlans(t)["depeer_window"]
	full := w.traceCampaign(context.Background(), plan)
	win, recomp := w.TraceCampaignScenarioWindowed(context.Background(), plan, nil)
	if !equalTraceSamples(full.Samples(), win.Samples()) {
		t.Error("nil-base windowed replay diverges from full replay")
	}
	if recomp != len(w.campaignMonths(w.Config.TraceStart, w.Config.TraceEnd)) {
		t.Errorf("nil base should recompute every month, got %d", recomp)
	}
}

func TestAffectsMonthPredicates(t *testing.T) {
	from := months.New(2019, time.April)
	until := months.New(2019, time.October)
	plan := &ScenarioPlan{
		Key: "w-pred",
		AddLinks: []ScenarioLink{{
			A: ASCANTV, B: bgp.ASN(3816), Kind: bgp.PeerPeer, Window: months.Window{From: from, To: until},
		}},
	}
	for _, tc := range []struct {
		m    months.Month
		want bool
	}{
		{months.New(2019, time.March), false},
		{months.New(2019, time.April), true},
		{months.New(2019, time.September), true},
		{months.New(2019, time.October), false}, // until is exclusive
	} {
		if got := plan.AffectsTraceAt(tc.m); got != tc.want {
			t.Errorf("AffectsTraceAt(%s) = %v, want %v", tc.m, got, tc.want)
		}
		if got := plan.AffectsChaosAt(tc.m); got != tc.want {
			t.Errorf("AffectsChaosAt(%s) = %v, want %v", tc.m, got, tc.want)
		}
	}
	// An event shift affects exactly the months whose provider set the
	// shift moves: 2019 under a +24 shift uses 2017 providers, which
	// differ (GTT and nLayer left in 2017).
	shift := &ScenarioPlan{Key: "w-shift", EventShiftMonths: 24}
	if !shift.AffectsTraceAt(months.New(2019, time.January)) {
		t.Error("24-month shift must affect 2019-01 (provider sets differ)")
	}
	// Far before any transition difference: 2005 vs 2003 providers are
	// identical only if the table says so; pick a month where they are.
	if shift.AffectsTraceAt(months.New(2012, time.January)) !=
		!slices.Equal(CANTVProvidersAt(months.New(2012, time.January)), CANTVProvidersAt(months.New(2010, time.January))) {
		t.Error("event-shift affectedness must equal provider-set inequality")
	}
}

func equalTraceSamples(a, b []atlas.TraceSample) bool {
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

func equalChaosResults(a, b []atlas.ChaosResult) bool {
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

// TestWindowedSharesBaselinePartitions pins the windowed replay's
// zero-copy splice: every month the plan leaves untouched is the
// baseline's own partition, and every affected month is a fresh one.
func TestWindowedSharesBaselinePartitions(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation")
	}
	w := windowedTestWorld(t)
	ctx := context.Background()
	baseTC, baseCC := w.TraceCampaign(), w.ChaosCampaign()
	plan := windowedPlans(t)["depeer_window"]
	winTC, _ := w.TraceCampaignScenarioWindowed(ctx, plan, baseTC)
	winCC, _ := w.ChaosCampaignScenarioWindowed(ctx, plan, baseCC)
	shared := 0
	for i, p := range winTC.Partitions() {
		base := baseTC.Partitions()[i]
		if p.Month != base.Month {
			t.Fatalf("trace partition %d is %s, baseline's is %s", i, p.Month, base.Month)
		}
		if same := p == base; same == plan.AffectsTraceAt(p.Month) {
			t.Errorf("trace %s: shares baseline partition = %v, affected = %v", p.Month, same, !same)
		} else if same {
			shared++
		}
	}
	for i, p := range winCC.Partitions() {
		base := baseCC.Partitions()[i]
		if p.Month != base.Month {
			t.Fatalf("chaos partition %d is %s, baseline's is %s", i, p.Month, base.Month)
		}
		if same := p == base; same == plan.AffectsChaosAt(p.Month) {
			t.Errorf("chaos %s: shares baseline partition = %v, affected = %v", p.Month, same, !same)
		} else if same {
			shared++
		}
	}
	if shared == 0 {
		t.Error("no untouched month to share: the plan window covers the whole campaign")
	}
}

package scenario

import (
	"context"
	"reflect"
	"testing"
	"time"

	"vzlens/internal/atlas"
	"vzlens/internal/dnsroot"
	"vzlens/internal/geo"
	"vzlens/internal/months"
	"vzlens/internal/world"
)

// TestDiffSharedMonths pins the diff of a month both campaigns share by
// pointer, as a windowed replay shares its untouched months: trace
// yields the subject country's row alone, reach and catchment nothing,
// and the whole diff equals the one against an unshared copy.
func TestDiffSharedMonths(t *testing.T) {
	jan, feb := months.MustParse("2020-01"), months.MustParse("2020-02")
	trace := func(m months.Month, rows ...atlas.TraceSample) *atlas.TracePartition {
		for i := range rows {
			rows[i].Month = m
		}
		return atlas.NewTracePartition(m, rows, make([]uint8, len(rows)))
	}
	janRows := func() *atlas.TracePartition {
		return trace(jan,
			atlas.TraceSample{ProbeID: 1, ProbeCC: "VE", RTTms: 30},
			atlas.TraceSample{ProbeID: 2, ProbeCC: "CO", RTTms: 12},
			atlas.TraceSample{ProbeID: 1, ProbeCC: "VE", RTTms: 25})
	}
	shared := janRows()
	baseT := atlas.NewTraceCampaignOf([]*atlas.TracePartition{shared, trace(feb,
		atlas.TraceSample{ProbeID: 1, ProbeCC: "VE", RTTms: 40},
		atlas.TraceSample{ProbeID: 2, ProbeCC: "CO", RTTms: 15},
		atlas.TraceSample{ProbeID: 3, ProbeCC: "BR", RTTms: 20})})
	scenFeb := trace(feb,
		atlas.TraceSample{ProbeID: 1, ProbeCC: "VE", RTTms: 60},
		atlas.TraceSample{ProbeID: 2, ProbeCC: "CO", RTTms: 15})
	scenT := atlas.NewTraceCampaignOf([]*atlas.TracePartition{shared, scenFeb})
	copyT := atlas.NewTraceCampaignOf([]*atlas.TracePartition{janRows(), scenFeb})

	gotT, gotR := diffTrace(baseT, scenT)
	wantT := []TraceDelta{
		{Month: "2020-01", CC: "VE", BaselineMs: 25, ScenarioMs: 25},
		{Month: "2020-02", CC: "BR", BaselineMs: 20, DeltaMs: -20},
		{Month: "2020-02", CC: "VE", BaselineMs: 40, ScenarioMs: 60, DeltaMs: 20},
	}
	wantR := []ReachDelta{{Month: "2020-02", CC: "BR", BaselineProbes: 1}}
	if !reflect.DeepEqual(gotT, wantT) || !reflect.DeepEqual(gotR, wantR) {
		t.Errorf("diffTrace = %+v, %+v; want %+v, %+v", gotT, gotR, wantT, wantR)
	}
	copyTr, copyR := diffTrace(baseT, copyT)
	if !reflect.DeepEqual(copyTr, gotT) || !reflect.DeepEqual(copyR, gotR) {
		t.Errorf("diff against an unshared copy = %+v, %+v; shared = %+v, %+v", copyTr, copyR, gotT, gotR)
	}

	lName := func(iata string) string {
		city, _ := geo.LookupIATA(iata)
		return dnsroot.InstanceName('L', city, 1, dnsroot.EraClassic)
	}
	chaos := func(m months.Month, txts ...string) *atlas.ChaosPartition {
		var rows []atlas.ChaosResult
		for i, txt := range txts {
			rows = append(rows, atlas.ChaosResult{Month: m, ProbeID: i + 1, ProbeCC: "VE", Letter: 'L', TXT: txt})
		}
		return atlas.NewChaosPartition(m, rows)
	}
	sharedC := chaos(jan, lName("CCS"), lName("GRU"))
	baseC := atlas.NewChaosCampaignOf([]*atlas.ChaosPartition{sharedC, chaos(feb, lName("CCS"))})
	scenC := atlas.NewChaosCampaignOf([]*atlas.ChaosPartition{sharedC, chaos(feb, lName("CCS"), lName("MIA"))})
	wantC := []CatchmentDelta{{Month: "2020-02", BaselineSites: 1, ScenarioSites: 2}}
	if got := diffCatchment(baseC, scenC); !reflect.DeepEqual(got, wantC) {
		t.Errorf("diffCatchment = %+v, want %+v", got, wantC)
	}
}

// TestDiffTraceAllocs pins the allocations of the trace and reach diff
// of a Step-3 baseline against a windowed scenario campaign, which
// shares the baseline's partitions outside its window. Each month
// partition is reduced to per-probe minima once per side; rescanning it
// once per country for the medians and again for the probe counts cost
// 20,163 allocations on these inputs.
func TestDiffTraceAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the Step-3 trace campaign")
	}
	w, err := world.Build(world.Config{Step: 3})
	if err != nil {
		t.Fatal(err)
	}
	from := months.New(2019, time.January)
	spec := &Spec{ID: "allocs", Ops: []Op{{Op: OpDepeer, ASN: uint32(world.CANTVProvidersAt(from)[0]), From: "2019-01", Until: "2019-07"}}}
	plan, err := spec.Compile(w)
	if err != nil {
		t.Fatal(err)
	}
	base := w.TraceCampaign()
	scen, recomputed := w.TraceCampaignScenarioWindowed(context.Background(), plan, base)
	if recomputed == 0 || recomputed == len(base.Partitions()) {
		t.Fatalf("window recomputed %d of %d months, want some but not all", recomputed, len(base.Partitions()))
	}
	avg := testing.AllocsPerRun(20, func() { diffTrace(base, scen) })
	// Measured 797 on the 40-month campaign: ~20 per month (a side's
	// probe slice growth, its sorted RTTs and country list, the month
	// label) plus the output rows. 1,200 leaves 50% headroom for
	// growth jitter; a per-country rescan would cost thousands more.
	if avg > 1200 {
		t.Fatalf("diffTrace allocates %.0f objects per run, budget 1200", avg)
	}
}

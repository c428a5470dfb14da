package scenario

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"vzlens/internal/atlas"
	"vzlens/internal/months"
	"vzlens/internal/obs"
	"vzlens/internal/world"
)

// testConfig compresses the campaigns to a handful of monthly
// snapshots around the paper's depeering-era events so engine tests
// run in seconds while still crossing scenario windows.
func testConfig(workers int) world.Config {
	return world.Config{
		TraceStart: months.New(2018, time.January),
		TraceEnd:   months.New(2021, time.January),
		ChaosStart: months.New(2018, time.January),
		ChaosEnd:   months.New(2021, time.January),
		Step:       6,
		Workers:    workers,
	}
}

func buildWorld(t *testing.T, workers int) *world.World {
	t.Helper()
	w, err := world.Build(testConfig(workers))
	if err != nil {
		t.Fatalf("world.Build: %v", err)
	}
	return w
}

func loadCanned(t *testing.T, id string) *Spec {
	t.Helper()
	data, err := os.ReadFile("testdata/" + id + ".json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestEngineRunCantvDepeer(t *testing.T) {
	w := buildWorld(t, 4)
	e := NewEngine(Options{World: w})
	reg := obs.NewRegistry()
	e.Instrument(reg)

	diff, err := e.Run(context.Background(), loadCanned(t, "cantv-depeer"))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if diff.Scenario != "cantv-depeer" || diff.Key == "" {
		t.Fatalf("diff identity: %+v", diff)
	}
	// Depeering CANTV must move Venezuelan RTTs in at least one
	// post-2019 month: its probes lose their main upstream.
	moved := false
	for _, d := range diff.Trace {
		if d.CC == "VE" && d.DeltaMs != 0 {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatalf("depeering CANTV moved no VE median; trace deltas: %+v", diff.Trace)
	}
	// Campaign-backed tables are present even if unchanged.
	ids := map[string]bool{}
	for _, td := range diff.Tables {
		ids[td.Experiment] = true
	}
	for _, want := range []string{"fig6", "fig12", "fig16", "fig20"} {
		if !ids[want] {
			t.Errorf("table diff for %s missing", want)
		}
	}
}

// TestEngineDeterminism pins the tentpole's serving contract: the same
// spec against equivalent worlds serializes to byte-identical diffs,
// regardless of worker count or repetition.
func TestEngineDeterminism(t *testing.T) {
	spec := loadCanned(t, "cable-cut")
	encode := func(workers int) []byte {
		e := NewEngine(Options{World: buildWorld(t, workers)})
		diff, err := e.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		data, err := json.Marshal(diff)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first := encode(1)
	if again := encode(1); string(again) != string(first) {
		t.Fatal("diff not stable across identical runs")
	}
	if par := encode(8); string(par) != string(first) {
		t.Fatal("diff differs between Workers=1 and Workers=8")
	}
}

func TestEngineRootReplicaShiftsCatchment(t *testing.T) {
	w := buildWorld(t, 4)
	e := NewEngine(Options{World: w})
	diff, err := e.Run(context.Background(), loadCanned(t, "root-replica"))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(diff.Catchment) == 0 {
		t.Fatal("re-adding Caracas root replicas shifted no VE catchment month")
	}
}

func TestCompileRejects(t *testing.T) {
	w := buildWorld(t, 1)
	cases := []struct {
		name, json, wantErr string
	}{
		{"dangling asn", `{"id":"x1","ops":[{"op":"depeer","asn":424242}]}`, "unknown to the world"},
		// CANTV customer 16: wired in the kernel base, but only 16
		// customers are active at the test world's final month (2021-01).
		{"asn not yet active", `{"id":"x1","ops":[{"op":"depeer","asn":270116}]}`, "unknown to the world"},
		{"dangling link end", `{"id":"x1","ops":[{"op":"add_link","a":8048,"b":424242,"kind":"p2p"}]}`, "unknown to the world"},
		{"unknown city", `{"id":"x1","ops":[{"op":"move_as","asn":8048,"iata":"XXQ"}]}`, "unknown city"},
		{"dangling site host", `{"id":"x1","ops":[{"op":"add_gpdns","host":424242,"iata":"CCS"}]}`, "unknown to the world"},
		{"window misses campaign", `{"id":"x1","ops":[{"op":"depeer","asn":8048,"from":"1999-01","until":"2000-01"}]}`, "no op's window overlaps"},
		// until is exclusive: a window ending at the campaign's first
		// month (TraceStart, 2018-01) covers none of its months.
		{"window ends at campaign start", `{"id":"x1","ops":[{"op":"depeer","asn":8048,"until":"2018-01"}]}`, "no op's window overlaps"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := ParseSpec([]byte(tc.json))
			if err != nil {
				t.Fatalf("ParseSpec: %v", err)
			}
			if _, err = spec.Compile(w); err == nil {
				t.Fatal("Compile accepted")
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestEngineBaselineInjection pins that injected baselines are used
// (the serving layer hands the engine its memoized campaigns) and that
// a failing baseline propagates as an error, not a panic.
func TestEngineBaselineInjection(t *testing.T) {
	w := buildWorld(t, 4)
	traceCalls := 0
	e := NewEngine(Options{
		World: w,
		BaselineTrace: func(ctx context.Context) (*atlas.TraceCampaign, error) {
			traceCalls++
			return w.TraceCampaignCtx(ctx), nil
		},
	})
	if _, err := e.Run(context.Background(), loadCanned(t, "ixp-join")); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if traceCalls != 1 {
		t.Fatalf("injected baseline called %d times, want 1", traceCalls)
	}
}

package golden

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"vzlens/internal/atlas"
	"vzlens/internal/scenario"
	"vzlens/internal/world"
)

// cannedIDs are the scenarios shipped under internal/scenario/testdata;
// each gets its full diff pinned as a golden snapshot.
var cannedIDs = []string{"cantv-depeer", "ixp-join", "cable-cut", "root-replica"}

// loadCanned reads one shipped scenario spec by id.
func loadCanned(t *testing.T, id string) *scenario.Spec {
	t.Helper()
	specs, errs := scenario.LoadSpecsLenient(filepath.Join("..", "scenario", "testdata", id+".json"))
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	if len(specs) != 1 {
		t.Fatalf("%s: %d specs, want 1", id, len(specs))
	}
	return specs[0]
}

// scenarioEngine builds an engine over w that reuses tr/ch as its
// baselines, mirroring how httpapi wires the engine into its memoized
// campaign caches — a run then costs one scenario simulation only.
func scenarioEngine(w *world.World, tr *atlas.TraceCampaign, ch *atlas.ChaosCampaign) *scenario.Engine {
	return scenario.NewEngine(scenario.Options{
		World:         w,
		BaselineTrace: func(context.Context) (*atlas.TraceCampaign, error) { return tr, nil },
		BaselineChaos: func(context.Context) (*atlas.ChaosCampaign, error) { return ch, nil },
	})
}

// TestScenarioDiffs pins the complete baseline-vs-scenario diff of
// every canned scenario. These snapshots are the engine's regression
// net: an unintended change anywhere in overlay construction, campaign
// replay, or diffing shows up as a readable diff here.
func TestScenarioDiffs(t *testing.T) {
	eng := scenarioEngine(testWorld, testTrace, testChaos)
	for _, id := range cannedIDs {
		t.Run(id, func(t *testing.T) {
			diff, err := eng.Run(context.Background(), loadCanned(t, id))
			if err != nil {
				t.Fatalf("run %s: %v", id, err)
			}
			check(t, "scenario_"+id, encode(t, diff))
		})
	}
}

// TestScenarioWorkerCountInvariance extends the determinism contract
// to scenario runs: the same scenario diffed on a Workers=1 world must
// serialize byte-identically to the Workers=8 snapshot inputs. Jitter
// is sampled scenario-blind per probe-month, so this holds exactly.
func TestScenarioWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates two campaigns twice")
	}
	spec := loadCanned(t, "cantv-depeer")
	serial := mustBuild(goldenConfig(1))
	serialDiff, err := scenarioEngine(serial, serial.TraceCampaign(), serial.ChaosCampaign()).
		Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	parallelDiff, err := scenarioEngine(testWorld, testTrace, testChaos).
		Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encode(t, serialDiff), encode(t, parallelDiff); !bytes.Equal(got, want) {
		t.Errorf("scenario diff differs between Workers=1 (%d bytes) and Workers=8 (%d bytes):\n%s",
			len(got), len(want), diff(string(want), string(got)))
	}
}

package scenario

import (
	"context"
	"fmt"
	"time"

	"vzlens/internal/atlas"
	"vzlens/internal/core"
	"vzlens/internal/obs"
	"vzlens/internal/world"
)

// Options configures an Engine. BaselineTrace and BaselineChaos are
// injectable so the serving layer can hand the engine its memoized
// baseline campaigns (the ones Warm() built and every experiment
// shares) instead of simulating them again; nil funcs fall back to the
// world's own (cached or simulated) baselines.
type Options struct {
	World         *world.World
	BaselineTrace func(ctx context.Context) (*atlas.TraceCampaign, error)
	BaselineChaos func(ctx context.Context) (*atlas.ChaosCampaign, error)
}

// Engine runs counterfactual scenarios: it compiles a spec, replays
// both campaigns under the overlay, and emits the baseline-vs-scenario
// Diff. Engines are safe for concurrent use — each run compiles its
// own plan, which holds that run's overlay resolvers, and the engine
// itself holds no per-run state.
type Engine struct {
	w         *world.World
	baseTrace func(ctx context.Context) (*atlas.TraceCampaign, error)
	baseChaos func(ctx context.Context) (*atlas.ChaosCampaign, error)
	met       engineMetrics
}

// engineMetrics holds the engine's nil-safe observability hooks.
type engineMetrics struct {
	runs     *obs.Counter
	failures *obs.Counter
	dur      *obs.Histogram
}

// NewEngine returns an Engine over opts.World.
func NewEngine(opts Options) *Engine {
	e := &Engine{w: opts.World, baseTrace: opts.BaselineTrace, baseChaos: opts.BaselineChaos}
	if e.baseTrace == nil {
		e.baseTrace = func(ctx context.Context) (*atlas.TraceCampaign, error) {
			return e.w.TraceCampaignCtx(ctx), nil
		}
	}
	if e.baseChaos == nil {
		e.baseChaos = func(ctx context.Context) (*atlas.ChaosCampaign, error) {
			return e.w.ChaosCampaignCtx(ctx), nil
		}
	}
	return e
}

// Instrument registers the engine's metrics on reg: completed scenario
// runs, failed runs, and end-to-end run duration (baseline reuse means
// a warm run costs roughly one scenario simulation).
func (e *Engine) Instrument(reg *obs.Registry) {
	e.met = engineMetrics{
		runs: reg.Counter("vz_scenario_runs_total",
			"Completed counterfactual scenario runs."),
		failures: reg.Counter("vz_scenario_failures_total",
			"Scenario runs that failed to compile or simulate."),
		dur: reg.Histogram("vz_scenario_run_seconds",
			"End-to-end duration of one scenario run (campaigns + diff).",
			obs.LatencyBuckets),
	}
}

// RunConfig tunes one engine run. The zero value is the full run the
// diff endpoint serves.
type RunConfig struct {
	// SkipTables omits the row-level experiment-table diffs — the sweep
	// engine's leaderboard only needs the campaign-level deltas, and
	// re-running four experiment tables per spec would dominate a
	// windowed sweep's cost.
	SkipTables bool
}

// RunStats reports how much work a run actually did: the windowed
// replay re-simulates only the months the plan's edit windows touch and
// reuses the memoized baseline for the rest.
type RunStats struct {
	TraceMonthsRecomputed int // trace months simulated under the overlay
	TraceMonthsReused     int // trace months spliced from the baseline
	ChaosMonthsRecomputed int
	ChaosMonthsReused     int
}

// Run compiles spec, simulates both campaigns under its overlay, and
// returns the deterministic baseline-vs-scenario Diff. See RunWith.
func (e *Engine) Run(ctx context.Context, spec *Spec) (*Diff, error) {
	diff, _, err := e.RunWith(ctx, spec, RunConfig{})
	return diff, err
}

// RunWith is Run with per-run configuration and work accounting. The
// campaigns replay through the windowed engine: only months inside the
// spec's edit windows are re-simulated, the baseline's samples are
// spliced in for the rest, and the result is bit-identical to a full
// replay (the world's RNG streams are scenario-blind). The run is
// wrapped in a campaign.scenario span; a panic anywhere below (a
// compiled plan the world rejects is a programming error surfaced by
// panic) is converted into an error so a bad scenario can never take
// down the serving process.
func (e *Engine) RunWith(ctx context.Context, spec *Spec, cfg RunConfig) (diff *Diff, stats RunStats, err error) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("scenario %q: run panicked: %v", spec.ID, r)
		}
		if err != nil {
			e.met.failures.Inc()
			return
		}
		e.met.runs.Inc()
		e.met.dur.ObserveDuration(time.Since(start))
	}()

	plan, err := spec.Compile(e.w)
	if err != nil {
		return nil, stats, err
	}
	ctx, span := obs.StartSpan(ctx, "campaign.scenario")
	span.SetAttr("scenario", spec.ID)
	span.SetAttr("key", plan.Key)
	defer span.End()

	baseTC, err := e.baseTrace(ctx)
	if err != nil {
		return nil, stats, fmt.Errorf("scenario %q: baseline trace campaign: %w", spec.ID, err)
	}
	baseCC, err := e.baseChaos(ctx)
	if err != nil {
		return nil, stats, fmt.Errorf("scenario %q: baseline chaos campaign: %w", spec.ID, err)
	}
	scenTC, traceRecomp := e.w.TraceCampaignScenarioWindowed(ctx, plan, baseTC)
	scenCC, chaosRecomp := e.w.ChaosCampaignScenarioWindowed(ctx, plan, baseCC)
	stats.TraceMonthsRecomputed = traceRecomp
	stats.TraceMonthsReused = len(baseTC.Months()) - traceRecomp
	stats.ChaosMonthsRecomputed = chaosRecomp
	stats.ChaosMonthsReused = len(baseCC.Months()) - chaosRecomp

	diff = &Diff{
		Scenario:    spec.ID,
		Key:         plan.Key,
		Name:        spec.Name,
		Description: spec.Description,
		Catchment:   diffCatchment(baseCC, scenCC),
	}
	diff.Trace, diff.Reach = diffTrace(baseTC, scenTC)
	// Diff only the campaign-backed experiment tables: the rest render
	// from baseline world state a scenario cannot move.
	if !cfg.SkipTables {
		for _, exp := range core.Experiments() {
			if exp.Campaign == "" {
				continue
			}
			base := exp.Run(e.w, baseTC, baseCC)
			scen := exp.Run(e.w, scenTC, scenCC)
			diff.Tables = append(diff.Tables, diffTable(exp.ID, base, scen))
		}
	}
	span.SetAttr("trace_deltas", len(diff.Trace))
	span.SetAttr("reach_deltas", len(diff.Reach))
	span.SetAttr("trace_recomputed", traceRecomp)
	span.SetAttr("chaos_recomputed", chaosRecomp)
	return diff, stats, nil
}

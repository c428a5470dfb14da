package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"vzlens/internal/obs"
	"vzlens/internal/resilience"
	"vzlens/internal/resultstore"
	"vzlens/internal/scenario"
	"vzlens/internal/world"
)

// ErrConflict reports a POST reusing a live sweep id with different
// parameters; the serving layer maps it to 409.
var ErrConflict = errors.New("sweep id already exists with different parameters")

// Journal record kinds. A sweep journal is a sequence of CRC-framed
// JSON records: one manifest, then one spec record per completed
// (succeeded or quarantined) spec in completion order, then a done
// marker once the leaderboard is final.
const (
	recManifest = "manifest"
	recSpec     = "spec"
	recDone     = "done"
)

// journalRecord is the framed payload. Exactly one pointer field is
// set, selected by Kind.
type journalRecord struct {
	Kind     string    `json:"kind"`
	Manifest *manifest `json:"manifest,omitempty"`
	Spec     *Result   `json:"spec,omitempty"`
}

// manifest pins the sweep's identity in its journal. Expansion is
// deterministic, so the request alone reconstructs the spec list on
// resume; Key double-checks the journal belongs to this request.
type manifest struct {
	Key     string   `json:"key"`
	Request *Request `json:"request"`
}

// Options configures a Manager.
type Options struct {
	// World expands families and compiles specs. Required.
	World *world.World
	// Engine runs specs; nil builds a fresh engine over World. The
	// serving layer injects its engine so sweeps share the memoized
	// baseline campaigns.
	Engine *scenario.Engine
	// Store supplies the journal directory and persists the final
	// leaderboard. Required.
	Store *resultstore.Store
	// Workers bounds concurrent spec simulations (default 2).
	Workers int
	// SpecTimeout is the per-spec watchdog deadline covering every
	// retry attempt (default 5m; negative disables).
	SpecTimeout time.Duration
	// Retry is the per-spec retry policy (default: 2 attempts, short
	// backoff). Backoff sleeps abort on drain or deadline.
	Retry resilience.Policy
	// Admit, when set, gates each simulation attempt through the
	// serving layer's admission control. It returns a release func or
	// an error (shed); sheds are retried like any transient failure.
	Admit func(ctx context.Context) (func(), error)
	// RunSpec overrides how one spec is simulated. Nil — what the
	// server passes — runs the scenario engine in this process with
	// experiment tables skipped; only tests and benchmarks set it, to
	// inject cheap, failing, hanging and panicking runs.
	RunSpec func(ctx context.Context, sp *scenario.Spec) (*scenario.Diff, scenario.RunStats, error)
}

// Manager owns every sweep in the process: it expands requests,
// journals progress through the result store, runs specs on a bounded
// pool with panic isolation and retries, and serves ranked status.
type Manager struct {
	w           *world.World
	store       *resultstore.Store
	workers     int
	specTimeout time.Duration
	retry       resilience.Policy
	admit       func(ctx context.Context) (func(), error)
	run         func(ctx context.Context, sp *scenario.Spec) (*scenario.Diff, scenario.RunStats, error)
	met         managerMetrics

	ctx       context.Context // canceled by Kill: in-flight specs abandon un-journaled
	cancel    context.CancelFunc
	drainCh   chan struct{} // closed by Drain/Kill: dispatch stops, in-flight finishes
	drainOnce sync.Once

	mu     sync.Mutex
	sweeps map[string]*sweepRun // by sweep id
	wg     sync.WaitGroup
}

// sweepRun is one sweep's live state.
type sweepRun struct {
	req      *Request
	key      string
	specs    []*scenario.Spec
	specKeys []string // specs[i].Key(), cached
	skipped  []string
	journal  *resultstore.Journal

	mu      sync.Mutex
	results map[string]*Result // by spec key, journaled
	done    bool
}

// NewManager returns a Manager; call Resume to pick up journals left by
// a previous process, then Start new sweeps.
func NewManager(opts Options) *Manager {
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		w:           opts.World,
		store:       opts.Store,
		workers:     opts.Workers,
		specTimeout: opts.SpecTimeout,
		retry:       opts.Retry,
		admit:       opts.Admit,
		run:         opts.RunSpec,
		ctx:         ctx,
		cancel:      cancel,
		drainCh:     make(chan struct{}),
		sweeps:      map[string]*sweepRun{},
	}
	if m.workers <= 0 {
		m.workers = 2
	}
	if m.specTimeout == 0 {
		m.specTimeout = 5 * time.Minute
	}
	if m.retry.MaxAttempts == 0 {
		m.retry = resilience.Policy{MaxAttempts: 2, BaseDelay: 50 * time.Millisecond, MaxDelay: time.Second, Multiplier: 2}
	}
	if m.run == nil {
		eng := opts.Engine
		if eng == nil {
			eng = scenario.NewEngine(scenario.Options{World: opts.World})
		}
		m.run = func(ctx context.Context, sp *scenario.Spec) (*scenario.Diff, scenario.RunStats, error) {
			return eng.RunWith(ctx, sp, scenario.RunConfig{SkipTables: true})
		}
	}
	return m
}

// managerMetrics holds the manager's nil-safe observability hooks.
type managerMetrics struct {
	started, resumed, completed         *obs.Counter
	specsOK, specsFailed, specsRestored *obs.Counter
	retries, journalErrors              *obs.Counter
	monthsRecomputed, monthsReused      *obs.Counter
	compactions                         *obs.Counter
	active                              *obs.Gauge
	specSeconds                         *obs.Histogram
}

// Instrument registers the vz_sweep_* metrics on reg.
func (m *Manager) Instrument(reg *obs.Registry) {
	m.met = managerMetrics{
		started: reg.Counter("vz_sweep_started_total",
			"Sweeps accepted and started."),
		resumed: reg.Counter("vz_sweep_resumed_total",
			"Unfinished sweeps resumed from their journals at startup."),
		completed: reg.Counter("vz_sweep_completed_total",
			"Sweeps whose leaderboard reached its done record."),
		specsOK: reg.Counter("vz_sweep_specs_completed_total",
			"Sweep specs simulated and journaled successfully."),
		specsFailed: reg.Counter("vz_sweep_specs_failed_total",
			"Sweep specs quarantined with an error."),
		specsRestored: reg.Counter("vz_sweep_specs_restored_total",
			"Journaled spec results restored on resume (never re-simulated)."),
		retries: reg.Counter("vz_sweep_spec_retries_total",
			"Extra simulation attempts beyond each spec's first."),
		journalErrors: reg.Counter("vz_sweep_journal_errors_total",
			"Failed journal appends (result kept in memory only)."),
		monthsRecomputed: reg.Counter("vz_sweep_months_recomputed_total",
			"Campaign months re-simulated across all sweep specs."),
		monthsReused: reg.Counter("vz_sweep_months_reused_total",
			"Campaign months spliced from the memoized baseline."),
		active: reg.Gauge("vz_sweep_active",
			"Sweeps currently running (not yet done)."),
		specSeconds: reg.Histogram("vz_sweep_spec_seconds",
			"End-to-end duration of one successful sweep spec.",
			obs.LatencyBuckets),
		compactions: resultstore.InstrumentCompactions(reg),
	}
}

// Start expands req and launches its sweep. Re-POSTing an identical
// request is idempotent and returns the live status; the same id with
// different parameters returns ErrConflict.
func (m *Manager) Start(req *Request) (*Status, error) {
	specs, skipped, err := req.Expand(m.w)
	if err != nil {
		return nil, err
	}
	key := req.Key()
	m.mu.Lock()
	if ex, ok := m.sweeps[req.ID]; ok {
		m.mu.Unlock()
		if ex.key == key {
			return m.statusOf(ex), nil
		}
		return nil, fmt.Errorf("sweep %q: %w", req.ID, ErrConflict)
	}
	sw, err := m.openRun(req, key, specs, skipped)
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	m.sweeps[req.ID] = sw
	m.wg.Add(1)
	m.mu.Unlock()
	m.met.started.Inc()
	m.met.active.Add(1)
	go m.runSweep(sw)
	return m.statusOf(sw), nil
}

// openRun opens (or re-opens) the sweep's journal, replays any records
// already in it, and guarantees the manifest record is present.
func (m *Manager) openRun(req *Request, key string, specs []*scenario.Spec, skipped []string) (*sweepRun, error) {
	j, recs, _, err := resultstore.OpenJournal(m.store.JournalPath("sweep-" + key))
	if err != nil {
		return nil, fmt.Errorf("sweep %q: open journal: %w", req.ID, err)
	}
	j.Instrument(m.met.compactions)
	m.compactIfDuplicated(j, recs)
	sw := &sweepRun{
		req: req, key: key, specs: specs, skipped: skipped,
		journal: j, results: map[string]*Result{},
	}
	sw.specKeys = make([]string, len(specs))
	for i, sp := range specs {
		sw.specKeys[i] = sp.Key()
	}
	sw.replay(recs)
	hasManifest := false
	for _, raw := range recs {
		var rec journalRecord
		if json.Unmarshal(raw, &rec) == nil && rec.Kind == recManifest {
			hasManifest = true
			break
		}
	}
	if !hasManifest {
		payload, _ := json.Marshal(journalRecord{Kind: recManifest, Manifest: &manifest{Key: key, Request: req}})
		if err := j.Append(payload); err != nil {
			j.Close()
			return nil, fmt.Errorf("sweep %q: journal manifest: %w", req.ID, err)
		}
	}
	return sw, nil
}

// compactIfDuplicated rewrites a journal whose replay would skip
// redundant records — duplicate manifests or spec results left behind
// by repeated crash-resume cycles. Compaction is best-effort: a failed
// rewrite leaves the original journal intact (duplicates are harmless
// to replay, just wasted disk and startup time).
func (m *Manager) compactIfDuplicated(j *resultstore.Journal, recs [][]byte) {
	if len(dedupeSweepRecords(recs)) == len(recs) {
		return
	}
	if _, err := j.Compact(dedupeSweepRecords); err != nil {
		m.met.journalErrors.Inc()
	}
}

// dedupeSweepRecords is the journal compaction policy: keep the first
// manifest, the first spec record per spec key, and a single done
// marker. Records this version cannot decode are preserved untouched —
// a newer journal format must survive an older binary's compaction.
func dedupeSweepRecords(recs [][]byte) [][]byte {
	out := make([][]byte, 0, len(recs))
	seenManifest, seenDone := false, false
	seenSpec := map[string]bool{}
	for _, raw := range recs {
		var rec journalRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			out = append(out, raw)
			continue
		}
		switch rec.Kind {
		case recManifest:
			if seenManifest {
				continue
			}
			seenManifest = true
		case recSpec:
			if rec.Spec == nil || rec.Spec.Key == "" || seenSpec[rec.Spec.Key] {
				continue
			}
			seenSpec[rec.Spec.Key] = true
		case recDone:
			if seenDone {
				continue
			}
			seenDone = true
		}
		out = append(out, raw)
	}
	return out
}

// replay folds journal records into the run's state and returns the
// number of spec results restored. Unknown kinds are skipped — a newer
// journal version degrades to re-simulation, never to corruption.
func (sw *sweepRun) replay(recs [][]byte) int {
	restored := 0
	for _, raw := range recs {
		var rec journalRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			continue
		}
		switch rec.Kind {
		case recSpec:
			if rec.Spec != nil && rec.Spec.Key != "" {
				if _, ok := sw.results[rec.Spec.Key]; !ok {
					sw.results[rec.Spec.Key] = rec.Spec
					restored++
				}
			}
		case recDone:
			sw.done = true
		}
	}
	return restored
}

// Resume scans the store for sweep journals left by a previous process
// and restores them: finished sweeps become servable immediately,
// unfinished ones continue from exactly where the journal ends. It
// returns the number of spec results restored without re-simulation.
func (m *Manager) Resume() (restored int, err error) {
	names, err := m.store.Journals()
	if err != nil {
		return 0, err
	}
	for _, name := range names {
		if !strings.HasPrefix(name, "sweep-") {
			continue
		}
		j, recs, _, err := resultstore.OpenJournal(filepath.Join(m.store.Dir(), name))
		if err != nil {
			continue
		}
		j.Instrument(m.met.compactions)
		m.compactIfDuplicated(j, recs)
		var mf *manifest
		for _, raw := range recs {
			var rec journalRecord
			if json.Unmarshal(raw, &rec) == nil && rec.Kind == recManifest && rec.Manifest != nil {
				mf = rec.Manifest
				break
			}
		}
		if mf == nil || mf.Request == nil {
			j.Close()
			continue
		}
		specs, skipped, err := mf.Request.Expand(m.w)
		if err != nil || mf.Request.Key() != mf.Key {
			// The world or request semantics changed under the journal;
			// resuming would mix incompatible results.
			j.Close()
			continue
		}
		sw := &sweepRun{
			req: mf.Request, key: mf.Key, specs: specs, skipped: skipped,
			journal: j, results: map[string]*Result{},
		}
		sw.specKeys = make([]string, len(specs))
		for i, sp := range specs {
			sw.specKeys[i] = sp.Key()
		}
		n := sw.replay(recs)
		m.mu.Lock()
		if _, ok := m.sweeps[mf.Request.ID]; ok {
			m.mu.Unlock()
			j.Close()
			continue
		}
		m.sweeps[mf.Request.ID] = sw
		m.wg.Add(1)
		m.mu.Unlock()
		restored += n
		m.met.specsRestored.Add(uint64(n))
		if !sw.isDone() {
			m.met.resumed.Inc()
			m.met.active.Add(1)
		}
		go m.runSweep(sw)
	}
	return restored, nil
}

// Get returns the live status of the sweep with the given id.
func (m *Manager) Get(id string) (*Status, bool) {
	m.mu.Lock()
	sw, ok := m.sweeps[id]
	m.mu.Unlock()
	if !ok {
		return nil, false
	}
	return m.statusOf(sw), true
}

// List returns the status of every known sweep, sorted by id.
func (m *Manager) List() []*Status {
	m.mu.Lock()
	runs := make([]*sweepRun, 0, len(m.sweeps))
	for _, sw := range m.sweeps {
		runs = append(runs, sw)
	}
	m.mu.Unlock()
	out := make([]*Status, len(runs))
	for i, sw := range runs {
		out[i] = m.statusOf(sw)
	}
	sortStatuses(out)
	return out
}

func sortStatuses(ss []*Status) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j].ID < ss[j-1].ID; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// Drain stops dispatching new specs, waits for in-flight specs to
// finish and checkpoint, and closes the journals. Unfinished sweeps
// resume on the next process start. The SIGTERM path.
func (m *Manager) Drain(ctx context.Context) error {
	m.drainOnce.Do(func() { close(m.drainCh) })
	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Kill aborts everything immediately: in-flight specs are abandoned
// without journaling, exactly as a crash would leave them. Tests use
// it to simulate dying mid-sweep inside one process.
func (m *Manager) Kill() {
	m.cancel()
	m.drainOnce.Do(func() { close(m.drainCh) })
	m.wg.Wait()
}

// runSweep drives one sweep to completion (or to drain/kill).
func (m *Manager) runSweep(sw *sweepRun) {
	defer m.wg.Done()
	if sw.isDone() {
		sw.journal.Close()
		return
	}
	ctx, span := obs.StartSpan(m.ctx, "sweep.run")
	span.SetAttr("sweep", sw.req.ID)
	span.SetAttr("key", sw.key)
	span.SetAttr("specs", len(sw.specs))
	defer span.End()

	var pending []*scenario.Spec
	sw.mu.Lock()
	for i, sp := range sw.specs {
		if _, ok := sw.results[sw.specKeys[i]]; !ok {
			pending = append(pending, sp)
		}
	}
	sw.mu.Unlock()
	span.SetAttr("pending", len(pending))

	ch := make(chan *scenario.Spec)
	var wg sync.WaitGroup
	for i := 0; i < m.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sp := range ch {
				m.runOne(ctx, sw, sp)
			}
		}()
	}
dispatch:
	for _, sp := range pending {
		select {
		case <-m.drainCh:
			break dispatch
		case ch <- sp:
		}
	}
	close(ch)
	wg.Wait()

	if m.ctx.Err() == nil && sw.complete() {
		m.finish(sw)
	}
	sw.journal.Close()
}

// runOne executes a single spec end to end: compile gate, admission,
// watchdog deadline, bounded retry, panic isolation, journal append.
func (m *Manager) runOne(parent context.Context, sw *sweepRun, sp *scenario.Spec) {
	ctx, span := obs.StartSpan(parent, "sweep.spec")
	span.SetAttr("spec", sp.ID)
	defer span.End()
	start := time.Now()

	// Compile errors are permanent: no retry, straight to quarantine.
	if _, err := sp.Compile(m.w); err != nil {
		span.SetAttr("status", StatusFailed)
		m.record(sw, &Result{Spec: sp.ID, Key: sp.Key(), Status: StatusFailed, Error: err.Error()})
		return
	}

	sctx, cancel := ctx, context.CancelFunc(func() {})
	if m.specTimeout > 0 {
		sctx, cancel = context.WithTimeout(ctx, m.specTimeout)
	}
	defer cancel()

	type runOut struct {
		d  *scenario.Diff
		st scenario.RunStats
	}
	attempts := 0
	out, err := resilience.RetryValue(sctx, m.retry, func(ctx context.Context) (runOut, error) {
		attempts++
		if m.admit != nil {
			release, err := m.admit(ctx)
			if err != nil {
				return runOut{}, err
			}
			defer release()
		}
		d, st, err := m.safeRun(ctx, sp)
		return runOut{d, st}, err
	})
	if attempts > 1 {
		m.met.retries.Add(uint64(attempts - 1))
	}
	if err != nil {
		if parent.Err() != nil {
			// Killed mid-flight: abandon without journaling; the spec
			// re-runs on resume, which is exactly crash semantics.
			span.SetAttr("status", "abandoned")
			return
		}
		span.SetAttr("status", StatusFailed)
		m.record(sw, &Result{Spec: sp.ID, Key: sp.Key(), Status: StatusFailed, Error: err.Error()})
		return
	}
	res := summarize(sp, out.d, out.st)
	span.SetAttr("status", StatusOK)
	span.SetAttr("recomputed", res.MonthsRecomputed)
	m.met.monthsRecomputed.Add(uint64(res.MonthsRecomputed))
	m.met.monthsReused.Add(uint64(res.MonthsReused))
	m.met.specSeconds.ObserveDuration(time.Since(start))
	m.record(sw, res)
}

// safeRun converts a panicking simulation into an error so one bad
// spec can never take the worker pool down (the scenario engine has
// its own recover; this one also covers injected RunSpec overrides).
func (m *Manager) safeRun(ctx context.Context, sp *scenario.Spec) (d *scenario.Diff, st scenario.RunStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sweep: spec %q panicked: %v", sp.ID, r)
		}
	}()
	return m.run(ctx, sp)
}

// record journals one result and folds it into the run. The append
// happens before the in-memory insert: a result is only visible once
// it is crash-safe. A spec already recorded (resume races) is a no-op.
func (m *Manager) record(sw *sweepRun, res *Result) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if _, ok := sw.results[res.Key]; ok {
		return
	}
	payload, _ := json.Marshal(journalRecord{Kind: recSpec, Spec: res})
	if err := sw.journal.Append(payload); err != nil {
		// Disk trouble: keep the result in memory so the sweep can
		// finish; after a crash this spec re-runs, which is safe.
		m.met.journalErrors.Inc()
	}
	sw.results[res.Key] = res
	if res.Status == StatusFailed {
		m.met.specsFailed.Inc()
	} else {
		m.met.specsOK.Inc()
	}
}

// finish appends the done record and persists the final status (with
// its leaderboard) to the result store as a durable artifact. The run
// reads as done only once that Put has returned, so a status poll that
// sees "done" always finds the artifact; sw.mu is not held across the
// Put's fsync.
func (m *Manager) finish(sw *sweepRun) {
	sw.mu.Lock()
	payload, _ := json.Marshal(journalRecord{Kind: recDone})
	if err := sw.journal.Append(payload); err != nil {
		m.met.journalErrors.Inc()
	}
	status := sw.statusLocked()
	sw.mu.Unlock()
	status.State = StateDone
	if data, err := json.Marshal(status); err == nil {
		m.store.Put("sweep-"+sw.key, data) //nolint:errcheck // journal is the source of truth
	}
	sw.mu.Lock()
	sw.done = true
	sw.mu.Unlock()
	m.met.completed.Inc()
	m.met.active.Add(-1)
}

func (sw *sweepRun) isDone() bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.done
}

func (sw *sweepRun) complete() bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return len(sw.results) >= len(sw.specs)
}

func (m *Manager) statusOf(sw *sweepRun) *Status {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.statusLocked()
}

// statusLocked assembles the status document; sw.mu must be held.
func (sw *sweepRun) statusLocked() *Status {
	st := &Status{
		ID:      sw.req.ID,
		Key:     sw.key,
		Family:  sw.req.Family,
		State:   StateRunning,
		Total:   len(sw.specs),
		Skipped: sw.skipped,
	}
	if sw.done {
		st.State = StateDone
	}
	var rs []*Result
	for _, k := range sw.specKeys {
		if r, ok := sw.results[k]; ok {
			rs = append(rs, r)
			st.Completed++
			if r.Status == StatusFailed {
				st.Failed++
			}
		}
	}
	st.Leaderboard = leaderboard(rs)
	return st
}

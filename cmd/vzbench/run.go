package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"vzlens/internal/sweep"
	"vzlens/internal/world"
)

// Frozen workload parameters; README.md says how each was chosen.
const (
	httpConns     = 2               // = nproc on the reference box
	whatifClients = 2               // = nproc
	whatifSpecs   = 100             // more than a run can complete
	queryRate     = 400             // req/s, ~16% of the seed commit's query_mix saturation
	dnsRate       = 5000            // queries/s
	warmup        = 2 * time.Second // open-loop warm-up before each measured window; its last quarter sends nothing
	setupStarts   = 5               // fresh starts per run; setup_s is their median
	coldRestarts  = 5               // query_mix traced runs; facts.cold_query_ms is their median

	httpP99LimitMs  = 50
	dnsP99LimitUs   = 2000
	schedLagLimitMs = 5
)

var workloads = []string{"query_mix", "dns_mix", "whatif", "mixed_sweep"}

// bench holds what every run of one invocation shares: the server
// binary, the in-process world the oracles answer from, and the
// measured-window length.
type bench struct {
	bin        string
	work       string // scratch for server state and logs, removed per run
	warmup     time.Duration
	length     time.Duration
	w          *world.World
	worldBuild time.Duration
	logs       int
}

// result is one run's outcome. Attempted and Failed count every
// checked operation (warm-up and set-up probes included); Metrics holds
// the end-to-end set for an untraced run, the per-layer set for a
// traced one.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Inputs    string             `json:"inputs_sha256"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Problems  []string           `json:"problems,omitempty"`
}

func (r *result) account(ok bool, what func() string) {
	r.Attempted++
	if !ok {
		r.Failed++
		if len(r.Problems) < 5 {
			r.Problems = append(r.Problems, what())
		}
	}
}

func (r *result) failRatio() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// run executes one workload: untraced for the end-to-end metrics,
// traced for the per-layer ones.
func (b *bench) run(wl string, seed int64, traced bool) (*result, error) {
	in, err := genInputs(b.w, wl, seed, b.warmup, b.length)
	if err != nil {
		return nil, err
	}
	r := &result{Workload: wl, Seed: seed, Traced: traced, Inputs: in.hash(), Metrics: map[string]float64{}}
	var want [][]byte
	if len(in.dns) > 0 {
		want = dnsWant(b.w, in.dns)
	}
	runDir, err := os.MkdirTemp(b.work, wl+"-")
	if err != nil {
		return nil, err
	}
	if traced {
		err = b.traced(r, in, want, runDir)
	} else {
		err = b.untraced(r, in, want, runDir)
	}
	if err != nil {
		return r, fmt.Errorf("%s: %w (server logs kept in %s)", wl, err, runDir)
	}
	for _, d := range defs(r) {
		if _, ok := r.Metrics[d.name]; !ok {
			r.Metrics[d.name] = 0 // a layer the workload does not exercise
		}
	}
	return r, os.RemoveAll(runDir)
}

// start execs a server over ds and waits until it is ready.
func (b *bench) start(runDir string, ds dirs, cold bool, extra ...string) (*server, time.Duration, error) {
	b.logs++
	s, err := startServer(b.bin, ds, filepath.Join(runDir, fmt.Sprintf("vzserve-%d.log", b.logs)), extra...)
	if err != nil {
		return nil, 0, err
	}
	t, err := s.waitReady(cold, 2*time.Minute)
	if err != nil {
		s.kill()
		return nil, 0, err
	}
	return s, t, nil
}

// untraced is the end-to-end run. Set-up is sampled setupStarts times
// from empty directories; the last set-up serves the measured window,
// whose every response is checked.
func (b *bench) untraced(r *result, in *inputs, want [][]byte, runDir string) error {
	var setups []float64
	var s *server
	for i := 0; i < setupStarts; i++ {
		ds, err := newDirs(runDir)
		if err != nil {
			return err
		}
		var t time.Duration
		if s, t, err = b.start(runDir, ds, false); err != nil {
			return err
		}
		setups = append(setups, t.Seconds())
		if i == setupStarts-1 {
			break
		}
		if err := s.stop(); err != nil {
			return err
		}
		if err := os.RemoveAll(filepath.Dir(ds.facts)); err != nil {
			return err
		}
	}
	win, err := b.measure(s, r.Workload, in, want)
	if stopErr := s.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	o, err := newHTTPOracle(b.w, s.factsDir)
	if err != nil {
		return err
	}
	verify(r, win, o.body)
	r.Metrics["setup_s"] = median(setups)
	r.Metrics["heap_mb"] = win.heapMB
	b.checkLimits(win)
	return nil
}

// coldQueries restarts a server over populated directories
// coldRestarts times without warm-up and times the two full-range
// queries, which decode every partition of both fact tables.
func (b *bench) coldQueries(r *result, runDir string, ds dirs) ([]float64, error) {
	o, err := newHTTPOracle(b.w, ds.facts)
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < coldRestarts; i++ {
		s, _, err := b.start(runDir, ds, true, "-warm=false")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for _, p := range []string{fullRangeTrace, fullRangeChaos} {
			code, body, err := s.get(p)
			wantBody, oerr := o.body(p)
			r.account(err == nil && oerr == nil && code == 200 && bytes.Equal(body, wantBody),
				func() string { return fmt.Sprintf("cold GET %s: status %d, err %v, oracle err %v", p, code, err, oerr) })
		}
		out = append(out, float64(time.Since(start).Microseconds())/1e3)
		if err := s.stop(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// verify checks every operation of a window against the oracles and
// accounts for it. want renders the document an HTTP path must return.
func verify(r *result, win *window, want func(path string) ([]byte, error)) {
	verifyHTTP(win.httpReqs, win.http, want, win.load.digest)
	for i, s := range win.http {
		r.account(s.ok, func() string {
			return fmt.Sprintf("GET %s: status or body differs from the in-process oracle (response received: %v)", win.httpReqs[i].path, s.done)
		})
	}
	for i, s := range win.dns {
		r.account(s.ok, func() string {
			if !s.done {
				return fmt.Sprintf("dns query %d: no answer", i)
			}
			return fmt.Sprintf("dns query %d: answer differs from the in-process resolver", i)
		})
	}
	for _, d := range append(win.warmDiffs, win.diffs...) {
		r.account(d.ok, func() string {
			return fmt.Sprintf("diff %s: key %q scenario %q, want %q", d.spec.ID, d.key, d.scenario, d.spec.Key())
		})
	}
	if win.sweep != nil {
		st := win.sweep
		for i := 0; i < st.Completed; i++ {
			ok := i >= st.Failed
			r.account(ok, func() string { return fmt.Sprintf("sweep %s: %d specs failed", st.ID, st.Failed) })
		}
	}
}

// checkLimits warns when a run breaks the frozen latency limits or the
// generator ran late enough to invalidate it. The limits hold for the
// workloads that run alone; mixed_sweep exists to show how far the
// sweep pushes live latency past them.
func (b *bench) checkLimits(win *window) {
	if win.wl != "mixed_sweep" {
		if v, err := percentile(win.measured(win.http, true), 99); err == nil && v > httpP99LimitMs {
			fmt.Fprintf(os.Stderr, "vzbench: warning: HTTP p99 %.1f ms exceeds the %d ms limit; the frozen rate is too high for this machine\n", v, httpP99LimitMs)
		}
		if v, err := percentile(win.measured(win.dns, true), 99); err == nil && v*1e3 > dnsP99LimitUs {
			fmt.Fprintf(os.Stderr, "vzbench: warning: DNS p99 %.0f us exceeds the %d us limit\n", v*1e3, dnsP99LimitUs)
		}
	}
	if lag := win.schedLagP99(); lag > schedLagLimitMs {
		fmt.Fprintf(os.Stderr, "vzbench: warning: generator lag p99 %.2f ms > %d ms: this run is invalid\n", lag, schedLagLimitMs)
	}
}

// window is what one measured window observed.
type window struct {
	wl                  string
	warmup, length      time.Duration // nominal
	start, end          time.Time
	load                *httpLoad
	httpReqs            []httpReq
	http, dns           []sample
	warmDiffs, diffs    []diffSample
	sweep               *sweep.Status // final status, mixed_sweep only
	sweepRate           float64
	before, after       prom
	memBefore, memAfter memstats
	cpu, genCPU         float64 // CPU seconds inside the window
	heapMB              float64 // server live heap after the warm-up, nothing in flight (liveHeapMB)
	peakRSS             float64 // server VmHWM (MB) at the window's end
	srvCPU0, genCPU0    float64
}

func (w *window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

// inWindow reports whether an open-loop operation was due inside the
// measured window.
func (w *window) inWindow(s sample) bool {
	return s.due >= w.warmup && s.due < w.warmup+w.length
}

// measured returns the latencies (ms) of the window's operations,
// optionally only the successful ones.
func (w *window) measured(ss []sample, okOnly bool) []float64 {
	var out []float64
	for _, s := range ss {
		if w.inWindow(s) && (s.ok || !okOnly) && s.done {
			out = append(out, float64(s.lat.Nanoseconds())/1e6)
		}
	}
	return out
}

func (w *window) diffLats() []float64 {
	var out []float64
	for _, d := range w.diffs {
		out = append(out, float64(d.lat.Nanoseconds())/1e6)
	}
	return out
}

// foreground is the workload's main latency sample, the one
// trace.overhead_pct compares. In mixed_sweep it is the DNS stream:
// UDP adds no connection queueing to the wait for a CPU the sweep is
// holding.
func (w *window) foreground() []float64 {
	switch w.wl {
	case "dns_mix", "mixed_sweep":
		return w.measured(w.dns, true)
	case "whatif":
		return w.diffLats()
	default:
		return w.measured(w.http, true)
	}
}

func (w *window) p50ms() float64 { return median(w.foreground()) }

// ops counts the operations completed inside the window.
func (w *window) ops() int {
	n := len(w.measured(w.http, true)) + len(w.measured(w.dns, true)) + len(w.diffs)
	if w.sweep != nil {
		n += int(w.after[series("vz_sweep_specs_completed_total")] - w.before[series("vz_sweep_specs_completed_total")])
	}
	return n
}

// schedLagP99 is the generator's own lateness on idle wake-ups (ms).
func (w *window) schedLagP99() float64 {
	var lags []float64
	for _, ss := range [][]sample{w.http, w.dns} {
		for _, s := range ss {
			if w.inWindow(s) && s.idle {
				lags = append(lags, float64(s.lag.Nanoseconds())/1e6)
			}
		}
	}
	v, err := percentile(lags, 99)
	if err != nil {
		return 0
	}
	return v
}

// begin and finish mark the window's edges: counters, memstats and
// CPU of both processes.
func (w *window) begin(s *server) error {
	var err error
	if w.before, w.memBefore, err = s.scrape(); err != nil {
		return err
	}
	if w.srvCPU0, err = s.cpuSeconds(); err != nil {
		return err
	}
	if w.genCPU0, err = selfCPU(); err != nil {
		return err
	}
	w.start = time.Now()
	return nil
}

func (w *window) finish(s *server) error {
	w.end = time.Now()
	var err error
	if w.peakRSS, err = s.peakRSSMB(); err != nil {
		return err
	}
	cpu, err := s.cpuSeconds()
	if err != nil {
		return err
	}
	gen, err := selfCPU()
	if err != nil {
		return err
	}
	w.cpu, w.genCPU = cpu-w.srvCPU0, gen-w.genCPU0
	w.after, w.memAfter, err = s.scrape()
	return err
}

// measure runs the workload's warm-up and measured window against s.
func (b *bench) measure(s *server, wl string, in *inputs, want [][]byte) (*window, error) {
	win := &window{wl: wl, warmup: b.warmup, length: b.length, load: newHTTPLoad(s.http, httpConns), httpReqs: in.http}
	defer win.load.close()
	if wl == "whatif" {
		return win, b.measureWhatif(s, in, win)
	}
	t0 := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	var dnsErr, edgeErr error
	if len(in.http) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			win.http = win.load.run(t0, in.http)
		}()
	}
	if len(in.dns) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			win.dns, dnsErr = runDNS(t0, s.dns, in.dns, want)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		edgeErr = b.edges(s, in, win, t0)
	}()
	wg.Wait()
	if err := errors.Join(dnsErr, edgeErr); err != nil {
		return nil, err
	}
	if in.sweep != nil {
		var st sweep.Status
		if err := s.getJSON(s.http+"/api/sweeps/mixed", &st); err != nil {
			return nil, err
		}
		win.sweep = &st
	}
	return win, nil
}

// edges measures the server's live heap in the silent last quarter of
// the warm-up, once the requests sent before it have been answered (a
// 390 KB answer in flight would otherwise hold megabytes live), then
// scrapes at both ends of the measured window and, for mixed_sweep,
// starts the sweep at the window's opening and follows its progress
// until the window closes.
func (b *bench) edges(s *server, in *inputs, win *window, t0 time.Time) error {
	time.Sleep(time.Until(t0.Add(b.warmup - b.warmup/8)))
	var err error
	if win.heapMB, err = s.liveHeapMB(); err != nil {
		return err
	}
	time.Sleep(time.Until(t0.Add(b.warmup)))
	if err := win.begin(s); err != nil {
		return err
	}
	end := t0.Add(b.warmup + b.length)
	if in.sweep != nil {
		resp, err := s.ctl.Post(s.http+"/api/sweeps", "application/json", bytes.NewReader(in.sweep))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("POST /api/sweeps: %s", resp.Status)
		}
		rate, err := followSweep(s, end)
		if err != nil {
			return err
		}
		win.sweepRate = rate
	}
	time.Sleep(time.Until(end))
	return win.finish(s)
}

// followSweep polls the completed-spec counter every 100 ms until end
// and returns the completion rate between the first and the last
// completion it saw: specs per second without the quantization of a
// whole-window count.
func followSweep(s *server, end time.Time) (float64, error) {
	const counter = "vz_sweep_specs_completed_total"
	var base, first, last float64
	var tFirst, tLast time.Time
	begin := time.Now()
	for i := 0; time.Now().Before(end); i++ {
		resp, err := s.ctl.Get(s.debug + "/metrics")
		if err != nil {
			return 0, err
		}
		p, err := parseProm(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		now, n := time.Now(), p[counter]
		switch {
		case i == 0:
			base, first, last = n, n, n
		case n > last && first == base:
			first, last, tFirst, tLast = n, n, now, now
		case n > last:
			last, tLast = n, now
		}
		time.Sleep(100 * time.Millisecond)
	}
	if last-first >= 2 {
		return (last - first) / tLast.Sub(tFirst).Seconds(), nil
	}
	return (last - base) / time.Since(begin).Seconds(), nil
}

// measureWhatif warms the scenario path with one diff per client,
// measures the live heap while nothing is in flight, then runs the
// closed loop for the window.
func (b *bench) measureWhatif(s *server, in *inputs, win *window) error {
	win.warmDiffs = win.load.runWhatif(in.warmSpecs, whatifClients, time.Now().Add(time.Hour))
	var err error
	if win.heapMB, err = s.liveHeapMB(); err != nil {
		return err
	}
	if err := win.begin(s); err != nil {
		return err
	}
	win.diffs = win.load.runWhatif(in.specs, whatifClients, win.start.Add(b.length))
	return win.finish(s)
}

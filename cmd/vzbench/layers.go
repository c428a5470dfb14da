package main

import (
	"context"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"vzlens/internal/atlas"
	"vzlens/internal/dnsplane"
	"vzlens/internal/dnswire"
	"vzlens/internal/facts"
	"vzlens/internal/overload"
	"vzlens/internal/query"
	"vzlens/internal/resultstore"
	"vzlens/internal/scenario"
)

// traced is the per-layer run: an untraced pass for the client-side
// numbers and the tracing overhead, then the same inputs against a
// fresh server started with -trace, whose counters and spans attribute
// the window's time to layers, then in-process timings of the layers'
// public functions.
func (b *bench) traced(r *result, in *inputs, want [][]byte, runDir string) error {
	plain, _, err := b.pass(r, in, want, runDir)
	if err != nil {
		return err
	}
	spansPath := filepath.Join(runDir, "spans.jsonl")
	win, ds, err := b.pass(r, in, want, runDir, "-trace", spansPath)
	if err != nil {
		return err
	}
	f, err := os.Open(spansPath)
	if err != nil {
		return err
	}
	spans, err := readSpans(f)
	f.Close()
	if err != nil {
		return err
	}
	m := r.Metrics
	layerMetrics(m, win, spansIn(spans, win))
	clientMetrics(m, plain, win)
	if r.Workload == "query_mix" {
		colds, err := b.coldQueries(r, runDir, ds)
		if err != nil {
			return err
		}
		m["facts.cold_query_ms"] = median(colds)
	}
	m["fail_ratio"] = r.failRatio()
	return b.inproc(m, in, ds.facts)
}

// pass runs one fresh server over the workload's window and verifies
// what it answered. It returns the window and the server's state
// directories.
func (b *bench) pass(r *result, in *inputs, want [][]byte, runDir string, extra ...string) (*window, dirs, error) {
	ds, err := newDirs(runDir)
	if err != nil {
		return nil, ds, err
	}
	s, _, err := b.start(runDir, ds, false, extra...)
	if err != nil {
		return nil, ds, err
	}
	win, err := b.measure(s, r.Workload, in, want)
	if stopErr := s.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, ds, err
	}
	o, err := newHTTPOracle(b.w, ds.facts)
	if err != nil {
		return nil, ds, err
	}
	verify(r, win, o.body)
	return win, ds, nil
}

// spansIn keeps the spans that ended inside the measured window.
func spansIn(spans []span, win *window) []span {
	var out []span
	for _, s := range spans {
		if !s.End.Before(win.start) && !s.End.After(win.end) {
			out = append(out, s)
		}
	}
	return out
}

// spanStats returns the mean duration and mean self time (ms) of the
// spans named name.
func spanStats(spans []span, self map[string]time.Duration, name string) (dur, selfMs float64) {
	var ds, ss []float64
	for _, s := range spans {
		if s.Name == name {
			ds = append(ds, float64(s.DurUS)/1e3)
			ss = append(ss, float64(self[s.ID].Nanoseconds())/1e6)
		}
	}
	return mean(ds), mean(ss)
}

// monthSpans returns the mean duration (ms) of the campaign.month spans
// under campaign.trace and under campaign.chaos spans.
func monthSpans(spans []span) (trace, chaos float64) {
	parent := map[string]string{}
	for _, s := range spans {
		parent[s.ID] = s.Name
	}
	var tr, ch []float64
	for _, s := range spans {
		if s.Name != "campaign.month" {
			continue
		}
		switch parent[s.Parent] {
		case "campaign.trace":
			tr = append(tr, float64(s.DurUS)/1e3)
		case "campaign.chaos":
			ch = append(ch, float64(s.DurUS)/1e3)
		}
	}
	return mean(tr), mean(ch)
}

// layerMetrics derives the Δ and span metrics of a traced window.
func layerMetrics(m map[string]float64, win *window, spans []span) {
	d := delta(win.before, win.after)
	self := selfTimes(spans)
	secs := win.seconds()
	ops := float64(win.ops())
	if ops == 0 {
		ops = 1
	}

	m["proc.cpu_cores"] = win.cpu / secs
	m["proc.alloc_kb_per_op"] = float64(win.memAfter.TotalAlloc-win.memBefore.TotalAlloc) / 1024 / ops
	m["proc.gc_cycles"] = float64(win.memAfter.NumGC - win.memBefore.NumGC)
	m["proc.gc_pause_ms"] = float64(win.memAfter.PauseTotalNs-win.memBefore.PauseTotalNs) / 1e6
	m["proc.rss_peak_mb"] = win.peakRSS

	for _, class := range []string{"query", "experiment", "scenario"} {
		m["http.server_ms."+class] = d.histMean("vz_http_request_seconds", "class", class) * 1e3
	}
	if lats := win.measured(win.http, true); len(lats) > 0 {
		q, e := series("vz_http_request_seconds_sum", "class", "query"), series("vz_http_request_seconds_sum", "class", "experiment")
		qn, en := series("vz_http_request_seconds_count", "class", "query"), series("vz_http_request_seconds_count", "class", "experiment")
		if n := d[qn] + d[en]; n > 0 {
			// Means on both sides: a p50 minus a mean is not a time
			// anything spends.
			m["http.client_gap_ms"] = mean(lats) - (d[q]+d[e])/n*1e3
		}
		var kb []float64
		for _, s := range win.http {
			if win.inWindow(s) {
				kb = append(kb, float64(s.size)/1024)
			}
		}
		m["http.resp_kb"] = mean(kb)
	}
	_, m["http.self_ms"] = spanStats(spans, self, "http.request")
	m["query.exec_ms"] = d.histMean("vz_query_seconds") * 1e3
	if qdur, _ := spanStats(spans, self, "query"); qdur > 0 {
		m["http.render_ms"] = qdur - m["query.exec_ms"]
	}
	for _, reason := range []string{"shed", "queue_full", "queue_timeout", "client_canceled", "overloaded", "rate_limited"} {
		m["http.shed"] += d[series("vz_http_sheds_total", "reason", reason)]
	}
	m["http.5xx"] = d[series("vz_http_responses_total", "code", "5xx")]

	m["gate.wait_ms"] = d.histMean("vz_gate_queue_wait_seconds") * 1e3
	m["gate.admitted"] = d["vz_gate_queue_wait_seconds_count"]
	m["gate.peak_inflight"] = win.after["vz_gate_peak_inflight"]
	m["gate.rejected_fast"] = d["vz_gate_rejected_fast"]

	if plans := d["vz_query_plans_total"]; plans > 0 {
		m["query.partitions_per_plan"] = d["vz_query_partitions_total"] / plans
	}
	m["facts.decodes"] = d["vz_facts_decodes"]

	m["dns.server_us"] = d.histMean("vz_dns_query_seconds") * 1e6
	if lats := win.measured(win.dns, true); len(lats) > 0 {
		m["dns.client_gap_us"] = mean(lats)*1e3 - m["dns.server_us"]
	}
	hit, miss := d[series("vz_dns_answer_cache_total", "outcome", "hit")], d[series("vz_dns_answer_cache_total", "outcome", "miss")]
	if hit+miss > 0 {
		m["dns.cache_hit_ratio"] = hit / (hit + miss)
	}
	dnsDur, _ := spanStats(spans, self, "dns.query")
	m["dns.span_us"] = dnsDur * 1e3

	// Scenario runs replay only their windowed months, and that path
	// feeds no vz_campaign_* histogram, so the kernel's month time comes
	// from the campaign.month spans under each campaign span.
	m["kernel.month_ms.trace"], m["kernel.month_ms.chaos"] = monthSpans(spans)

	m["scenario.run_ms"] = d.histMean("vz_scenario_run_seconds") * 1e3
	_, m["scenario.self_ms"] = spanStats(spans, self, "campaign.scenario")
	_, m["scenario.render_ms"] = spanStats(spans, self, "scenario.diff")

	m["sweep.spec_s"] = d.histMean("vz_sweep_spec_seconds")
	m["sweep.failed"] = d["vz_sweep_specs_failed_total"]

	m["store.fsync_ms"] = d.histMean("vz_resultstore_fsync_seconds") * 1e3
	m["store.puts"] = d["vz_resultstore_puts_total"]
	if m["store.puts"] > 0 {
		m["store.put_kb"] = d["vz_resultstore_put_bytes_total"] / 1024 / m["store.puts"]
	}
	m["store.hits"] = d["vz_resultstore_hits_total"]
	if m["store.hits"] > 0 {
		m["store.read_kb"] = d["vz_resultstore_read_bytes_total"] / 1024 / m["store.hits"]
	}

	m["gen.sched_lag_p99_ms"] = win.schedLagP99()
	m["gen.cpu_cores"] = win.genCPU / secs
}

// clientMetrics records what the untraced pass's clients saw, and what
// tracing cost the traced pass.
func clientMetrics(m map[string]float64, plain, traced *window) {
	http := plain.measured(plain.http, true)
	m["client.http_p50_ms"] = median(http)
	if v, err := percentile(http, 99); err == nil {
		m["client.http_p99_ms"] = v
	}
	dns := plain.measured(plain.dns, true)
	m["client.dns_p50_us"] = median(dns) * 1e3
	if v, err := percentile(dns, 99); err == nil {
		m["client.dns_p99_us"] = v * 1e3
	}
	if len(plain.diffs) > 0 {
		m["client.diff_p50_ms"] = median(plain.diffLats())
		m["client.diffs_per_s"] = float64(len(plain.diffs)) / plain.seconds()
	}
	m["client.sweep_specs_per_s"] = plain.sweepRate
	if ops := plain.ops(); ops > 0 {
		m["proc.cpu_per_op_us"] = plain.cpu / float64(ops) * 1e6
	}
	if base := plain.p50ms(); base > 0 {
		m["trace.overhead_pct"] = (traced.p50ms()/base - 1) * 100
	}
}

// inproc times the layers' public functions on this workload's inputs,
// after the server has stopped. Layers the workload does not exercise
// are skipped and read 0.
func (b *bench) inproc(m map[string]float64, in *inputs, lakeDir string) error {
	m["world.build_ms"] = float64(b.worldBuild.Microseconds()) / 1e3

	g := overload.NewGate(overload.GateOptions{MaxInFlight: 64})
	const acquires = 200_000
	t := time.Now()
	for i := 0; i < acquires; i++ {
		release, err := g.Acquire(context.Background(), overload.PriorityLow)
		if err != nil {
			return err
		}
		release()
	}
	m["gate.acquire_ns"] = float64(time.Since(t).Nanoseconds()) / acquires

	// A fresh read-only open of the server's lake, then every partition
	// decoded once: what a cold restart pays.
	t = time.Now()
	lake, err := facts.Open(lakeDir, b.w.Config.Scope())
	if err != nil {
		return err
	}
	m["facts.open_ms"] = float64(time.Since(t).Microseconds()) / 1e3
	t = time.Now()
	parts := 0
	for _, mo := range lake.TraceMonths() {
		if _, err := lake.TracePart(mo); err != nil {
			return err
		}
		parts++
	}
	for _, mo := range lake.ChaosMonths() {
		if _, err := lake.ChaosPart(mo); err != nil {
			return err
		}
		parts++
	}
	m["facts.decode_ms"] = float64(time.Since(t).Microseconds()) / 1e3 / float64(parts)

	tmp, err := os.MkdirTemp(filepath.Dir(lakeDir), "inproc-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	fresh, err := facts.Open(filepath.Join(tmp, "facts"), b.w.Config.Scope())
	if err != nil {
		return err
	}
	t = time.Now()
	if err := fresh.Build(context.Background(), b.w); err != nil {
		return err
	}
	m["facts.build_s"] = time.Since(t).Seconds()

	if len(in.http) > 0 {
		if err := inprocQuery(m, lake, in.http); err != nil {
			return err
		}
	}
	if len(in.dns) > 0 {
		inprocDNS(m, b, in.dns)
	}
	if len(in.specs) > 0 {
		if err := inprocScenario(m, b, lake, in.specs[:2]); err != nil {
			return err
		}
	}
	return inprocStore(m, filepath.Join(tmp, "store"))
}

// inprocQuery times ParseParams and Engine.Run over the stream's
// distinct plans on a warm lake, cycling until the p99 has 1000 runs
// under it.
func inprocQuery(m map[string]float64, lake *facts.Lake, reqs []httpReq) error {
	seen := map[string]bool{}
	var plans []url.Values
	for _, r := range reqs {
		if q, ok := strings.CutPrefix(r.path, "/api/query?"); ok && !seen[q] {
			seen[q] = true
			v, err := url.ParseQuery(q)
			if err != nil {
				return err
			}
			plans = append(plans, v)
		}
	}
	if len(plans) == 0 {
		return nil
	}
	const parseReps = 20
	parsed := make([]query.Params, len(plans))
	t := time.Now()
	for rep := 0; rep < parseReps; rep++ {
		for i, v := range plans {
			p, err := query.ParseParams(v)
			if err != nil {
				return err
			}
			parsed[i] = p
		}
	}
	m["query.parse_us"] = float64(time.Since(t).Nanoseconds()) / 1e3 / float64(parseReps*len(plans))
	eng := query.New(lake)
	runs := make([]float64, 0, 1000)
	for i := 0; len(runs) < 1000; i++ {
		t := time.Now()
		if _, err := eng.Run(parsed[i%len(parsed)]); err != nil {
			return err
		}
		runs = append(runs, float64(time.Since(t).Nanoseconds())/1e3)
	}
	var err error
	if m["query.run_us_p99"], err = percentile(runs, 99); err != nil {
		return err
	}
	m["query.run_us_p50"] = median(runs)
	return nil
}

// inprocDNS times Resolver.Handle (after one warming pass fills the
// answer cache) and the bare wire parser over the stream's packets.
func inprocDNS(m map[string]float64, b *bench, reqs []dnsReq) {
	res := dnsplane.NewResolver(b.w, 0)
	dst := make([]byte, 0, dnswire.MaxUDPSize)
	for _, r := range reqs {
		res.Handle(r.pkt, dst)
	}
	t := time.Now()
	for _, r := range reqs {
		res.Handle(r.pkt, dst)
	}
	m["dns.handle_ns"] = float64(time.Since(t).Nanoseconds()) / float64(len(reqs))
	var q dnswire.Query
	t = time.Now()
	for _, r := range reqs {
		_ = dnswire.ParseQuery(r.pkt, &q)
	}
	m["dns.parse_ns"] = float64(time.Since(t).Nanoseconds()) / float64(len(reqs))
}

// inprocScenario times Engine.RunWith on the first specs of the stream,
// with the baseline campaigns reconstructed from the lake as the server
// holds them memoized.
func inprocScenario(m map[string]float64, b *bench, lake *facts.Lake, specs []*scenario.Spec) error {
	tc, err := lake.TraceCampaign()
	if err != nil {
		return err
	}
	cc, err := lake.ChaosCampaign()
	if err != nil {
		return err
	}
	eng := scenario.NewEngine(scenario.Options{
		World:         b.w,
		BaselineTrace: func(context.Context) (*atlas.TraceCampaign, error) { return tc, nil },
		BaselineChaos: func(context.Context) (*atlas.ChaosCampaign, error) { return cc, nil },
	})
	var ms []float64
	for _, sp := range specs {
		t := time.Now()
		if _, _, err := eng.RunWith(context.Background(), sp, scenario.RunConfig{}); err != nil {
			return fmt.Errorf("in-process scenario %s: %w", sp.ID, err)
		}
		ms = append(ms, float64(time.Since(t).Microseconds())/1e3)
	}
	m["scenario.run_ms_inproc"] = mean(ms)
	return nil
}

// inprocStore times durable Put and Get on payloads of the sizes the
// window's store traffic had.
func inprocStore(m map[string]float64, dir string) error {
	putKB, readKB := m["store.put_kb"], m["store.read_kb"]
	if putKB == 0 && readKB == 0 {
		return nil
	}
	st, err := resultstore.Open(dir)
	if err != nil {
		return err
	}
	if putKB > 0 {
		payload := make([]byte, int(putKB*1024))
		const puts = 10
		t := time.Now()
		for i := 0; i < puts; i++ {
			if err := st.Put(fmt.Sprintf("put-%d", i), payload); err != nil {
				return err
			}
		}
		m["store.put_ms"] = float64(time.Since(t).Microseconds()) / 1e3 / puts
	}
	if readKB > 0 {
		if err := st.Put("get", make([]byte, int(readKB*1024))); err != nil {
			return err
		}
		const gets = 200
		t := time.Now()
		for i := 0; i < gets; i++ {
			if _, err := st.Get("get"); err != nil {
				return err
			}
		}
		m["store.get_us"] = float64(time.Since(t).Nanoseconds()) / 1e3 / gets
	}
	return nil
}

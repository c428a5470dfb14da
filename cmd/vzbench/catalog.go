package main

// metricDef is one reported metric. The end-to-end list and the
// per-layer list are what BENCHMARK.json declares (a test holds the two
// in step); moves records, for a per-layer metric, which metric it
// should move and on which workload.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, share of the parent's median
	moves              string
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics that gate a change: what a user of vzserve
// sees and what repeats within its bound from one set of runs to the
// next on the reference box. Every workload reports both. heap_mb is
// the server's live heap after warm-up, a byte count that repeats to
// about 1% and keeps the 10% bound. setup_s is the one time metric
// here, because set-up time must be gated so that work moved into
// set-up shows; it takes the 0.25 ceiling, as the host's speed drifts
// by more than 10% between sets of runs. The latencies and rates users
// see are per-layer (client.*), for that same drift; README.md has the
// measurements.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: lower, bound: 0.25},
	{name: "heap_mb", unit: "MB", better: lower, bound: 0.10},
}

// perLayer attributes time to vzserve's modules, measured from outside:
// Δ = server counters scraped at both edges of the measured window,
// span = self time from the server's -trace output, in-proc = the
// harness timing the module's public functions on the same inputs
// after the server stops. The client.* metrics and proc.cpu_per_op_us
// come from an untraced pass. A metric a workload does not exercise
// reads 0.
var perLayer = []metricDef{
	// what users see, tracing off; too noisy here for a bound
	{name: "client.http_p50_ms", unit: "ms", better: lower, moves: "user-facing, query_mix and mixed_sweep"},
	{name: "client.http_p99_ms", unit: "ms", better: lower, moves: "user-facing, query_mix and mixed_sweep; limit 50"},
	{name: "client.dns_p50_us", unit: "us", better: lower, moves: "user-facing, dns_mix and mixed_sweep"},
	{name: "client.dns_p99_us", unit: "us", better: lower, moves: "user-facing, dns_mix and mixed_sweep; limit 2000"},
	{name: "client.diff_p50_ms", unit: "ms", better: lower, moves: "user-facing, whatif"},
	{name: "client.diffs_per_s", unit: "1/s", better: higher, moves: "user-facing, whatif"},
	{name: "client.sweep_specs_per_s", unit: "1/s", better: higher, moves: "user-facing, mixed_sweep"},
	{name: "proc.cpu_per_op_us", unit: "us", better: lower, moves: "capacity (cores / CPU per op), query_mix, dns_mix and whatif"},
	{name: "fail_ratio", unit: "ratio", better: lower, moves: "user-facing, all; bound +0.001"},
	// vzserve process
	{name: "proc.cpu_cores", unit: "cores", better: lower, moves: "proc.cpu_per_op_us, all"},
	{name: "proc.alloc_kb_per_op", unit: "KB", better: lower, moves: "proc.cpu_per_op_us, query_mix"},
	{name: "proc.gc_cycles", unit: "count", better: lower, moves: "client.http_p99_ms on query_mix, client.dns_p99_us on dns_mix"},
	{name: "proc.gc_pause_ms", unit: "ms", better: lower, moves: "client.http_p99_ms on query_mix, client.dns_p99_us on dns_mix"},
	{name: "proc.rss_peak_mb", unit: "MB", better: lower, moves: "heap_mb, all"},
	// httpapi
	{name: "http.server_ms.query", unit: "ms", better: lower, moves: "client.http_p50_ms, query_mix"},
	{name: "http.server_ms.experiment", unit: "ms", better: lower, moves: "client.http_p50_ms, query_mix"},
	{name: "http.server_ms.scenario", unit: "ms", better: lower, moves: "client.diff_p50_ms, whatif"},
	{name: "http.client_gap_ms", unit: "ms", better: lower, moves: "client.http_p50_ms, query_mix"},
	{name: "http.self_ms", unit: "ms", better: lower, moves: "client.http_p50_ms, query_mix"},
	{name: "http.render_ms", unit: "ms", better: lower, moves: "client.http_p99_ms, query_mix"},
	{name: "http.resp_kb", unit: "KB", better: lower, moves: "client.http_p99_ms, query_mix"},
	{name: "http.shed", unit: "count", better: lower, moves: "fail_ratio, mixed_sweep"},
	{name: "http.5xx", unit: "count", better: lower, moves: "fail_ratio, mixed_sweep"},
	// overload
	{name: "gate.wait_ms", unit: "ms", better: lower, moves: "client.http_p99_ms, mixed_sweep"},
	{name: "gate.admitted", unit: "count", better: higher, moves: "client.http_p99_ms, mixed_sweep"},
	{name: "gate.peak_inflight", unit: "count", better: lower, moves: "client.http_p99_ms, mixed_sweep"},
	{name: "gate.rejected_fast", unit: "count", better: lower, moves: "fail_ratio on dns_mix and mixed_sweep"},
	{name: "gate.acquire_ns", unit: "ns", better: lower, moves: "client.http_p50_ms, query_mix"},
	// query
	{name: "query.exec_ms", unit: "ms", better: lower, moves: "client.http_p50_ms, query_mix"},
	{name: "query.partitions_per_plan", unit: "count", better: lower, moves: "client.http_p99_ms, query_mix"},
	{name: "query.run_us_p50", unit: "us", better: lower, moves: "client.http_p99_ms, query_mix"},
	{name: "query.run_us_p99", unit: "us", better: lower, moves: "client.http_p99_ms, query_mix"},
	{name: "query.parse_us", unit: "us", better: lower, moves: "client.http_p99_ms, query_mix"},
	// facts
	{name: "facts.cold_query_ms", unit: "ms", better: lower, moves: "user-facing: first queries after a restart, query_mix"},
	{name: "facts.decodes", unit: "count", better: lower, moves: "facts.cold_query_ms, query_mix (0 in a warm window)"},
	{name: "facts.decode_ms", unit: "ms", better: lower, moves: "facts.cold_query_ms, all"},
	{name: "facts.open_ms", unit: "ms", better: lower, moves: "facts.cold_query_ms, all"},
	{name: "facts.build_s", unit: "s", better: lower, moves: "setup_s, all"},
	// dnswire + dnsplane
	{name: "dns.server_us", unit: "us", better: lower, moves: "client.dns_p50_us, dns_mix"},
	{name: "dns.client_gap_us", unit: "us", better: lower, moves: "client.dns_p50_us, dns_mix"},
	{name: "dns.cache_hit_ratio", unit: "ratio", better: higher, moves: "client.dns_p99_us, dns_mix"},
	{name: "dns.span_us", unit: "us", better: lower, moves: "client.dns_p99_us, dns_mix"},
	{name: "dns.handle_ns", unit: "ns", better: lower, moves: "proc.cpu_per_op_us, dns_mix"},
	{name: "dns.parse_ns", unit: "ns", better: lower, moves: "proc.cpu_per_op_us, dns_mix"},
	// world kernel (with netsim overlays)
	{name: "world.build_ms", unit: "ms", better: lower, moves: "setup_s, all"},
	{name: "kernel.month_ms.trace", unit: "ms", better: lower, moves: "client.diff_p50_ms on whatif, client.sweep_specs_per_s on mixed_sweep"},
	{name: "kernel.month_ms.chaos", unit: "ms", better: lower, moves: "client.diff_p50_ms on whatif, client.sweep_specs_per_s on mixed_sweep"},
	// scenario
	{name: "scenario.run_ms", unit: "ms", better: lower, moves: "client.diff_p50_ms, whatif"},
	{name: "scenario.self_ms", unit: "ms", better: lower, moves: "client.diff_p50_ms, whatif"},
	{name: "scenario.render_ms", unit: "ms", better: lower, moves: "client.diff_p50_ms, whatif"},
	{name: "scenario.run_ms_inproc", unit: "ms", better: lower, moves: "client.diff_p50_ms, whatif"},
	// sweep
	{name: "sweep.spec_s", unit: "s", better: lower, moves: "client.sweep_specs_per_s, mixed_sweep"},
	{name: "sweep.failed", unit: "count", better: lower, moves: "fail_ratio, mixed_sweep"},
	// resultstore
	{name: "store.fsync_ms", unit: "ms", better: lower, moves: "client.diff_p50_ms on whatif, client.sweep_specs_per_s on mixed_sweep"},
	{name: "store.puts", unit: "count", better: lower, moves: "client.diff_p50_ms on whatif, client.sweep_specs_per_s on mixed_sweep"},
	{name: "store.put_kb", unit: "KB", better: lower, moves: "client.diff_p50_ms on whatif, client.sweep_specs_per_s on mixed_sweep"},
	{name: "store.hits", unit: "count", better: higher, moves: "client.http_p50_ms, query_mix"},
	{name: "store.read_kb", unit: "KB", better: lower, moves: "client.http_p50_ms, query_mix"},
	{name: "store.get_us", unit: "us", better: lower, moves: "client.http_p50_ms, query_mix"},
	{name: "store.put_ms", unit: "ms", better: lower, moves: "client.diff_p50_ms, whatif"},
	// harness validity and tracing cost
	{name: "gen.sched_lag_p99_ms", unit: "ms", better: lower, moves: "run invalid above 5"},
	{name: "gen.cpu_cores", unit: "cores", better: lower, moves: "harness cost"},
	{name: "trace.overhead_pct", unit: "%", better: lower, moves: "traced vs untraced foreground p50"},
}

// Command vzserve exposes the reproduction over HTTP: JSON and CSV
// documents for every experiment and per-country summaries.
//
//	vzserve [-addr :8080] [-quick] [-workers N] [-warm] [-drain 30s] [-timeout 5m]
//	        [-max-inflight 64] [-queue-timeout 10s] [-store DIR] [-facts DIR]
//	        [-debug-addr :6060] [-trace FILE]
//	        [-scenario-file FILE] [-scenario-lenient]
//	        [-sweep-workers 2] [-sweep-spec-timeout 5m]
//	        [-dns-addr :5353] [-dns-month 2023-01] [-dns-readers 2]
//	        [-role standalone]
//
//	GET  /healthz                     (liveness)
//	GET  /readyz                      (readiness + degradation report + overload stats)
//	GET  /metrics                     (Prometheus text format)
//	GET  /metrics.json                (same registry as JSON)
//	GET  /api/experiments
//	GET  /api/experiments/{id}        (fig1..fig21, table1; append .csv)
//	GET  /api/countries/{cc}
//	GET  /api/query                   (ad-hoc fact-lake aggregation; requires -facts or -store)
//	GET  /api/scenarios               (registered counterfactual scenarios)
//	POST /api/scenarios               (register a scenario spec)
//	GET  /api/scenarios/{id}/diff     (baseline-vs-scenario diff; simulates on first request)
//	GET  /api/sweeps                  (all batch sweeps; requires -store)
//	POST /api/sweeps                  (start a batch sweep: depeer_each, cable_cut_each, root_each, specs)
//	GET  /api/sweeps/{id}             (sweep progress + ranked impact leaderboard)
//	GET  /api/dns                     (DNS plane status; requires -dns-addr)
//	PUT  /api/dns/scenario/{id}       (route DNS answers through a registered scenario)
//	DEL  /api/dns/scenario            (back to the baseline topology)
//
// -dns-addr starts the authoritative DNS/GSLB data plane on a UDP
// socket: CHAOS TXT queries ("dig @host -p 5353 CH TXT hostname.bind.l")
// return the root instance whose catchment covers the client, and IN
// A/AAAA/TXT queries for <letter>.root-servers.vz return a synthetic
// service address for the same instance. The client's vantage comes
// from EDNS0 Client Subnet (a /32 in 10.0.0.0/8 names a simulated
// probe; anything else maps onto a country vantage; none = Venezuela).
// -dns-month pins the served month (default: the campaign end).
// Queries admit through the same overload gate as HTTP requests —
// under saturation the plane answers REFUSED instead of queueing.
//
// A sweep expands one templated request into up to 512 scenario specs
// and simulates them on -sweep-workers goroutines, journaling every
// completed spec through the -store so a killed server resumes exactly
// where it died — completed specs are never re-simulated. A spec that
// fails to compile, panics, or exceeds -sweep-spec-timeout is
// quarantined into the leaderboard with its error; the rest of the
// sweep proceeds. On SIGTERM the server drains in-flight specs and
// checkpoints before exiting.
//
// vzserve is one standalone process. -role accepts only "standalone"
// (its default); any other value exits nonzero, because the sharded
// cluster tier was removed (DESIGN.md §15).
//
// -facts DIR persists both campaigns as a month-partitioned columnar
// fact lake under DIR and serves ad-hoc aggregations over it at GET
// /api/query (metric × country × month window × percentile × group-by;
// see DESIGN.md §17). Without -facts, -store DIR puts the lake at
// DIR/facts/<scope>, one directory per world configuration, so
// /api/query is served under -store too. A lake built by
// a previous run reloads instantly; otherwise the first generation is
// built from the campaigns the background warm-up simulates, and
// queries answer 503 with Retry-After until it commits. Only
// partitions inside the requested month window are ever decoded.
//
// -scenario-file is validated as a whole at startup: every invalid
// entry is reported with its spec id, and the process exits nonzero
// unless -scenario-lenient asks it to serve the valid subset.
//
// Campaign-backed experiments (fig6, fig12, fig16, fig20) simulate on
// first request and are cached for the life of the process; a failed
// simulation returns 503 with Retry-After and is retried on the next
// request rather than cached. By default the caches pre-warm in the
// background at startup (-warm=false disables), with monthly snapshots
// fanned out over -workers goroutines.
//
// The server is protected against overload: at most -max-inflight
// requests execute concurrently, the overflow waits up to
// -queue-timeout in a priority queue (health probes are never queued),
// and beyond that requests are shed with 503 + Retry-After. Concurrent
// requests for the same experiment coalesce into one computation. With
// -store, computed tables persist to a crash-safe on-disk store and
// the campaigns to its fact lake, so a restarted server warms
// near-instantly; corrupt entries are quarantined and recomputed. SIGINT/SIGTERM drain
// in-flight requests for up to -drain before the process exits.
//
// Observability: -debug-addr starts a second listener (bind it to
// localhost) serving /debug/pprof, /debug/vars (expvar), and the same
// /metrics registry as the API. -trace FILE appends one JSON line per
// finished span (use "-" for stderr); every response carries its trace
// ID in X-Trace-Id.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"time"

	"vzlens/internal/atlas"
	"vzlens/internal/dnsplane"
	"vzlens/internal/httpapi"
	"vzlens/internal/months"
	"vzlens/internal/netsim"
	"vzlens/internal/obs"
	"vzlens/internal/resultstore"
	"vzlens/internal/scenario"
	"vzlens/internal/world"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	quick := flag.Bool("quick", true, "quarterly campaign resolution")
	seed := flag.Int64("seed", 0, "world seed (0 = default)")
	workers := flag.Int("workers", 0, "campaign worker pool size (0 = GOMAXPROCS)")
	warm := flag.Bool("warm", true, "pre-warm campaign caches in the background")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown drain deadline")
	timeout := flag.Duration("timeout", 5*time.Minute, "per-request timeout (0 = none)")
	maxInflight := flag.Int("max-inflight", 64, "max concurrently executing requests (0 = unlimited)")
	queueTimeout := flag.Duration("queue-timeout", 10*time.Second, "max wait for an execution slot before shedding")
	storeDir := flag.String("store", "", "crash-safe result store directory (empty = no persistence)")
	factsDir := flag.String("facts", "", "columnar fact lake directory persisting both campaigns and enabling GET /api/query (empty = <-store>/facts/<scope>, or disabled without -store)")
	scenarioFile := flag.String("scenario-file", "", "preload counterfactual scenario specs from FILE (one spec or a JSON array)")
	scenarioLenient := flag.Bool("scenario-lenient", false, "serve the valid subset of -scenario-file instead of refusing to start")
	sweepWorkers := flag.Int("sweep-workers", 2, "concurrent spec simulations per sweep")
	sweepSpecTimeout := flag.Duration("sweep-spec-timeout", 5*time.Minute, "per-spec watchdog deadline inside a sweep")
	dnsAddr := flag.String("dns-addr", "", "UDP listen address for the DNS data plane; empty = disabled")
	dnsMonth := flag.String("dns-month", "", "month the DNS plane serves, YYYY-MM (default: campaign end)")
	dnsReaders := flag.Int("dns-readers", 2, "DNS reader goroutines sharing the socket")
	role := flag.String("role", "standalone", "serving role; only standalone is supported")
	debugAddr := flag.String("debug-addr", "", "debug listener (pprof, expvar, metrics); empty = disabled")
	traceOut := flag.String("trace", "", "append span JSON lines to FILE (\"-\" = stderr); empty = tracing off")
	flag.Parse()
	if *role != "standalone" {
		log.Fatalf("vzserve: -role %q: the cluster tier was removed; vzserve runs standalone only", *role)
	}

	cfg := world.Config{Seed: *seed, Workers: *workers}
	if *quick {
		cfg.Step = 3
	}
	log.Printf("vzserve: building world (seed %d, step %d months)", cfg.Seed, cfg.Step)
	w, err := world.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	reg := obs.NewRegistry()
	netsim.InstrumentMetrics(reg)
	atlas.InstrumentMetrics(reg)
	reg.PublishExpvar("vzlens")
	opts := httpapi.Options{
		RequestTimeout:   *timeout,
		MaxInFlight:      *maxInflight,
		QueueTimeout:     *queueTimeout,
		Metrics:          reg,
		SweepWorkers:     *sweepWorkers,
		SweepSpecTimeout: *sweepSpecTimeout,
	}
	if *traceOut != "" {
		sink := os.Stderr
		if *traceOut != "-" {
			f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			sink = f
		}
		opts.Tracer = obs.NewTracer(sink)
		log.Printf("vzserve: tracing spans to %s", *traceOut)
	}
	if *storeDir != "" {
		store, err := resultstore.Open(*storeDir)
		if err != nil {
			log.Fatal(err)
		}
		opts.Store = store
		log.Printf("vzserve: result store at %s", *storeDir)
	}
	if *factsDir != "" {
		opts.FactsDir = *factsDir
		log.Printf("vzserve: fact lake at %s", *factsDir)
	}
	if *scenarioFile != "" {
		// Validate the whole file before serving: every parse error and
		// every compile failure is reported with its spec id, so the
		// operator fixes the file in one pass instead of one error per
		// restart. Strict mode (the default) refuses to start on any
		// error; -scenario-lenient serves the valid subset.
		specs, errs := scenario.LoadSpecsLenient(*scenarioFile)
		valid := specs[:0]
		for _, sp := range specs {
			if _, err := sp.Compile(w); err != nil {
				errs = append(errs, err)
				continue
			}
			valid = append(valid, sp)
		}
		for _, e := range errs {
			log.Printf("vzserve: scenario file: %v", e)
		}
		switch {
		case len(errs) > 0 && !*scenarioLenient:
			log.Fatalf("vzserve: %s: %d invalid scenario(s), %d valid; fix the file or pass -scenario-lenient to serve the valid subset",
				*scenarioFile, len(errs), len(valid))
		case len(errs) > 0:
			log.Printf("vzserve: -scenario-lenient: serving %d valid scenario(s) from %s, skipped %d invalid",
				len(valid), *scenarioFile, len(errs))
		default:
			log.Printf("vzserve: preloaded %d scenario(s) from %s", len(valid), *scenarioFile)
		}
		opts.Scenarios = valid
	}
	var dnsRes *dnsplane.Resolver
	if *dnsAddr != "" {
		var m months.Month
		if *dnsMonth != "" {
			var err error
			if m, err = months.Parse(*dnsMonth); err != nil {
				log.Fatalf("vzserve: -dns-month: %v", err)
			}
		}
		dnsRes = dnsplane.NewResolver(w, m)
		opts.DNSPlane = dnsRes
	}
	h := httpapi.NewWithOptions(w, opts)
	var dnsSrv *dnsplane.Server
	if dnsRes != nil {
		// The DNS server shares the HTTP handler's admission gate, so
		// one -max-inflight budget covers both planes; Instrument ran
		// inside NewWithOptions, so vz_dns_* metrics are live first.
		dnsSrv, err = dnsplane.Serve(dnsplane.ServerOptions{
			Addr:     *dnsAddr,
			Resolver: dnsRes,
			Gate:     h.Gate(),
			Readers:  *dnsReaders,
			Tracer:   opts.Tracer,
		})
		if err != nil {
			log.Fatalf("vzserve: dns listener: %v", err)
		}
		log.Printf("vzserve: DNS data plane on %s (month %s)", dnsSrv.Addr(), dnsRes.Month())
	}
	if *warm {
		// Campaign results are deterministic for the seed, so warming
		// early changes nothing but the first requests' latency. With a
		// populated -store this is a disk read, not a simulation.
		go func() {
			start := time.Now()
			h.Warm()
			log.Printf("vzserve: campaign caches warm after %v", time.Since(start).Round(time.Millisecond))
		}()
	}

	if *debugAddr != "" {
		// The debug listener shares the API's registry but bypasses its
		// admission control entirely: pprof and metrics must answer even
		// when the serving path is saturated. Bind it to localhost.
		dbg := &http.Server{
			Addr:              *debugAddr,
			Handler:           obs.DebugMux(reg),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			log.Printf("vzserve: debug listener (pprof, expvar, metrics) on %s", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("vzserve: debug listener: %v", err)
			}
		}()
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: h,
		// Slowloris protection: bound how long a client may dribble
		// headers, and how large they may grow.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		MaxHeaderBytes:    1 << 20,
		// Campaign simulation on a cold cache can take tens of seconds;
		// the request-level timeout above is the effective bound.
		WriteTimeout: *timeout + time.Minute,
	}
	log.Printf("vzserve: listening on %s", *addr)
	if err := httpapi.ListenAndServeGraceful(srv, *drain); err != nil {
		log.Fatal(err)
	}
	// HTTP is drained; now checkpoint the batch work. In-flight sweep
	// specs finish and journal within the drain budget, so the next
	// start resumes without re-simulating anything completed here.
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := h.DrainSweeps(dctx); err != nil {
		log.Printf("vzserve: sweep drain incomplete: %v (journaled progress is kept)", err)
	}
	if dnsSrv != nil {
		if err := dnsSrv.Close(); err != nil {
			log.Printf("vzserve: dns listener close: %v", err)
		}
	}
	log.Printf("vzserve: drained cleanly, exiting")
}

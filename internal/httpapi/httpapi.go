// Package httpapi serves the reproduction's results over HTTP: one JSON
// or CSV document per experiment, plus per-country summaries — the shape
// an open-source release of the paper's pipeline would expose to
// dashboards.
//
// The handler is hardened for unattended serving: campaign simulations
// cache through an error-aware lazy cell (a failure is retried on the
// next request, never cached), every request runs under panic recovery
// and an optional per-request timeout, and /healthz (liveness) is split
// from /readyz (readiness plus the per-axis degradation report and the
// admission-gate snapshot).
//
// Under load the handler sheds rather than collapses: admission
// control bounds concurrency with a deadline-aware priority queue
// (probes bypass it), adaptive shedding and token-bucket backstops
// answer 503/429 with Retry-After, concurrent requests for one
// experiment coalesce into a single computation, and an optional
// crash-safe result store persists computed tables (and, through the
// fact lake, the campaigns) so a restart warms from disk. See DESIGN.md
// §10.
package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vzlens/internal/atlas"
	"vzlens/internal/core"
	"vzlens/internal/dnsplane"
	"vzlens/internal/facts"
	"vzlens/internal/geo"
	"vzlens/internal/ipv6"
	"vzlens/internal/months"
	"vzlens/internal/obs"
	"vzlens/internal/overload"
	"vzlens/internal/query"
	"vzlens/internal/resilience"
	"vzlens/internal/resultstore"
	"vzlens/internal/scenario"
	"vzlens/internal/sweep"
	"vzlens/internal/world"
)

// Options tunes the hardened handler. The zero value serves with panic
// recovery, no per-request timeout, no admission gate, and the world's
// own simulators.
type Options struct {
	// TraceCampaign and ChaosCampaign override the campaign
	// simulators; tests inject failures here, tools can inject
	// precomputed campaigns. Nil uses the world's simulation. With a
	// fact lake, the lake persists what these return: a committed
	// generation fills the campaign caches without calling them.
	TraceCampaign func() (*atlas.TraceCampaign, error)
	ChaosCampaign func() (*atlas.ChaosCampaign, error)
	// RequestTimeout bounds every request; requests over it receive
	// 503. Zero disables the timeout (campaign simulation on a cold
	// cache can take tens of seconds, so don't set this too low).
	RequestTimeout time.Duration

	// MaxInFlight enables admission control: at most this many
	// non-probe requests execute concurrently, the rest wait in a
	// bounded priority queue and are shed with 503 + Retry-After when
	// it overflows or the wait exceeds QueueTimeout. Health and
	// readiness probes are never queued or shed. Zero disables the
	// gate.
	MaxInFlight int
	// MaxQueue bounds the admission wait queue (default 4×MaxInFlight).
	MaxQueue int
	// QueueTimeout bounds one request's wait for an execution slot
	// (default 10s).
	QueueTimeout time.Duration
	// ShedLatency is the adaptive load-shedding threshold: once the
	// smoothed queue wait exceeds it, low-priority requests
	// (experiment computations) are shed on arrival (default
	// QueueTimeout/2).
	ShedLatency time.Duration
	// RateLimits adds static token-bucket backstops per endpoint
	// class ("experiment", "api"); classes absent from the map are
	// unlimited. Exceeding a bucket returns 429 + Retry-After.
	RateLimits map[string]overload.Rate

	// FactsDir is the fact lake's directory: the campaigns the handler
	// serves persist there as month-partitioned columnar files, and
	// GET /api/query serves country × metric × month-window
	// aggregations over them with strict partition pruning. If the
	// directory holds no generation for this world's scope, the lake
	// builds from the campaigns on Warm (queries 503 with Retry-After
	// meanwhile). Empty puts the lake at <Store dir>/facts/<scope>,
	// one lake per world configuration (world.Config.Scope), or,
	// without a Store, disables the layer. See DESIGN.md §17.
	FactsDir string

	// Store persists computed experiment tables (and, when FactsDir is
	// empty, holds the fact lake) across restarts: on a cache miss the
	// handler consults the store before computing, and every fresh
	// table is written back, so Warm() after a restart is near-instant.
	// Corrupt or torn entries are quarantined and recomputed, never
	// served. Nil disables persistence.
	Store *resultstore.Store

	// Metrics is the registry the handler (and the gate, store, and
	// campaign engine) register on; it is served at /metrics in
	// Prometheus text format and /metrics.json as JSON. Nil creates a
	// private registry, so /metrics always answers. Share one registry
	// with obs.DebugMux to expose the same metrics on the debug
	// listener.
	Metrics *obs.Registry

	// Tracer enables request tracing: every request gets a root span
	// and an X-Trace-Id response header, and the trace ID propagates
	// through experiment coalescing into the campaign engine's
	// per-month spans. Nil disables tracing (zero overhead).
	Tracer *obs.Tracer

	// DNSPlane, when non-nil, mounts the DNS data plane's control
	// surface: GET /api/dns (status), PUT /api/dns/scenario/{id}
	// (route answers through a registered scenario), DELETE
	// /api/dns/scenario (back to baseline). The resolver itself serves
	// queries on its own UDP socket (vzserve's -dns-addr).
	DNSPlane *dnsplane.Resolver

	// Scenarios preloads counterfactual scenario specs (vzserve's
	// -scenario-file) so their diffs are requestable immediately. A
	// spec that fails to compile against the world is a construction
	// error surfaced by NewWithOptions via panic — a canned scenario
	// file that doesn't apply is an operator mistake worth failing
	// loudly at startup, not at first request.
	Scenarios []*scenario.Spec

	// SweepWorkers bounds concurrent spec simulations inside the batch
	// sweep engine (default 2). Sweeps are only enabled when Store is
	// set: the journal through the store is what makes them crash-safe.
	SweepWorkers int
	// SweepSpecTimeout is the per-spec watchdog deadline inside a sweep
	// (default 5m; negative disables).
	SweepSpecTimeout time.Duration
}

// Handler serves the API over a built world. Campaign-backed
// experiments simulate lazily on first request; a failed simulation is
// reported to that request (503, Retry-After) and retried on the next —
// it is never cached.
type Handler struct {
	w    *world.World
	mux  *http.ServeMux
	root http.Handler
	opts Options

	gate    *overload.Gate
	limits  *overload.Limiter
	flights overload.Group[string, *core.Table]

	reg  *obs.Registry
	met  handlerMetrics
	exps map[string]core.Experiment

	trace resilience.LazyResult[*atlas.TraceCampaign]
	chaos resilience.LazyResult[*atlas.ChaosCampaign]

	engine      *scenario.Engine
	scenMu      sync.Mutex
	scenarios   map[string]*scenario.Spec
	scenFlights overload.Group[string, []byte]

	sweeps *sweep.Manager // nil without a result store

	lake         *facts.Lake   // nil without Options.FactsDir or Store
	queryEng     *query.Engine // nil without Options.FactsDir or Store
	qmet         queryMetrics
	lakeMu       sync.Mutex  // serializes lake commits
	lakeBuilding atomic.Bool // a background build is in flight
}

// NewWithOptions returns a Handler over w.
func NewWithOptions(w *world.World, opts Options) *Handler {
	h := &Handler{w: w, mux: http.NewServeMux(), opts: opts}
	h.reg = opts.Metrics
	if h.reg == nil {
		h.reg = obs.NewRegistry()
	}
	h.met = newHandlerMetrics(h.reg)
	w.Instrument(h.reg)
	if opts.Store != nil {
		opts.Store.Instrument(h.reg)
	}
	if opts.MaxInFlight > 0 {
		h.gate = overload.NewGate(overload.GateOptions{
			MaxInFlight:  opts.MaxInFlight,
			MaxQueue:     opts.MaxQueue,
			QueueTimeout: opts.QueueTimeout,
			ShedLatency:  opts.ShedLatency,
			ObserveWait:  h.met.queueWait.ObserveDuration,
		})
		instrumentGate(h.reg, h.gate)
	}
	if len(opts.RateLimits) > 0 {
		h.limits = overload.NewLimiter(opts.RateLimits)
	}
	h.exps = make(map[string]core.Experiment)
	for _, e := range core.Experiments() {
		h.exps[e.ID] = e
	}
	// The lake opens before anything that can fill a campaign cell
	// (resumed sweeps do, from their own goroutines).
	if opts.FactsDir != "" || opts.Store != nil {
		h.initFacts()
	}
	// The scenario engine reuses the handler's memoized baseline
	// campaigns, so a scenario run pays for one scenario simulation,
	// not two full campaigns.
	h.engine = scenario.NewEngine(scenario.Options{
		World:         w,
		BaselineTrace: h.traceCampaign,
		BaselineChaos: h.chaosCampaign,
	})
	h.engine.Instrument(h.reg)
	h.scenarios = make(map[string]*scenario.Spec)
	for _, spec := range opts.Scenarios {
		if _, err := h.registerScenario(spec); err != nil {
			panic(fmt.Sprintf("httpapi: preloaded scenario: %v", err))
		}
	}
	// The sweep engine journals through the result store — that journal
	// is its crash-safety — so it only exists when a store does. It
	// shares the handler's scenario engine (and thus the memoized
	// baseline campaigns) and admits each background simulation through
	// the gate at low priority, batch work behind live clients.
	if opts.Store != nil {
		var admit func(ctx context.Context) (func(), error)
		if h.gate != nil {
			admit = h.sweepAdmit
		}
		h.sweeps = sweep.NewManager(sweep.Options{
			World:       w,
			Engine:      h.engine,
			Store:       opts.Store,
			Workers:     opts.SweepWorkers,
			SpecTimeout: opts.SweepSpecTimeout,
			Admit:       admit,
		})
		h.sweeps.Instrument(h.reg)
		if restored, err := h.sweeps.Resume(); err != nil {
			log.Printf("httpapi: resume sweeps: %v", err)
		} else if restored > 0 {
			log.Printf("httpapi: resumed sweep journals, %d spec results restored without re-simulation", restored)
		}
	}
	h.mux.HandleFunc("GET /healthz", h.health)
	h.mux.HandleFunc("GET /readyz", h.ready)
	h.mux.Handle("GET /metrics", h.reg.Handler())
	h.mux.Handle("GET /metrics.json", h.reg.JSONHandler())
	h.mux.HandleFunc("GET /api/experiments", h.listExperiments)
	h.mux.HandleFunc("GET /api/experiments/{id}", h.experiment)
	h.mux.HandleFunc("GET /api/countries/{cc}", h.country)
	h.mux.HandleFunc("GET /api/signatures", h.signatures)
	h.mux.HandleFunc("GET /api/scenarios", h.listScenarios)
	h.mux.HandleFunc("POST /api/scenarios", h.postScenario)
	h.mux.HandleFunc("GET /api/scenarios/{id}/diff", h.scenarioDiff)
	h.mux.HandleFunc("GET /api/sweeps", h.listSweeps)
	h.mux.HandleFunc("POST /api/sweeps", h.postSweep)
	h.mux.HandleFunc("GET /api/sweeps/{id}", h.getSweep)
	if opts.DNSPlane != nil {
		opts.DNSPlane.Instrument(h.reg)
		h.mux.HandleFunc("GET /api/dns", h.dnsStatus)
		h.mux.HandleFunc("PUT /api/dns/scenario/{id}", h.dnsSetScenario)
		h.mux.HandleFunc("DELETE /api/dns/scenario", h.dnsClearScenario)
	}
	var root http.Handler = h.mux
	if opts.RequestTimeout > 0 {
		root = http.TimeoutHandler(root, opts.RequestTimeout,
			`{"error": "request timed out"}`)
	}
	root = h.observabilityMiddleware(h.admissionMiddleware(root))
	h.root = recoverMiddleware(backpressureHeaderMiddleware(root))
	return h
}

// Gate returns the admission gate (nil when MaxInFlight is unset), so
// the DNS server can shed against the same concurrency budget as the
// HTTP side instead of maintaining a second, independent limit.
func (h *Handler) Gate() *overload.Gate { return h.gate }

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.root.ServeHTTP(w, r)
}

// recoverMiddleware converts handler panics into 500s instead of
// tearing down the connection (and, under some servers, the process).
func recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec) // deliberate connection abort
				}
				log.Printf("httpapi: panic serving %s: %v", r.URL.Path, rec)
				writeJSON(w, http.StatusInternalServerError,
					map[string]string{"error": "internal error"})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// simulate runs one campaign simulation, converting panics into errors
// so a poisoned input cannot take down the server and the failure is
// retried on the next request.
func simulate[T any](fn func() (T, error)) (val T, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("campaign simulation panicked: %v", rec)
		}
	}()
	return fn()
}

// traceCampaign returns the traceroute campaign, filling its cell on
// first use. A fill that simulated persists both campaigns to the fact
// lake once the chaos cell holds one too.
func (h *Handler) traceCampaign(ctx context.Context) (*atlas.TraceCampaign, error) {
	tc, simulated, err := h.fillTrace(ctx)
	if simulated {
		h.persistCampaigns()
	}
	return tc, err
}

// chaosCampaign is traceCampaign for the CHAOS campaign.
func (h *Handler) chaosCampaign(ctx context.Context) (*atlas.ChaosCampaign, error) {
	cc, simulated, err := h.fillChaos(ctx)
	if simulated {
		h.persistCampaigns()
	}
	return cc, err
}

// fillTrace fills the trace cell from the fact lake when it holds a
// generation, otherwise by simulating through Options.TraceCampaign or
// the world. simulated reports whether this call's simulation filled
// the cell.
func (h *Handler) fillTrace(ctx context.Context) (tc *atlas.TraceCampaign, simulated bool, err error) {
	tc, err = h.trace.Get(func() (*atlas.TraceCampaign, error) {
		if tc, ok := h.lakeTrace(); ok {
			return tc, nil
		}
		simulated = true
		return simulate(func() (*atlas.TraceCampaign, error) {
			if h.opts.TraceCampaign != nil {
				return h.opts.TraceCampaign()
			}
			return h.w.TraceCampaignCtx(ctx), nil
		})
	})
	return tc, simulated && err == nil, err
}

// fillChaos is fillTrace for the CHAOS campaign.
func (h *Handler) fillChaos(ctx context.Context) (cc *atlas.ChaosCampaign, simulated bool, err error) {
	cc, err = h.chaos.Get(func() (*atlas.ChaosCampaign, error) {
		if cc, ok := h.lakeChaos(); ok {
			return cc, nil
		}
		simulated = true
		return simulate(func() (*atlas.ChaosCampaign, error) {
			if h.opts.ChaosCampaign != nil {
				return h.opts.ChaosCampaign()
			}
			return h.w.ChaosCampaignCtx(ctx), nil
		})
	})
	return cc, simulated && err == nil, err
}

// Warm primes both lazy campaign caches and blocks until they are warm
// (or failed; a failure is not cached and the next request retries).
// With a fact lake, the lake is ensured first: a generation reloaded
// from disk fills both caches without simulating, and a missing one is
// built from the caches' own simulations. Otherwise the two campaigns
// run concurrently, each fanning its monthly snapshots out over the
// world's Workers pool. Call it from a goroutine at startup to pre-warm
// without delaying the listener.
func (h *Handler) Warm() {
	ctx := context.Background()
	if err := h.ensureLake(ctx, false); err != nil {
		log.Printf("httpapi: warm fact lake: %v", err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _, _ = h.traceCampaign(ctx) }()
	go func() { defer wg.Done(); _, _ = h.chaosCampaign(ctx) }()
	wg.Wait()
}

// runExperiment renders one registry experiment, simulating (or reusing)
// whichever campaign it declares. Campaign-backed experiments (fig6,
// fig12, fig16, fig20) can fail transiently and surface errors instead
// of panicking or caching failure. The context carries the requesting
// trace, so a cold campaign's spans attach to the request that paid for
// the simulation.
func (h *Handler) runExperiment(ctx context.Context, e core.Experiment) (*core.Table, error) {
	var tc *atlas.TraceCampaign
	var cc *atlas.ChaosCampaign
	var err error
	switch e.Campaign {
	case "trace":
		if tc, err = h.traceCampaign(ctx); err != nil {
			return nil, err
		}
	case "chaos":
		if cc, err = h.chaosCampaign(ctx); err != nil {
			return nil, err
		}
	}
	return e.Run(h.w, tc, cc), nil
}

// health is the liveness probe: the process is up.
func (h *Handler) health(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readiness is the /readyz document.
type readiness struct {
	// Status is "ok", or "degraded" when any ingestion axis fell back
	// to its synthetic substitute.
	Status string `json:"status"`
	// Axes is the per-axis ingestion report (absent for a fully
	// synthetic world built without sources).
	Axes []world.AxisStatus `json:"axes,omitempty"`
	// Campaigns reports which lazy campaign caches are warm.
	Campaigns map[string]bool `json:"campaigns"`
	// Overload is the admission-gate snapshot (absent when the gate
	// is disabled).
	Overload *overload.GateStats `json:"overload,omitempty"`
}

// ready is the readiness probe: the world is built and serving, with
// the degradation report attached. A degraded world still serves (the
// synthetic substitutes answer), so the status stays 200; operators
// alert on the "degraded" status string.
func (h *Handler) ready(w http.ResponseWriter, _ *http.Request) {
	doc := readiness{
		Status: "ok",
		Axes:   h.w.AxisStatuses(),
		Campaigns: map[string]bool{
			"trace": h.trace.Ready(),
			"chaos": h.chaos.Ready(),
		},
	}
	if h.lake != nil {
		doc.Campaigns["facts"] = h.lake.Ready()
	}
	if h.gate != nil {
		stats := h.gate.Stats()
		doc.Overload = &stats
	}
	if h.w.Degraded() {
		doc.Status = "degraded"
	}
	writeJSON(w, http.StatusOK, doc)
}

func (h *Handler) listExperiments(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"experiments": core.ExperimentIDs()})
}

// tableJSON is the JSON rendering of a core.Table.
type tableJSON struct {
	Caption string     `json:"caption"`
	Header  []string   `json:"header"`
	Rows    [][]string `json:"rows"`
}

func (h *Handler) experiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	wantCSV := strings.HasSuffix(id, ".csv")
	id = strings.TrimSuffix(id, ".csv")
	exp, ok := h.exps[id]
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("unknown experiment %q", id)})
		return
	}
	// Coalesce concurrent requests for the same experiment into one
	// computation, consulting the result store before computing and
	// persisting fresh results. Failures are not cached at any layer.
	ctx, span := obs.StartSpan(r.Context(), "experiment")
	span.SetAttr("id", id)
	table, err, shared := h.flights.Do(id, func() (*core.Table, error) {
		if t, ok := h.storedTable(id); ok {
			return t, nil
		}
		t, err := h.runExperiment(ctx, exp)
		if err == nil {
			h.persistTable(id, t)
		}
		return t, err
	})
	if shared {
		h.met.followers.Inc()
	} else {
		h.met.leaders.Inc()
	}
	span.SetAttr("coalesced", shared)
	span.End()
	if err != nil {
		// Transient: the failed simulation was not cached, so the
		// client should simply retry.
		log.Printf("httpapi: experiment %s: %v", id, err)
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]string{"error": fmt.Sprintf("experiment %s temporarily unavailable: %v", id, err)})
		return
	}
	if wantCSV {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		fmt.Fprint(w, table.CSV())
		return
	}
	writeJSON(w, http.StatusOK, tableJSON{Caption: table.Caption, Header: table.Header, Rows: table.Rows})
}

// countrySummary is the per-country JSON document.
type countrySummary struct {
	Code            string  `json:"code"`
	Name            string  `json:"name"`
	Cables2000      int     `json:"cables_2000"`
	Cables2024      int     `json:"cables_2024"`
	Facilities2024  int     `json:"facilities_2024"`
	IPv6Pct2023     float64 `json:"ipv6_pct_mid2023"`
	MedianMbps2023  float64 `json:"median_mbps_july2023"`
	AtlasProbes2024 int     `json:"atlas_probes_2024"`
	InternetUsers   int64   `json:"internet_users"`
}

func (h *Handler) country(w http.ResponseWriter, r *http.Request) {
	cc := strings.ToUpper(r.PathValue("cc"))
	if !validCountryCode(cc) {
		writeJSON(w, http.StatusBadRequest,
			map[string]string{"error": fmt.Sprintf("%q is not a two-letter country code", cc)})
		return
	}
	country, ok := geo.LookupCountry(cc)
	if !ok || !country.LACNIC {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("%q is not a LACNIC country", cc)})
		return
	}
	jan24 := months.New(2024, time.January)
	writeJSON(w, http.StatusOK, countrySummary{
		Code:            country.Code,
		Name:            country.Name,
		Cables2000:      h.w.Cables.CountryCount(cc, 2000),
		Cables2024:      h.w.Cables.CountryCount(cc, 2024),
		Facilities2024:  h.w.PeeringDBSnapshot(jan24).FacilityCount()[cc],
		IPv6Pct2023:     ipv6.Adoption(cc, months.New(2023, time.June)),
		MedianMbps2023:  h.w.MedianSpeed(cc, months.New(2023, time.July)),
		AtlasProbes2024: h.w.Fleet.CountByCountry(jan24)[cc],
		InternetUsers:   h.w.Pop.CountryUsers(cc),
	})
}

// signatureJSON is one detected crisis signal.
type signatureJSON struct {
	Dataset   string  `json:"dataset"`
	Kind      string  `json:"kind"`
	Start     string  `json:"start"`
	End       string  `json:"end"`
	Magnitude float64 `json:"magnitude"`
}

func (h *Handler) signatures(w http.ResponseWriter, _ *http.Request) {
	result := core.CrisisSignatures(h.w, nil)
	out := make([]signatureJSON, 0, len(result.Signatures))
	for _, s := range result.Signatures {
		out = append(out, signatureJSON{
			Dataset:   s.Dataset,
			Kind:      s.Event.Kind.String(),
			Start:     s.Event.Start.String(),
			End:       s.Event.End.String(),
			Magnitude: s.Event.Magnitude,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"signatures": out})
}

// validCountryCode reports whether cc looks like an ISO 3166-1 alpha-2
// code (after upcasing). Anything else is a client error (400), as
// opposed to a well-formed code we don't serve (404).
func validCountryCode(cc string) bool {
	if len(cc) != 2 {
		return false
	}
	for i := 0; i < len(cc); i++ {
		if cc[i] < 'A' || cc[i] > 'Z' {
			return false
		}
	}
	return true
}

// writeJSON sets the Content-Type before committing the status (headers
// written after WriteHeader are silently dropped), then encodes v. The
// encode error is logged explicitly: the status line is already on the
// wire, so a failure here can only be observed server-side.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("httpapi: encode %T response: %v", v, err)
	}
}

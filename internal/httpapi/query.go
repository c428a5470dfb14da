package httpapi

import (
	"context"
	"errors"
	"log"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"vzlens/internal/atlas"
	"vzlens/internal/facts"
	"vzlens/internal/obs"
	"vzlens/internal/query"
	"vzlens/internal/resultstore"
)

// queryMetrics is the /api/query observability surface, registered only
// when a fact lake is configured.
type queryMetrics struct {
	queries    *obs.Counter   // plans executed (post-validation)
	badParams  *obs.Counter   // 400s: rejected plans
	notReady   *obs.Counter   // 503s: lake generation not built yet
	partitions *obs.Counter   // in-window partitions consulted, cumulative
	duration   *obs.Histogram // plan execution latency
}

func newQueryMetrics(reg *obs.Registry, lake *facts.Lake) queryMetrics {
	m := queryMetrics{
		queries: reg.Counter("vz_query_plans_total",
			"Validated /api/query plans executed."),
		badParams: reg.Counter("vz_query_bad_params_total",
			"/api/query requests rejected for invalid parameters."),
		notReady: reg.Counter("vz_query_not_ready_total",
			"/api/query requests answered 503 while the fact lake builds."),
		partitions: reg.Counter("vz_query_partitions_total",
			"In-window fact partitions consulted by queries, cumulative."),
		duration: reg.Histogram("vz_query_seconds",
			"Plan execution latency.", obs.LatencyBuckets),
	}
	reg.GaugeFunc("vz_facts_ready", "Whether the fact lake has a committed generation.",
		func() float64 {
			if lake.Ready() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("vz_facts_decodes", "Fact partitions decoded since start (pruning telemetry).",
		func() float64 { return float64(lake.Decodes()) })
	reg.GaugeFunc("vz_facts_quarantines", "Corrupt fact partitions quarantined since start.",
		func() float64 { return float64(lake.Quarantines()) })
	return m
}

// initFacts opens the fact lake (at Options.FactsDir, or under the
// result store at facts/<scope>, so one store keeps the campaigns of
// every world configuration that used it) and mounts GET /api/query.
// Open only loads the manifest; if the directory holds no generation
// for this world's scope, the lake builds on Warm (or lazily behind the
// first query, which 503s meanwhile).
func (h *Handler) initFacts() {
	dir := h.opts.FactsDir
	if dir == "" {
		dir = filepath.Join(h.opts.Store.Dir(), "facts", h.w.Config.Scope())
	}
	lake, err := facts.Open(dir, h.w.Config.Scope())
	if err != nil {
		// An unreadable lake directory is an operator mistake worth
		// failing loudly at startup, like a scenario file that doesn't
		// compile.
		panic("httpapi: open fact lake: " + err.Error())
	}
	h.lake = lake
	h.queryEng = query.New(lake)
	h.qmet = newQueryMetrics(h.reg, lake)
	h.mux.HandleFunc("GET /api/query", h.query)
}

// Lake returns the fact lake (nil unless Options.FactsDir or
// Options.Store was set), so vzserve can report build progress and
// tests can reach the decode counters.
func (h *Handler) Lake() *facts.Lake { return h.lake }

// ensureLake commits a lake generation if none is committed: it fills
// both campaign cells (from the lake, the hooks or the world) and
// builds the generation from them. Concurrent callers coalesce: one
// builds, the rest see Ready flip. With force, a committed generation
// does not short-circuit the build: that is the quarantine-heal path,
// where the lake is Ready but one of its partitions is corrupt on disk
// and only a fresh generation replaces it. The two fills run
// concurrently under lakeMu, so they must not persist on their own
// (persistCampaigns takes it).
func (h *Handler) ensureLake(ctx context.Context, force bool) error {
	if h.lake == nil || (!force && h.lake.Ready()) {
		return nil
	}
	h.lakeMu.Lock()
	defer h.lakeMu.Unlock()
	if !force && h.lake.Ready() {
		return nil
	}
	var (
		cc       *atlas.ChaosCampaign
		chaosErr error
		wg       sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		cc, _, chaosErr = h.fillChaos(ctx)
	}()
	tc, _, err := h.fillTrace(ctx)
	wg.Wait()
	if err != nil {
		return err
	}
	if chaosErr != nil {
		return chaosErr
	}
	return h.lake.BuildFrom(h.w, tc, cc)
}

// persistCampaigns commits a lake generation from the two campaign
// cells once both hold a campaign. A fill that simulated calls it, so
// the lake persists exactly the campaigns the handler serves. A
// generation already built from these campaigns (a concurrent
// ensureLake, or the other cell's fill) is not written again.
func (h *Handler) persistCampaigns() {
	if h.lake == nil {
		return
	}
	h.lakeMu.Lock()
	defer h.lakeMu.Unlock()
	tc, ok := h.trace.Peek()
	if !ok {
		return
	}
	cc, ok := h.chaos.Peek()
	if !ok {
		return
	}
	if h.lakeHolds(tc, cc) {
		return
	}
	if err := h.lake.BuildFrom(h.w, tc, cc); err != nil {
		log.Printf("httpapi: persist campaigns to the fact lake: %v", err)
	}
}

// lakeHolds reports whether the committed generation was built from tc
// and cc: a generation holds the partitions it was built from, so its
// first partition of each kind is the campaign's own pointer.
func (h *Handler) lakeHolds(tc *atlas.TraceCampaign, cc *atlas.ChaosCampaign) bool {
	tps, cps := tc.Partitions(), cc.Partitions()
	if len(tps) == 0 || len(cps) == 0 {
		return false
	}
	tp, err := h.lake.TracePart(tps[0].Month)
	if err != nil || tp != tps[0] {
		return false
	}
	cp, err := h.lake.ChaosPart(cps[0].Month)
	return err == nil && cp == cps[0]
}

// kickLakeBuild starts one background build; later calls while it runs
// are no-ops. Queries answer 503 + Retry-After until the generation
// commits — the lake swap is atomic, so they flip to 200 mid-flight.
func (h *Handler) kickLakeBuild(force bool) {
	if !h.lakeBuilding.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer h.lakeBuilding.Store(false)
		if err := h.ensureLake(context.Background(), force); err != nil {
			log.Printf("httpapi: fact lake build: %v", err)
		}
	}()
}

// lakeTrace serves the traceroute campaign from the fact lake's
// partitions, so experiments, scenario-diff baselines and sweeps read
// the persisted campaign instead of re-simulating it. Any lake problem
// falls back to simulation — the lake is an accelerator here, never a
// correctness dependency.
func (h *Handler) lakeTrace() (*atlas.TraceCampaign, bool) {
	if h.lake == nil || !h.lake.Ready() {
		return nil, false
	}
	tc, err := h.lake.TraceCampaign()
	if err != nil {
		log.Printf("httpapi: fact-lake trace campaign: %v (simulating instead)", err)
		return nil, false
	}
	return tc, true
}

// lakeChaos is lakeTrace for the CHAOS campaign.
func (h *Handler) lakeChaos() (*atlas.ChaosCampaign, bool) {
	if h.lake == nil || !h.lake.Ready() {
		return nil, false
	}
	cc, err := h.lake.ChaosCampaign()
	if err != nil {
		log.Printf("httpapi: fact-lake chaos campaign: %v (simulating instead)", err)
		return nil, false
	}
	return cc, true
}

// query serves GET /api/query: URL parameters compile into a plan, the
// engine executes it over the lake with strict partition pruning, and
// the result renders as JSON. Invalid plans are 400s; a lake that is
// still building (or lost a partition to corruption mid-read) is a 503
// with Retry-After, because both heal without operator action.
func (h *Handler) query(w http.ResponseWriter, r *http.Request) {
	p, err := query.ParseParams(r.URL.Query())
	if err != nil {
		h.qmet.badParams.Inc()
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	_, span := obs.StartSpan(r.Context(), "query")
	defer span.End()
	span.SetAttr("metric", p.Metric)
	span.SetAttr("from", p.From.String())
	span.SetAttr("to", p.To.String())
	h.qmet.queries.Inc()
	start := time.Now()
	res, err := h.queryEng.Run(p)
	h.qmet.duration.ObserveDuration(time.Since(start))
	switch {
	case errors.Is(err, query.ErrNotReady):
		h.qmet.notReady.Inc()
		h.kickLakeBuild(false)
		w.Header().Set("Retry-After", "10")
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]string{"error": "fact lake is building, retry shortly"})
		return
	case errors.Is(err, resultstore.ErrCorrupt):
		// The corrupt partition is already quarantined; the lake is
		// still Ready (its generation is committed), so the rebuild
		// must be forced to replace the quarantined partition from
		// simulation.
		h.kickLakeBuild(true)
		w.Header().Set("Retry-After", "10")
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]string{"error": "a fact partition was quarantined, rebuilding"})
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	span.SetAttr("partitions", res.Partitions)
	h.qmet.partitions.Add(uint64(res.Partitions))
	writeJSON(w, http.StatusOK, res)
}

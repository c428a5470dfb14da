package world

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"vzlens/internal/atlas"
	"vzlens/internal/dnsroot"
	"vzlens/internal/months"
	"vzlens/internal/netsim"
	"vzlens/internal/obs"
)

// workers resolves the configured pool size; zero means GOMAXPROCS.
func (w *World) workers() int {
	if w.Config.Workers > 0 {
		return w.Config.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// forEachIndex runs fn(0..n-1) over a pool of at most workers
// goroutines. Work is handed out by an atomic counter, so the schedule
// is nondeterministic — callers must make fn(i) independent of order and
// merge results by index.
func forEachIndex(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// mix64 is the splitmix64 finalizer: a cheap bijective hash with good
// avalanche behavior, enough to decorrelate neighboring probe-months.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sampleSeed derives the jitter-RNG seed for one probe-month by hashing
// (Seed, month, probe). Every probe-month draws from its own stream, so
// campaign output is bit-identical regardless of worker count or
// schedule.
func sampleSeed(seed int64, m months.Month, probeID int) int64 {
	h := mix64(uint64(seed) ^ 0x9e3779b97f4a7c15)
	h = mix64(h ^ uint64(int64(m)))
	h = mix64(h ^ uint64(int64(probeID)))
	return int64(h)
}

// TraceCampaign simulates the platform-wide traceroute campaign toward
// Google Public DNS (measurement 1591): every active probe measures
// SamplesPerProbe times per monthly snapshot, and the RTT combines the
// anycast catchment path, the country's access delay, and exponential
// queueing jitter. Monthly snapshots fan out over the Workers pool;
// each worker codes its month's fragment into the month's partition,
// and the campaign is the partitions in month order, so the result is
// identical to the sequential simulation.
func (w *World) TraceCampaign() *atlas.TraceCampaign {
	return w.TraceCampaignCtx(context.Background())
}

// TraceCampaignCtx is TraceCampaign carrying a context for trace
// propagation: when the context holds an obs.Tracer, the run emits a
// campaign span with one child span per monthly snapshot, all under
// the caller's trace ID (the request that triggered the simulation).
// Tracing and metrics never affect the simulated output. With
// Config.Scenario set the campaign simulates under that scenario
// overlay; an ingested external campaign only short-circuits the
// baseline (it cannot answer a counterfactual).
func (w *World) TraceCampaignCtx(ctx context.Context) *atlas.TraceCampaign {
	if plan := w.Config.Scenario; plan != nil {
		return w.traceCampaign(ctx, plan)
	}
	if w.ext.trace != nil {
		return w.ext.trace
	}
	return w.traceCampaign(ctx, nil)
}

// traceCampaign simulates the traceroute campaign under plan (nil =
// baseline), fanning monthly snapshots over the worker pool. Each
// worker iteration checks a scratch arena out of the World's pool, so
// steady-state shards reuse columns instead of reallocating them, and
// emits its month's partition. A baseline run is a kernel pass: the
// signature resolvers' path trees live until the last pass in flight
// returns (see kernel.go).
func (w *World) traceCampaign(ctx context.Context, plan *ScenarioPlan) *atlas.TraceCampaign {
	ctx, span := obs.StartSpan(ctx, "campaign.trace")
	if plan != nil {
		span.SetAttr("scenario", plan.Key)
	} else {
		w.beginBaselinePass()
		defer w.endBaselinePass()
	}
	ms := w.campaignMonths(w.Config.TraceStart, w.Config.TraceEnd)
	parts := make([]*atlas.TracePartition, len(ms))
	start := time.Now()
	var busy, arenaWait atomic.Int64
	forEachIndex(len(ms), w.workers(), func(i int) {
		t0 := time.Now()
		ar, acq := w.acquireArena()
		parts[i] = w.traceMonth(ctx, ms[i], plan, ar)
		w.releaseArena(ar)
		d := time.Since(t0)
		busy.Add(int64(d))
		arenaWait.Add(int64(acq))
		w.met.traceMonthDur.ObserveDuration(d)
	})
	wall := time.Since(start)
	tc := atlas.NewTraceCampaignOf(parts)
	w.met.traceRuns.Inc()
	w.met.traceResults.Add(uint64(tc.Len()))
	w.met.traceWall.Set(wall.Seconds())
	w.met.traceUtil.Set(utilization(busy.Load()-arenaWait.Load(), wall, w.workers(), len(ms)))
	w.met.traceArenaWait.Set(time.Duration(arenaWait.Load()).Seconds())
	span.SetAttr("months", len(ms))
	span.SetAttr("samples", tc.Len())
	span.End()
	return tc
}

// utilization is summed per-shard busy time over wall time times the
// effective worker count — 1.0 means the pool never idled. Callers
// subtract arena-acquisition time from the busy sum first, so the
// gauge reports time spent simulating, not time spent checking scratch
// out of the pool (that overhead is reported separately).
func utilization(busyNS int64, wall time.Duration, workers, shards int) float64 {
	if workers > shards {
		workers = shards
	}
	if workers < 1 || wall <= 0 {
		return 0
	}
	return float64(busyNS) / (float64(wall) * float64(workers))
}

// traceMonth simulates one monthly snapshot of the traceroute campaign
// into its partition, under plan's overlay when non-nil (a nil arena
// checks one out for the call). The simulation runs in two passes: one
// catchment per probe CLASS — probes sharing (country, AS, city) are
// indistinguishable upstream of their RNG — materialized into the
// arena's columns by class id, then one emission pass in probe order
// that writes the partition's exactly-sized columns, coding each
// class's country into the dictionary once, at its first row, so the
// dictionary keeps first-appearance row order. The jitter RNG streams
// are scenario-blind (sampleSeed hashes only seed, month, probe) and
// per-probe, so the columnar order of computation cannot change a
// single draw: a baseline-vs-scenario RTT delta reflects the topology
// change alone, and output is byte-identical to the per-probe loop
// this replaced. The Hops column holds the AS-path length of each
// sample's selected anycast site.
func (w *World) traceMonth(ctx context.Context, m months.Month, plan *ScenarioPlan, ar *campaignArena) *atlas.TracePartition {
	_, span := obs.StartSpan(ctx, "campaign.month")
	if ar == nil {
		var own *campaignArena
		own, _ = w.acquireArena()
		defer w.releaseArena(own)
		ar = own
	}
	resolver := w.topologyFor(m, plan)
	list := w.traceSiteListAt(m, plan)
	mc := w.classesAt(m)
	if ar.ensure(w) {
		w.met.arenaGrows.Inc()
	}
	memo := w.listMemoFor(resolver, plan, list)
	for _, c := range mc.classes {
		got, err := w.catchment(memo, resolver, c, list)
		if err != nil {
			ar.ok[c] = false
			continue
		}
		ar.ok[c] = true
		ar.oneWay[c] = got.Latency
		ar.access[c] = AccessDelayMs(w.classKeys[c].country, m)
		ar.hops[c] = clampHops(got.Hops)
		ar.idx[c] = -1 // the class's country code, once coded
	}
	reach := 0
	for _, c := range mc.classOf {
		if ar.ok[c] {
			reach++
		}
	}
	rows, spp := reach*w.Config.SamplesPerProbe, w.Config.SamplesPerProbe
	p := &atlas.TracePartition{
		Month:   m,
		RTT:     make([]float64, rows),
		ProbeID: make([]int32, rows),
		CC:      make([]uint16, rows),
		Hops:    make([]uint8, rows),
	}
	dict, r := ar.dict[:0], 0
	for i, c := range mc.classOf {
		if !ar.ok[c] {
			continue
		}
		cc := ar.idx[c]
		if cc < 0 {
			country := w.classKeys[c].country
			if cc = int32(slices.Index(dict, country)); cc < 0 {
				cc = int32(len(dict))
				dict = append(dict, country)
			}
			ar.idx[c] = cc
		}
		id := mc.ids[i]
		ar.jit.Seed(sampleSeed(w.Config.Seed, m, int(id)))
		for range spp {
			p.RTT[r] = netsim.RTT(ar.oneWay[c], ar.access[c], ar.rng)
			p.ProbeID[r] = id
			p.CC[r] = uint16(cc)
			p.Hops[r] = ar.hops[c]
			r++
		}
	}
	if len(dict) > 0 {
		p.Dict = slices.Clone(dict)
	}
	ar.dict = dict[:0]
	if span != nil {
		span.SetAttr("campaign", "trace")
		span.SetAttr("month", m.String())
		span.SetAttr("probes", len(mc.ids))
		span.SetAttr("samples", rows)
		span.End()
	}
	return p
}

// clampHops saturates an AS-path length into the fact lake's uint8 hop
// column; real paths are single digits, so 255 marks "off the scale".
func clampHops(h int) uint8 {
	if h > 255 {
		return 255
	}
	if h < 0 {
		return 0
	}
	return uint8(h)
}

// ChaosCampaign simulates the built-in CHAOS TXT measurements toward all
// thirteen root letters from every active probe in each monthly
// snapshot. Monthly snapshots fan out over the Workers pool, each coded
// into its month's partition; the sweep involves no randomness, so the
// result is identical to the sequential simulation.
func (w *World) ChaosCampaign() *atlas.ChaosCampaign {
	return w.ChaosCampaignCtx(context.Background())
}

// ChaosCampaignCtx is ChaosCampaign with trace propagation; see
// TraceCampaignCtx.
func (w *World) ChaosCampaignCtx(ctx context.Context) *atlas.ChaosCampaign {
	if plan := w.Config.Scenario; plan != nil {
		return w.chaosCampaign(ctx, plan)
	}
	if w.ext.chaos != nil {
		return w.ext.chaos
	}
	return w.chaosCampaign(ctx, nil)
}

// BaselineCampaigns runs both campaigns at once — the CHAOS pass in a
// goroutine beside the trace pass — and returns them. Concurrent
// baseline passes share every kernel path tree, so a caller that needs
// both campaigns pays for each tree once, where running them one
// after the other rebuilds every tree the first pass dropped. Each
// campaign is the one TraceCampaignCtx and ChaosCampaignCtx return.
func (w *World) BaselineCampaigns(ctx context.Context) (*atlas.TraceCampaign, *atlas.ChaosCampaign) {
	var (
		cc *atlas.ChaosCampaign
		wg sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		cc = w.ChaosCampaignCtx(ctx)
	}()
	tc := w.TraceCampaignCtx(ctx)
	wg.Wait()
	return tc, cc
}

// chaosCampaign simulates the CHAOS sweep under plan (nil = baseline);
// a baseline run is a kernel pass, as in traceCampaign.
func (w *World) chaosCampaign(ctx context.Context, plan *ScenarioPlan) *atlas.ChaosCampaign {
	ctx, span := obs.StartSpan(ctx, "campaign.chaos")
	if plan != nil {
		span.SetAttr("scenario", plan.Key)
	} else {
		w.beginBaselinePass()
		defer w.endBaselinePass()
	}
	ms := w.campaignMonths(w.Config.ChaosStart, w.Config.ChaosEnd)
	parts := make([]*atlas.ChaosPartition, len(ms))
	start := time.Now()
	var busy, arenaWait atomic.Int64
	forEachIndex(len(ms), w.workers(), func(i int) {
		t0 := time.Now()
		ar, acq := w.acquireArena()
		parts[i] = w.chaosPartition(ctx, ms[i], plan, ar)
		w.releaseArena(ar)
		d := time.Since(t0)
		busy.Add(int64(d))
		arenaWait.Add(int64(acq))
		w.met.chaosMonthDur.ObserveDuration(d)
	})
	wall := time.Since(start)
	cc := atlas.NewChaosCampaignOf(parts)
	w.met.chaosRuns.Inc()
	w.met.chaosResults.Add(uint64(cc.Len()))
	w.met.chaosWall.Set(wall.Seconds())
	w.met.chaosUtil.Set(utilization(busy.Load()-arenaWait.Load(), wall, w.workers(), len(ms)))
	w.met.chaosArenaWait.Set(time.Duration(arenaWait.Load()).Seconds())
	span.SetAttr("months", len(ms))
	span.SetAttr("results", cc.Len())
	span.End()
	return cc
}

// chaosCells resolves one monthly snapshot of the CHAOS sweep into the
// arena's columns, under plan's overlay when non-nil. Like traceMonth
// it factors the fleet into probe classes, but the column space is
// letters x classes: one catchment per (letter, class), whose selected
// site index lands in ar.idx. txts receives each letter's interned
// per-era TXT table, indexed like the letter's site list (nil for a
// letter with no active instances), so answers need not be rendered
// per probe. It returns the month's probe classes and the number of
// rows the month emits.
func (w *World) chaosCells(m months.Month, plan *ScenarioPlan, ar *campaignArena, txts *[16][]string) (*monthClasses, int) {
	resolver := w.topologyFor(m, plan)
	mc := w.classesAt(m)
	nc := len(w.classKeys)
	letters := dnsroot.Letters()
	if ar.ensure(w) {
		w.met.arenaGrows.Inc()
	}
	for li, letter := range letters {
		txts[li] = nil
		rl := w.rootSiteListAt(letter, m, plan)
		if len(rl.insts) == 0 {
			continue
		}
		txts[li] = w.txtFor(rl, m)
		base := li * nc
		memo := w.listMemoFor(resolver, plan, rl.sites)
		for _, c := range mc.classes {
			got, err := w.catchment(memo, resolver, c, rl.sites)
			if err != nil {
				ar.ok[base+int(c)] = false
				continue
			}
			ar.ok[base+int(c)] = true
			ar.idx[base+int(c)] = int32(got.Index)
		}
	}
	total := 0
	for li := range letters {
		if txts[li] == nil {
			continue
		}
		base := li * nc
		for _, c := range mc.classOf {
			if ar.ok[base+int(c)] {
				total++
			}
		}
	}
	return mc, total
}

// chaosPartition simulates one monthly snapshot of the CHAOS sweep
// (see chaosCells) and codes it into the month's partition, emitting
// rows in the letter-major, probe-minor order of the loop the kernel
// replaced. Rows are coded per site, not per row: the arena memoizes a
// probe code per fleet probe and an answer code per (letter, site), so
// only a probe's or a site's first row touches the dictionary, and no
// row's TXT is hashed. A nil arena checks one out for the call.
func (w *World) chaosPartition(ctx context.Context, m months.Month, plan *ScenarioPlan, ar *campaignArena) *atlas.ChaosPartition {
	_, span := obs.StartSpan(ctx, "campaign.month")
	if ar == nil {
		var own *campaignArena
		own, _ = w.acquireArena()
		defer w.releaseArena(own)
		ar = own
	}
	var txts [16][]string
	mc, total := w.chaosCells(m, plan, ar, &txts)
	nc := len(w.classKeys)
	letters := dnsroot.Letters()
	sites := 0
	for _, t := range txts {
		sites += len(t)
	}
	memo := ar.memo(len(mc.ids) + sites)
	probes, answers := memo[:len(mc.ids)], memo[len(mc.ids):]
	b := atlas.NewChaosBuilder(m, total)
	for li, letter := range letters {
		txt := txts[li]
		if txt == nil {
			continue
		}
		ans := answers[:len(txt)]
		answers = answers[len(txt):]
		base := li * nc
		for i, c := range mc.classOf {
			if !ar.ok[base+int(c)] {
				continue
			}
			s := ar.idx[base+int(c)]
			b.AddMemo(&probes[i], &ans[s], mc.ids[i], w.classKeys[c].country, letter, txt[s])
		}
	}
	p := b.Partition()
	if span != nil {
		span.SetAttr("campaign", "chaos")
		span.SetAttr("month", m.String())
		span.SetAttr("probes", len(mc.ids))
		span.SetAttr("results", p.Rows())
		span.End()
	}
	return p
}

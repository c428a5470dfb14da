package world

import (
	"context"

	"vzlens/internal/atlas"
	"vzlens/internal/bgp"
	"vzlens/internal/months"
	"vzlens/internal/obs"
)

// This file is the incremental half of the scenario engine: a scenario
// whose edits are windowed to a few months only differs from the
// baseline inside those windows, because the per-probe-month RNG
// streams are scenario-blind (sampleSeed hashes only seed, month,
// probe) and every other input to a monthly snapshot is month-local.
// The windowed campaign runs below therefore re-simulate only the
// months a plan can touch and share the caller's memoized baseline
// partitions for the rest — for a sweep of hundreds of single-window
// specs this turns N full campaign replays into N small fractions of
// one, and copies no baseline rows.

// topoActiveAt reports whether the plan's topology edits (links,
// depeers, moves, or a provider-timeline shift) can alter month m.
// Conservative by design: a window that covers m counts even if the
// edit turns out to be a no-op against that month's topology — the
// recomputation then reproduces the baseline bytes exactly.
func (p *ScenarioPlan) topoActiveAt(m months.Month) bool {
	if s := p.EventShiftMonths; s != 0 {
		if !equalASNs(CANTVProvidersAt(m), CANTVProvidersAt(m.Add(-s))) {
			return true
		}
	}
	for _, l := range p.AddLinks {
		if windowActive(l.From, l.Until, m) {
			return true
		}
	}
	for _, l := range p.RemoveLinks {
		if windowActive(l.From, l.Until, m) {
			return true
		}
	}
	for _, d := range p.Depeers {
		if windowActive(d.From, d.Until, m) {
			return true
		}
	}
	for _, mv := range p.Moves {
		if windowActive(mv.From, mv.Until, m) {
			return true
		}
	}
	return false
}

// AffectsTraceAt reports whether the plan can change the traceroute
// campaign's month m: any topology edit, or a GPDNS site change, active
// that month. Root replica edits never reach the traceroute campaign.
func (p *ScenarioPlan) AffectsTraceAt(m months.Month) bool {
	if p.topoActiveAt(m) {
		return true
	}
	for _, ch := range p.GPDNS {
		if windowActive(ch.From, ch.Until, m) {
			return true
		}
	}
	return false
}

// AffectsChaosAt is AffectsTraceAt for the CHAOS sweep, whose anycast
// targets are the root letters: root replica edits matter, GPDNS edits
// do not.
func (p *ScenarioPlan) AffectsChaosAt(m months.Month) bool {
	if p.topoActiveAt(m) {
		return true
	}
	for _, ch := range p.Roots {
		if windowActive(ch.From, ch.Until, m) {
			return true
		}
	}
	return false
}

// equalASNs compares two sorted provider lists (CANTVProvidersAt
// returns them sorted).
func equalASNs(a, b []bgp.ASN) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TraceCampaignScenarioWindowed simulates the traceroute campaign under
// plan, re-simulating only the months plan can affect and sharing
// base's partitions for the rest. It returns the campaign and the
// number of months actually re-simulated. The output is bit-identical
// to a full replay under plan: outside the affected months the overlay
// is empty and the RNG streams are scenario-blind, so the baseline
// partitions ARE the scenario's. A nil base falls back to the full
// replay.
func (w *World) TraceCampaignScenarioWindowed(ctx context.Context, plan *ScenarioPlan, base *atlas.TraceCampaign) (*atlas.TraceCampaign, int) {
	if plan == nil {
		return w.TraceCampaignCtx(ctx), 0
	}
	ms := w.campaignMonths(w.Config.TraceStart, w.Config.TraceEnd)
	if base == nil {
		return w.traceCampaign(ctx, plan), len(ms)
	}
	ctx, span := obs.StartSpan(ctx, "campaign.trace")
	span.SetAttr("scenario", plan.Key)
	span.SetAttr("windowed", true)
	parts := make([]*atlas.TracePartition, len(ms))
	idx := splice(ms, plan.AffectsTraceAt, base.Partitions(), parts,
		func(p *atlas.TracePartition) months.Month { return p.Month })
	forEachIndex(len(idx), w.workers(), func(k int) {
		i := idx[k]
		// The arena pool is World-level, so a sweep of many specs reuses
		// the same scratch columns across specs, not just across months.
		ar, _ := w.acquireArena()
		parts[i] = w.traceMonth(ctx, ms[i], plan, ar)
		w.releaseArena(ar)
	})
	tc := atlas.NewTraceCampaignOf(parts)
	span.SetAttr("months", len(ms))
	span.SetAttr("recomputed", len(idx))
	span.SetAttr("samples", tc.Len())
	span.End()
	return tc, len(idx)
}

// ChaosCampaignScenarioWindowed is TraceCampaignScenarioWindowed for
// the CHAOS sweep.
func (w *World) ChaosCampaignScenarioWindowed(ctx context.Context, plan *ScenarioPlan, base *atlas.ChaosCampaign) (*atlas.ChaosCampaign, int) {
	if plan == nil {
		return w.ChaosCampaignCtx(ctx), 0
	}
	ms := w.campaignMonths(w.Config.ChaosStart, w.Config.ChaosEnd)
	if base == nil {
		return w.chaosCampaign(ctx, plan), len(ms)
	}
	ctx, span := obs.StartSpan(ctx, "campaign.chaos")
	span.SetAttr("scenario", plan.Key)
	span.SetAttr("windowed", true)
	parts := make([]*atlas.ChaosPartition, len(ms))
	idx := splice(ms, plan.AffectsChaosAt, base.Partitions(), parts,
		func(p *atlas.ChaosPartition) months.Month { return p.Month })
	forEachIndex(len(idx), w.workers(), func(k int) {
		i := idx[k]
		ar, _ := w.acquireArena()
		parts[i] = w.chaosPartition(ctx, ms[i], plan, ar)
		w.releaseArena(ar)
	})
	cc := atlas.NewChaosCampaignOf(parts)
	span.SetAttr("months", len(ms))
	span.SetAttr("recomputed", len(idx))
	span.SetAttr("results", cc.Len())
	span.End()
	return cc, len(idx)
}

// splice fills parts[i] with base's partition for every month ms[i] the
// plan leaves untouched (nil when base has no rows that month) and
// returns the indices of the affected months, which the caller
// re-simulates. Both ms and base ascend by month.
func splice[P any](ms []months.Month, affected func(months.Month) bool, base, parts []*P, month func(*P) months.Month) []int {
	var idx []int
	for i, m := range ms {
		for len(base) > 0 && month(base[0]) < m {
			base = base[1:]
		}
		switch {
		case affected(m):
			idx = append(idx, i)
		case len(base) > 0 && month(base[0]) == m:
			parts[i] = base[0]
		}
	}
	return idx
}

package world

import (
	"fmt"

	"vzlens/internal/atlas"
	"vzlens/internal/months"
)

// FactSink receives baseline campaign months as the columnar kernels
// code them — the hook the fact lake builds its month-partitioned
// columnar files from. Hooks fire only for baseline simulation (never
// under a scenario overlay) and only while a sink is armed via
// SetFactSink, from inside month shards: implementations must be safe
// for concurrent calls on distinct months, and idempotent per month
// (a month may be re-simulated by a concurrent campaign run; the
// emission is deterministic, so duplicate deliveries carry identical
// rows). The partition is the one the returned campaign holds: sinks
// may keep it but must not modify it.
type FactSink interface {
	// TraceMonthFacts delivers one simulated traceroute month, its Hops
	// column filled from the per-class catchment hop counts.
	TraceMonthFacts(p *atlas.TracePartition)
	// ChaosMonthFacts delivers one simulated CHAOS month.
	ChaosMonthFacts(p *atlas.ChaosPartition)
}

// SetFactSink arms (or, with nil, disarms) the campaign kernels' fact
// emission hook. Emission never touches the jitter RNG or reorders any
// computation, so campaign output is bit-identical with or without a
// sink.
func (w *World) SetFactSink(s FactSink) {
	if s == nil {
		w.factSink.Store(&factSinkCell{})
		return
	}
	w.factSink.Store(&factSinkCell{sink: s})
}

// factSinkCell boxes the interface so an atomic.Pointer can hold "no
// sink" and "sink" uniformly.
type factSinkCell struct{ sink FactSink }

// armedFactSink returns the currently armed sink, or nil.
func (w *World) armedFactSink() FactSink {
	cell := w.factSink.Load()
	if cell == nil {
		return nil
	}
	return cell.sink
}

// TopologySignatureAt renders the campaign kernel's wiring signature
// for month m — the (CANTV provider set, customer cone size) pair that
// is the only thing varying between monthly topologies. The fact lake's
// topology-era dimension groups months by this string: two months with
// equal signatures share one resolver and simulate identical paths.
func TopologySignatureAt(m months.Month) string {
	sig := kernelSigAt(m)
	return fmt.Sprintf("prov%#x-cust%d", sig.prov, sig.cust)
}

// Scope fingerprints the configuration axes that determine campaign
// output, after defaulting. Two configs with equal scopes simulate
// bit-identical campaigns; Workers is deliberately excluded (output is
// schedule-independent). The HTTP layer keys its result store and the
// cluster tier's frame exchange on this string, and the fact lake's
// manifest records it so a lake directory reused across
// differently-configured servers is rebuilt, never trusted.
func (c Config) Scope() string {
	d := c.withDefaults()
	return fmt.Sprintf("seed%d-step%d-tr%s-%s-ch%s-%s-spp%d-pol%d-fs%g",
		d.Seed, d.Step, d.TraceStart, d.TraceEnd,
		d.ChaosStart, d.ChaosEnd, d.SamplesPerProbe, d.Policy, d.FleetScale)
}

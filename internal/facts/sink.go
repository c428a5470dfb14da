package facts

import (
	"maps"
	"sort"
	"sync"

	"vzlens/internal/atlas"
	"vzlens/internal/months"
)

// Recorder implements world.FactSink: it encodes the month partitions
// the campaign kernels hand it into VZFC partition payloads, so a lake
// build codes each month's rows once, in the kernel. Deliveries are
// idempotent per month (the kernels re-simulate deterministically, so a
// duplicate carries identical rows and is dropped) and safe for
// concurrent calls; months encode outside the lock, in parallel.
type Recorder struct {
	mu    sync.Mutex
	trace map[months.Month][]byte
	chaos map[months.Month][]byte
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		trace: map[months.Month][]byte{},
		chaos: map[months.Month][]byte{},
	}
}

// TraceMonthFacts encodes one traceroute month.
func (r *Recorder) TraceMonthFacts(p *atlas.TracePartition) {
	r.deliver(r.trace, p.Month, func() []byte { return EncodeTracePartition(p) })
}

// ChaosMonthFacts encodes one CHAOS month.
func (r *Recorder) ChaosMonthFacts(p *atlas.ChaosPartition) {
	r.deliver(r.chaos, p.Month, func() []byte { return EncodeChaosPartition(p) })
}

// deliver stores encode's payload as month m's unless m is recorded.
// encode runs without r.mu; a duplicate that races past the first check
// is dropped on store, so the first payload is kept.
func (r *Recorder) deliver(payloads map[months.Month][]byte, m months.Month, encode func() []byte) {
	r.mu.Lock()
	_, dup := payloads[m]
	r.mu.Unlock()
	if dup {
		return
	}
	b := encode()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := payloads[m]; !dup {
		payloads[m] = b
	}
}

// TraceMonths returns the recorded trace months, sorted.
func (r *Recorder) TraceMonths() []months.Month {
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedKeys(r.trace)
}

// ChaosMonths returns the recorded chaos months, sorted.
func (r *Recorder) ChaosMonths() []months.Month {
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedKeys(r.chaos)
}

// payloads returns copies of the recorded partition payload maps.
func (r *Recorder) payloads() (trace, chaos map[months.Month][]byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return maps.Clone(r.trace), maps.Clone(r.chaos)
}

func sortedKeys(m map[months.Month][]byte) []months.Month {
	out := make([]months.Month, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

package facts

import (
	"maps"
	"sort"
	"strings"
	"sync"

	"vzlens/internal/atlas"
	"vzlens/internal/dnsroot"
	"vzlens/internal/months"
)

// Recorder implements world.FactSink: it encodes campaign months into
// VZFC partition payloads as the columnar kernels emit them, straight
// out of the kernels' own month fragments — no intermediate row
// structs, one dictionary-coded payload per month. Deliveries are
// idempotent per month (the kernels re-simulate deterministically, so
// a duplicate carries identical rows and is dropped) and safe for
// concurrent calls; months encode outside the lock, in parallel.
type Recorder struct {
	mu    sync.Mutex
	trace map[months.Month][]byte
	chaos map[months.Month][]byte
	// siteCC memoizes dnsroot.ParseInstance per distinct (letter, TXT)
	// answer: campaigns intern TXT strings, so a decade of CHAOS rows
	// resolves through a few hundred regexp runs. Empty string means
	// "does not parse" — the rows the paper's extraction skips.
	siteCC map[siteKey]string
}

type siteKey struct {
	letter dnsroot.Letter
	txt    string
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		trace:  map[months.Month][]byte{},
		chaos:  map[months.Month][]byte{},
		siteCC: map[siteKey]string{},
	}
}

// dictBuilder interns strings into a partition dictionary in
// first-appearance order.
type dictBuilder struct {
	codes map[string]uint16
	dict  []string
}

func newDictBuilder() *dictBuilder {
	return &dictBuilder{codes: map[string]uint16{}}
}

func (d *dictBuilder) code(s string) uint16 {
	if c, ok := d.codes[s]; ok {
		return c
	}
	if len(d.dict) >= maxDictEntries {
		panic("facts: partition dictionary overflows uint16 codes")
	}
	c := uint16(len(d.dict))
	d.codes[s] = c
	d.dict = append(d.dict, s)
	return c
}

// TraceMonthFacts encodes one traceroute month. hops parallels samples;
// a short hops slice (possible only through misuse, never from the
// kernel) pads with zero rather than dropping rows.
func (r *Recorder) TraceMonthFacts(m months.Month, samples []atlas.TraceSample, hops []uint8) {
	r.deliver(r.trace, m, func() []byte { return encodeTraceMonth(m, samples, hops) })
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

func encodeTraceMonth(m months.Month, samples []atlas.TraceSample, hops []uint8) []byte {
	p := &TracePartition{
		Month:   m,
		RTT:     make([]float64, len(samples)),
		ProbeID: make([]int32, len(samples)),
		CC:      make([]uint16, len(samples)),
		Hops:    make([]uint8, len(samples)),
	}
	db := newDictBuilder()
	for i := range samples {
		s := &samples[i]
		p.RTT[i] = s.RTTms
		p.ProbeID[i] = int32(s.ProbeID)
		p.CC[i] = db.code(s.ProbeCC)
		if i < len(hops) {
			p.Hops[i] = hops[i]
		}
	}
	p.Dict = db.dict
	return EncodeTracePartition(p)
}

// ChaosMonthFacts encodes one CHAOS month, resolving each answer's site
// country at write time so queries never re-run the extraction regexps.
func (r *Recorder) ChaosMonthFacts(m months.Month, results []atlas.ChaosResult) {
	r.deliver(r.chaos, m, func() []byte { return r.encodeChaosMonth(m, results) })
}

// encodeChaosMonth codes each distinct (letter, TXT) answer's TXT and
// SiteCC once, on its first row, in the order TXT, ProbeCC, SiteCC, so
// the dictionary (and the bytes) match coding all three on every row.
func (r *Recorder) encodeChaosMonth(m months.Month, results []atlas.ChaosResult) []byte {
	p := &ChaosPartition{
		Month:   m,
		ProbeID: make([]int32, len(results)),
		TXT:     make([]uint32, len(results)),
		CC:      make([]uint16, len(results)),
		SiteCC:  make([]uint16, len(results)),
		Letter:  make([]uint8, len(results)),
	}
	db := newDictBuilder()
	first := make(map[siteKey]int, 256) // (letter, TXT) → its first row; a month has ~80–160
	for i := range results {
		res := &results[i]
		p.ProbeID[i] = int32(res.ProbeID)
		p.Letter[i] = uint8(res.Letter)
		key := siteKey{res.Letter, res.TXT}
		if j, ok := first[key]; ok {
			p.TXT[i], p.CC[i], p.SiteCC[i] = p.TXT[j], db.code(res.ProbeCC), p.SiteCC[j]
			continue
		}
		first[key] = i
		p.TXT[i] = uint32(db.code(res.TXT))
		p.CC[i] = db.code(res.ProbeCC)
		p.SiteCC[i] = DictNone
		if cc := r.parsedSiteCC(res.Letter, res.TXT); cc != "" {
			p.SiteCC[i] = db.code(cc)
		}
	}
	p.Dict = db.dict
	return EncodeChaosPartition(p)
}

// parsedSiteCC resolves a CHAOS answer to its site country through the
// memo, matching atlas.ChaosCampaign's normalization (answers differing
// only by case or padding identify the same instance). It holds r.mu,
// parse included; a month calls it once per distinct answer.
func (r *Recorder) parsedSiteCC(l dnsroot.Letter, txt string) string {
	key := siteKey{l, strings.ToLower(strings.TrimSpace(txt))}
	r.mu.Lock()
	defer r.mu.Unlock()
	if cc, ok := r.siteCC[key]; ok {
		return cc
	}
	cc := ""
	if site, err := dnsroot.ParseInstance(l, txt); err == nil {
		cc = site.Country
	}
	r.siteCC[key] = cc
	return cc
}

// IngestTrace records a complete campaign after the fact — the fallback
// when the world serves an externally ingested archive, which
// short-circuits simulation so the kernel hooks never fire. Hop counts
// are unknown for external campaigns and recorded as zero. Months
// already recorded by the live hook are kept.
func (r *Recorder) IngestTrace(samples []atlas.TraceSample) {
	for _, group := range splitByMonth(samples, func(s atlas.TraceSample) months.Month { return s.Month }) {
		r.TraceMonthFacts(group.month, group.rows, nil)
	}
}

// IngestChaos is IngestTrace for the CHAOS campaign.
func (r *Recorder) IngestChaos(results []atlas.ChaosResult) {
	for _, group := range splitByMonth(results, func(res atlas.ChaosResult) months.Month { return res.Month }) {
		r.ChaosMonthFacts(group.month, group.rows)
	}
}

// monthGroup is one month's rows in original relative order.
type monthGroup[T any] struct {
	month months.Month
	rows  []T
}

// splitByMonth partitions rows by month, preserving within-month order,
// and returns groups in ascending month order.
func splitByMonth[T any](rows []T, monthOf func(T) months.Month) []monthGroup[T] {
	idx := map[months.Month]int{}
	var out []monthGroup[T]
	for _, row := range rows {
		m := monthOf(row)
		i, ok := idx[m]
		if !ok {
			i = len(out)
			idx[m] = i
			out = append(out, monthGroup[T]{month: m})
		}
		out[i].rows = append(out[i].rows, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].month < out[j].month })
	return out
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

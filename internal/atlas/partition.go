package atlas

import (
	"strings"
	"sync"

	"vzlens/internal/dnsroot"
	"vzlens/internal/months"
)

// A campaign is an ordered list of month partitions: each month's rows
// held column by column, with every string (probe country, CHAOS TXT
// answer, parsed site country) stored once in a per-partition
// dictionary and the columns holding codes. The fact lake persists
// exactly these partitions (internal/facts encodes them as VZFC
// payloads), so a campaign served from the lake is the lake's decoded
// partitions, not a copy of them.

// DictNone is the SiteCC column's sentinel for a CHAOS answer whose TXT
// did not parse under its letter's naming convention — the rows the
// paper's regular-expression extraction skips.
const DictNone = 0xFFFF

// TracePartition is one month of traceroute facts. Rows are in
// insertion order; the kernel emits active probes ascending by ID,
// SamplesPerProbe consecutive rows per probe, so per-probe aggregation
// is a linear scan over runs of equal ProbeID.
type TracePartition struct {
	Month   months.Month
	RTT     []float64 // RTT sample in milliseconds
	ProbeID []int32
	CC      []uint16 // probe country, dictionary code
	Hops    []uint8  // AS-path length of the selected anycast site; 0 when unknown
	Dict    []string
}

// Rows returns the number of fact rows.
func (p *TracePartition) Rows() int { return len(p.ProbeID) }

// sample returns row i as a TraceSample.
func (p *TracePartition) sample(i int) TraceSample {
	return TraceSample{Month: p.Month, ProbeID: int(p.ProbeID[i]), ProbeCC: p.Dict[p.CC[i]], RTTms: p.RTT[i]}
}

// ChaosPartition is one month of CHAOS facts. Rows are in insertion
// order; the kernel emits them letter-major, probe-minor.
type ChaosPartition struct {
	Month   months.Month
	ProbeID []int32
	TXT     []uint16 // CHAOS TXT answer, dictionary code
	CC      []uint16 // probe country, dictionary code
	SiteCC  []uint16 // parsed site country code, or DictNone
	Letter  []uint8  // root letter 'A'..'M'
	Dict    []string
}

// Rows returns the number of fact rows.
func (p *ChaosPartition) Rows() int { return len(p.ProbeID) }

// result returns row i as a ChaosResult.
func (p *ChaosPartition) result(i int) ChaosResult {
	return ChaosResult{Month: p.Month, ProbeID: int(p.ProbeID[i]), ProbeCC: p.Dict[p.CC[i]],
		Letter: dnsroot.Letter(p.Letter[i]), TXT: p.Dict[p.TXT[i]]}
}

// NewTracePartition codes one month of samples into a partition. hops
// parallels samples.
func NewTracePartition(m months.Month, samples []TraceSample, hops []uint8) *TracePartition {
	b := newTraceBuilder(m, len(samples), 32) // a month has ~25 probe countries
	for i, s := range samples {
		b.add(s, hops[i])
	}
	return b.p
}

// NewChaosPartition codes one month of CHAOS results into a partition,
// resolving each distinct answer's site country once.
func NewChaosPartition(m months.Month, results []ChaosResult) *ChaosPartition {
	b := newChaosBuilder(m, len(results), 256) // a month has ~100–200 distinct strings
	for _, r := range results {
		b.add(r)
	}
	return b.p
}

// dictBuilder interns strings into a partition dictionary in
// first-appearance order — the order that keeps the lake's partition
// files byte-identical however the rows reached the coder.
type dictBuilder struct {
	codes map[string]uint16
	dict  []string
}

func newDictBuilder(hint int) dictBuilder {
	return dictBuilder{codes: make(map[string]uint16, hint), dict: make([]string, 0, hint)}
}

func (d *dictBuilder) code(s string) uint16 {
	if c, ok := d.codes[s]; ok {
		return c
	}
	if len(d.dict) >= DictNone {
		panic("atlas: partition dictionary overflows uint16 codes")
	}
	c := uint16(len(d.dict))
	d.codes[s] = c
	d.dict = append(d.dict, s)
	return c
}

// traceBuilder appends rows to one trace partition.
type traceBuilder struct {
	p    *TracePartition
	dict dictBuilder
}

// newTraceBuilder sizes the columns for the given number of rows and
// the dictionary for dictHint strings; both grow past that as needed.
func newTraceBuilder(m months.Month, rows, dictHint int) traceBuilder {
	return traceBuilder{
		p: &TracePartition{
			Month:   m,
			RTT:     make([]float64, 0, rows),
			ProbeID: make([]int32, 0, rows),
			CC:      make([]uint16, 0, rows),
			Hops:    make([]uint8, 0, rows),
		},
		dict: newDictBuilder(dictHint),
	}
}

func (b *traceBuilder) add(s TraceSample, hops uint8) {
	p := b.p
	p.RTT = append(p.RTT, s.RTTms)
	p.ProbeID = append(p.ProbeID, int32(s.ProbeID))
	p.CC = append(p.CC, b.dict.code(s.ProbeCC))
	p.Hops = append(p.Hops, hops)
	p.Dict = b.dict.dict
}

// chaosBuilder appends rows to one CHAOS partition.
type chaosBuilder struct {
	p     *ChaosPartition
	dict  dictBuilder
	first map[siteKey]int // (letter, raw TXT) → the row that coded it
}

// newChaosBuilder is newTraceBuilder for CHAOS partitions.
func newChaosBuilder(m months.Month, rows, dictHint int) chaosBuilder {
	return chaosBuilder{
		p: &ChaosPartition{
			Month:   m,
			ProbeID: make([]int32, 0, rows),
			TXT:     make([]uint16, 0, rows),
			CC:      make([]uint16, 0, rows),
			SiteCC:  make([]uint16, 0, rows),
			Letter:  make([]uint8, 0, rows),
		},
		dict:  newDictBuilder(dictHint),
		first: make(map[siteKey]int, dictHint),
	}
}

// add codes an answer's TXT, ProbeCC and SiteCC, in that order, on the
// answer's first row and only ProbeCC on its later rows, reusing the
// first row's TXT and SiteCC codes.
func (b *chaosBuilder) add(r ChaosResult) {
	p := b.p
	p.ProbeID = append(p.ProbeID, int32(r.ProbeID))
	p.Letter = append(p.Letter, uint8(r.Letter))
	key := siteKey{r.Letter, r.TXT}
	if j, ok := b.first[key]; ok {
		p.TXT = append(p.TXT, p.TXT[j])
		p.CC = append(p.CC, b.dict.code(r.ProbeCC))
		p.SiteCC = append(p.SiteCC, p.SiteCC[j])
	} else {
		b.first[key] = len(p.TXT)
		p.TXT = append(p.TXT, b.dict.code(r.TXT))
		p.CC = append(p.CC, b.dict.code(r.ProbeCC))
		site := uint16(DictNone)
		if cc := siteCountry(r.Letter, r.TXT); cc != "" {
			site = b.dict.code(cc)
		}
		p.SiteCC = append(p.SiteCC, site)
	}
	p.Dict = b.dict.dict
}

// siteKey identifies a CHAOS answer: one letter answering with one TXT
// string.
type siteKey struct {
	letter dnsroot.Letter
	txt    string
}

// normalizeTXT folds answers that differ only by case or padding into
// one instance, as dnsroot.ParseInstance reads them.
func normalizeTXT(txt string) string { return strings.ToLower(strings.TrimSpace(txt)) }

// siteCountries memoizes dnsroot.ParseInstance's country per (letter,
// normalized TXT) for the life of the process. Campaigns repeat a few
// hundred distinct answers across every month, so a decade of CHAOS
// rows resolves through a few hundred regexp runs; the memo holds one
// entry per distinct answer ever coded. "" means "does not parse".
var siteCountries struct {
	sync.Mutex
	cc map[siteKey]string
}

// siteCountry resolves a CHAOS answer to the country of its location
// tag, or "" when it does not parse. The parse runs under the lock; a
// month calls this once per distinct answer.
func siteCountry(l dnsroot.Letter, txt string) string {
	key := siteKey{l, normalizeTXT(txt)}
	siteCountries.Lock()
	defer siteCountries.Unlock()
	cc, ok := siteCountries.cc[key]
	if !ok {
		if site, err := dnsroot.ParseInstance(l, txt); err == nil {
			cc = site.Country
		}
		if siteCountries.cc == nil {
			siteCountries.cc = map[siteKey]string{}
		}
		siteCountries.cc[key] = cc
	}
	return cc
}

// dictCode returns s's code in a partition dictionary, whose entries
// are distinct.
func dictCode(dict []string, s string) (uint16, bool) {
	for c, d := range dict {
		if d == s {
			return uint16(c), true
		}
	}
	return 0, false
}

package atlas

import (
	"slices"
	"strings"
	"sync"

	"vzlens/internal/dnsroot"
	"vzlens/internal/months"
)

// A campaign is an ordered list of month partitions: each month's rows
// held column by column, with every string (probe country, CHAOS TXT
// answer, parsed site country) stored once in a per-partition
// dictionary and the columns holding codes. A CHAOS row is narrower
// still: a (probe, answer) pair of codes into the partition's probe and
// answer tables, which hold each probe's ID and country and each
// answer's letter, TXT and site country once. The fact lake persists
// exactly these partitions (internal/facts encodes them as VZFC
// payloads, expanding CHAOS rows back into five row columns on disk),
// so a campaign served from the lake is the lake's decoded partitions,
// not a copy of them.

// DictNone is the SiteCC column's sentinel for a CHAOS answer whose TXT
// did not parse under its letter's naming convention — the rows the
// paper's regular-expression extraction skips.
const DictNone = 0xFFFF

// TracePartition is one month of traceroute facts. Rows are in
// insertion order; the kernel emits active probes ascending by ID,
// SamplesPerProbe consecutive rows per probe. ProbeMinima is the one
// per-probe reduction over them, for rows in any order.
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
// order; the kernel emits them letter-major, probe-minor. A row is a
// (probe, answer) code pair indexing the partition's two tables: a
// month's ~4,800 rows carry only ~370 distinct probes and ~120
// distinct answers, so each probe's ID and country and each answer's
// letter, TXT and site country are held once, not once per row. Both
// tables are in first-appearance row order.
type ChaosPartition struct {
	Month   months.Month
	Probe   []uint16 // row's probe, an index into Probes
	Answer  []uint16 // row's answer, an index into Answers
	Probes  []ChaosProbe
	Answers []ChaosAnswer
	Dict    []string
}

// ChaosProbe is one distinct probe of a CHAOS partition.
type ChaosProbe struct {
	ID int32
	CC uint16 // probe country, dictionary code
}

// ChaosAnswer is one distinct answer of a CHAOS partition: a root
// letter answering with one TXT string.
type ChaosAnswer struct {
	Letter uint8  // root letter 'A'..'M'
	TXT    uint16 // CHAOS TXT answer, dictionary code
	SiteCC uint16 // parsed site country code, or DictNone
}

// MaxChaosCodes bounds a CHAOS partition's probe and answer tables: a
// row's codes are uint16, and the tables stop one short of 1<<16 as
// the dictionary does.
const MaxChaosCodes = DictNone

// Rows returns the number of fact rows.
func (p *ChaosPartition) Rows() int { return len(p.Probe) }

// result returns row i as a ChaosResult.
func (p *ChaosPartition) result(i int) ChaosResult {
	pr, an := p.Probes[p.Probe[i]], p.Answers[p.Answer[i]]
	return ChaosResult{Month: p.Month, ProbeID: int(pr.ID), ProbeCC: p.Dict[pr.CC],
		Letter: dnsroot.Letter(an.Letter), TXT: p.Dict[an.TXT]}
}

// NewChaosPartition codes one month of CHAOS results into a partition,
// resolving each distinct answer's site country once.
func NewChaosPartition(m months.Month, results []ChaosResult) *ChaosPartition {
	b := NewChaosBuilder(m, len(results))
	for _, r := range results {
		b.Add(r)
	}
	return b.Partition()
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

// newTraceBuilder starts month m's partition, empty.
func newTraceBuilder(m months.Month) traceBuilder {
	return traceBuilder{p: &TracePartition{Month: m}, dict: newDictBuilder(0)}
}

// add appends a row.
func (b *traceBuilder) add(s TraceSample, hops uint8) {
	p := b.p
	p.RTT = append(p.RTT, s.RTTms)
	p.ProbeID = append(p.ProbeID, int32(s.ProbeID))
	p.CC = append(p.CC, b.dict.code(s.ProbeCC))
	p.Hops = append(p.Hops, hops)
	p.Dict = b.dict.dict
}

// ChaosBuilder codes rows into one CHAOS partition.
type ChaosBuilder struct {
	p    *ChaosPartition
	dict dictBuilder
	// probes and answers index the tables for Add, which knows nothing
	// of which rows share a probe or an answer; its first row makes
	// them. AddMemo's callers memoize the codes themselves.
	probes  map[ChaosProbe]uint16
	answers map[answerKey]uint16
}

// answerKey identifies a coded answer: a letter and a TXT dictionary
// code. The site country follows from the pair.
type answerKey struct {
	letter uint8
	txt    uint16
}

// NewChaosBuilder sizes the row columns for the given number of rows
// and the tables for a month's worth of probes and answers; all grow
// past that as needed.
func NewChaosBuilder(m months.Month, rows int) *ChaosBuilder {
	// A month has ~370 probes, ~120 answers and ~100–200 distinct
	// strings.
	return &ChaosBuilder{
		p: &ChaosPartition{
			Month:   m,
			Probe:   make([]uint16, 0, rows),
			Answer:  make([]uint16, 0, rows),
			Probes:  make([]ChaosProbe, 0, min(rows, 512)),
			Answers: make([]ChaosAnswer, 0, min(rows, 256)),
		},
		dict: newDictBuilder(256),
	}
}

// Add appends a result, finding its probe and answer through the
// builder's table indexes.
func (b *ChaosBuilder) Add(r ChaosResult) {
	p := b.p
	if b.probes == nil {
		b.probes = make(map[ChaosProbe]uint16, cap(p.Probes))
		b.answers = make(map[answerKey]uint16, cap(p.Answers))
	}
	// The TXT is coded before the country, as on a row that opens both
	// an answer and a probe.
	ak := answerKey{uint8(r.Letter), b.dict.code(r.TXT)}
	pk := ChaosProbe{ID: int32(r.ProbeID), CC: b.dict.code(r.ProbeCC)}
	probe, answer := int32(-1), int32(-1)
	if c, ok := b.probes[pk]; ok {
		probe = int32(c)
	}
	if c, ok := b.answers[ak]; ok {
		answer = int32(c)
	}
	b.add(&probe, &answer, pk.ID, r.ProbeCC, r.Letter, r.TXT, false)
	b.probes[pk] = uint16(probe)
	b.answers[ak] = uint16(answer)
}

// AddMemo appends the row (id, cc, l, txt) for a caller that knows
// which rows share a probe and which share an answer. *probe and
// *answer memoize the row's table codes: -1 until the first row that
// carries them, which codes them and fills them in, so later rows
// skip the dictionary and both tables. A probe slot at -1 appends a
// new probe, so the caller gives each distinct (id, cc) one slot. An
// answer slot at -1 appends a new answer unless its TXT was coded
// before, when the answer table is searched for it first, so two
// slots may name one answer. On an answer's first row the dictionary
// codes its TXT, the probe's country and the answer's site country in
// that order, and on a probe's first row its country: the order Add
// codes in too, which keeps the lake's partition files byte-identical
// whichever path coded the rows.
func (b *ChaosBuilder) AddMemo(probe, answer *int32, id int32, cc string, l dnsroot.Letter, txt string) {
	b.add(probe, answer, id, cc, l, txt, true)
}

// add is AddMemo; search says whether an answer slot at -1 whose TXT
// is already coded may name an answer in the table (Add has looked).
func (b *ChaosBuilder) add(probe, answer *int32, id int32, cc string, l dnsroot.Letter, txt string, search bool) {
	p := b.p
	coded, newAnswer := *probe < 0 || *answer < 0, -1
	if *answer < 0 {
		known := len(b.dict.dict)
		an := ChaosAnswer{Letter: uint8(l), TXT: b.dict.code(txt), SiteCC: DictNone}
		a := -1
		if search && int(an.TXT) < known {
			a = slices.IndexFunc(p.Answers, func(x ChaosAnswer) bool { return x.Letter == an.Letter && x.TXT == an.TXT })
		}
		if a < 0 {
			if len(p.Answers) >= MaxChaosCodes {
				panic("atlas: chaos answer table overflows uint16 codes")
			}
			a, newAnswer = len(p.Answers), len(p.Answers)
			p.Answers = append(p.Answers, an)
		}
		*answer = int32(a)
	}
	if *probe < 0 {
		if len(p.Probes) >= MaxChaosCodes {
			panic("atlas: chaos probe table overflows uint16 codes")
		}
		*probe = int32(len(p.Probes))
		p.Probes = append(p.Probes, ChaosProbe{ID: id, CC: b.dict.code(cc)})
	}
	if newAnswer >= 0 {
		if site := siteCountry(l, txt); site != "" {
			p.Answers[newAnswer].SiteCC = b.dict.code(site)
		}
	}
	p.Probe = append(p.Probe, uint16(*probe))
	p.Answer = append(p.Answer, uint16(*answer))
	if coded {
		p.Dict = b.dict.dict
	}
}

// Partition seals and returns the partition: its dictionary and tables
// are copied to their length, so the builder's growth slack is not
// kept for the life of the campaign. The builder must not be used
// afterwards.
func (b *ChaosBuilder) Partition() *ChaosPartition {
	p := b.p
	p.Dict = slices.Clone(p.Dict)
	p.Probes = slices.Clone(p.Probes)
	p.Answers = slices.Clone(p.Answers)
	b.p = nil
	return p
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

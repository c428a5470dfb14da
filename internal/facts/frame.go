// Package facts is the month-partitioned columnar fact lake behind the
// ad-hoc query layer: campaign probe-month samples persisted once, as
// the columnar kernels emit them, into one segment per fact table plus
// an SCD2 dimension table (probe fleet membership) with validity
// windows. Each month partition is one VZRS frame (resultstore's
// checksummed envelope) in its table's segment, whose payload is the
// VZFC columnar layout below; readers read and validate that frame's
// byte range alone, decode its columns, and never touch partitions
// outside the queried month window — partition pruning is structural,
// not an optimizer decision.
package facts

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"vzlens/internal/atlas"
	"vzlens/internal/months"
	"vzlens/internal/resultstore"
)

// ErrCorrupt aliases resultstore.ErrCorrupt: a fact partition that
// fails structural validation is handled exactly like a torn store
// entry — quarantined and rebuilt, never served.
var ErrCorrupt = resultstore.ErrCorrupt

// VZFC partition payload layout (little-endian), carried inside a VZRS
// frame:
//
//	offset  size  field
//	0       4     magic "VZFC"
//	4       2     format version (trace 1, chaos 2)
//	6       1     kind (1 = trace, 2 = chaos)
//	7       1     reserved (must be zero)
//	8       8     month (months.Month as int64)
//	16      4     row count
//	20      4     dictionary entry count
//	24      8     dictionary blob length in bytes
//	32      ...   dictionary blob: per entry uint32 length + raw bytes
//	        ...   columns, each 8-byte aligned (zero padding between)
//
// Column order is fixed per kind:
//
//	trace: rtt float64, probeID int32, cc uint16, hops uint8
//	chaos: probe and answer table sizes (uint32 each, one 8-byte
//	       section), then row columns probe uint16 and answer uint16,
//	       then the probe table (id int32, cc uint16) and the answer
//	       table (letter uint8, txt uint16, siteCC uint16)
//
// A chaos frame stores the partition as an atlas.ChaosPartition holds
// it: each row is a (probe, answer) pair of codes into the probe table
// (probe ID and country) and the answer table (letter, TXT and site
// country), so encode copies columns and decode validates them. Both
// tables are in first-appearance row order and their entries distinct
// (a probe by ID and country, an answer by letter and TXT): decode
// rejects a code past its table, an entry first referenced out of
// order or never, and a repeated entry, so every valid payload decodes
// to the one partition that re-encodes to the same bytes. Version 1 of
// the chaos layout (five row columns) is no longer read: a lake that
// holds it is an older generation and is rebuilt.
//
// Strings (probe countries, CHAOS TXT answers, parsed site countries)
// live once in the per-partition dictionary; columns hold codes. The
// trace and chaos code spaces share one dictionary per partition, so
// "answer is domestic" is a single integer comparison between a
// probe's and an answer's country codes.
const (
	frameMagic = "VZFC"

	// traceVersion and chaosVersion are the format versions the
	// kinds are written and read at.
	traceVersion = 1
	chaosVersion = 2

	// KindTrace and KindChaos tag a partition's fact table.
	KindTrace = 1
	KindChaos = 2

	frameHeaderSize = 32

	// maxDictEntries keeps dictionary codes inside uint16 with room for
	// the atlas.DictNone sentinel.
	maxDictEntries = atlas.DictNone

	// minTraceRowBytes / minChaosRowBytes bound the row count a payload
	// of a given size can possibly hold, so a corrupt header can never
	// drive a large allocation before validation.
	minTraceRowBytes = 8 + 4 + 2 + 1
	minChaosRowBytes = 2 + 2
)

// pad8 rounds n up to the next multiple of 8; every column section
// starts 8-byte aligned so future zero-copy readers stay possible.
func pad8(n int) int { return (n + 7) &^ 7 }

// dictBlobLen returns the encoded size of a dictionary.
func dictBlobLen(dict []string) int {
	n := 0
	for _, s := range dict {
		n += 4 + len(s)
	}
	return n
}

// encodeHeader writes the common VZFC header and dictionary, returning
// the offset where columns begin.
func encodeHeader(buf []byte, kind byte, version uint16, m months.Month, rows int, dict []string) int {
	copy(buf[0:4], frameMagic)
	binary.LittleEndian.PutUint16(buf[4:6], version)
	buf[6] = kind
	buf[7] = 0
	binary.LittleEndian.PutUint64(buf[8:16], uint64(int64(m)))
	binary.LittleEndian.PutUint32(buf[16:20], uint32(rows))
	binary.LittleEndian.PutUint32(buf[20:24], uint32(len(dict)))
	blob := dictBlobLen(dict)
	binary.LittleEndian.PutUint64(buf[24:32], uint64(blob))
	off := frameHeaderSize
	for _, s := range dict {
		binary.LittleEndian.PutUint32(buf[off:off+4], uint32(len(s)))
		off += 4
		copy(buf[off:], s)
		off += len(s)
	}
	return pad8(off)
}

// EncodeTracePartition encodes p into a VZFC payload (the caller wraps
// it in a VZRS frame for disk). It panics on structurally impossible
// inputs — mismatched column lengths or an oversized dictionary — which
// only a bug in the partition coder can produce.
func EncodeTracePartition(p *atlas.TracePartition) []byte {
	rows := p.Rows()
	if len(p.RTT) != rows || len(p.CC) != rows || len(p.Hops) != rows {
		panic("facts: trace partition column lengths disagree")
	}
	if len(p.Dict) > maxDictEntries {
		panic("facts: trace partition dictionary overflows uint16 codes")
	}
	size := pad8(frameHeaderSize+dictBlobLen(p.Dict)) +
		pad8(8*rows) + pad8(4*rows) + pad8(2*rows) + pad8(rows)
	buf := make([]byte, size)
	off := encodeHeader(buf, KindTrace, traceVersion, p.Month, rows, p.Dict)
	for i, v := range p.RTT {
		binary.LittleEndian.PutUint64(buf[off+8*i:], math.Float64bits(v))
	}
	off += pad8(8 * rows)
	for i, v := range p.ProbeID {
		binary.LittleEndian.PutUint32(buf[off+4*i:], uint32(v))
	}
	off += pad8(4 * rows)
	off = putUint16s(buf, off, p.CC)
	copy(buf[off:], p.Hops)
	return buf
}

// chaosColumnsLen is the size of a chaos payload's column sections for
// the given row and table counts, computed in 64 bits so a corrupt
// header cannot overflow it.
func chaosColumnsLen(rows, probes, answers uint64) uint64 {
	p8 := func(n uint64) uint64 { return (n + 7) &^ 7 }
	return 8 + 2*p8(2*rows) + p8(4*probes) + p8(2*probes) + p8(answers) + 2*p8(2*answers)
}

// putUint16s writes vs at off and returns the next (padded) offset.
func putUint16s(buf []byte, off int, vs []uint16) int {
	for i, v := range vs {
		binary.LittleEndian.PutUint16(buf[off+2*i:], v)
	}
	return off + pad8(2*len(vs))
}

// EncodeChaosPartition encodes p into a VZFC payload: its two row
// columns and both tables, copied as they are.
func EncodeChaosPartition(p *atlas.ChaosPartition) []byte {
	if len(p.Answer) != p.Rows() {
		panic("facts: chaos partition column lengths disagree")
	}
	if len(p.Dict) > maxDictEntries {
		panic("facts: chaos partition dictionary overflows uint16 codes")
	}
	if len(p.Probes) > atlas.MaxChaosCodes || len(p.Answers) > atlas.MaxChaosCodes {
		panic("facts: chaos partition table overflows uint16 codes")
	}
	return encodeChaos(p)
}

// encodeChaos is EncodeChaosPartition without its checks.
func encodeChaos(p *atlas.ChaosPartition) []byte {
	rows, np, na := p.Rows(), len(p.Probes), len(p.Answers)
	size := pad8(frameHeaderSize+dictBlobLen(p.Dict)) + int(chaosColumnsLen(uint64(rows), uint64(np), uint64(na)))
	buf := make([]byte, size)
	off := encodeHeader(buf, KindChaos, chaosVersion, p.Month, rows, p.Dict)
	binary.LittleEndian.PutUint32(buf[off:], uint32(np))
	binary.LittleEndian.PutUint32(buf[off+4:], uint32(na))
	off += 8
	off = putUint16s(buf, off, p.Probe)
	off = putUint16s(buf, off, p.Answer)
	for i, pr := range p.Probes {
		binary.LittleEndian.PutUint32(buf[off+4*i:], uint32(pr.ID))
		binary.LittleEndian.PutUint16(buf[off+pad8(4*np)+2*i:], pr.CC)
	}
	off += pad8(4*np) + pad8(2*np)
	for i, an := range p.Answers {
		buf[off+i] = an.Letter
		binary.LittleEndian.PutUint16(buf[off+pad8(na)+2*i:], an.TXT)
		binary.LittleEndian.PutUint16(buf[off+pad8(na)+pad8(2*na)+2*i:], an.SiteCC)
	}
	return buf
}

// frameHead is the validated fixed header of a VZFC payload.
type frameHead struct {
	kind  byte
	month months.Month
	rows  int
	dict  []string
	off   int // first column offset
}

// decodeHead validates the fixed header and dictionary. Every length is
// bounded against len(payload) BEFORE any allocation sized by it, so a
// corrupt or adversarial payload can cost at most O(len(payload)) — the
// invariant FuzzFactFrame pins.
func decodeHead(payload []byte) (frameHead, error) {
	var h frameHead
	if len(payload) < frameHeaderSize {
		return h, fmt.Errorf("%w: facts payload %d bytes, shorter than the %d-byte header", ErrCorrupt, len(payload), frameHeaderSize)
	}
	if string(payload[0:4]) != frameMagic {
		return h, fmt.Errorf("%w: facts bad magic %q", ErrCorrupt, payload[0:4])
	}
	h.kind = payload[6]
	want := uint16(traceVersion)
	switch h.kind {
	case KindTrace:
	case KindChaos:
		want = chaosVersion
	default:
		return h, fmt.Errorf("%w: facts unknown kind %d", ErrCorrupt, h.kind)
	}
	if v := binary.LittleEndian.Uint16(payload[4:6]); v != want {
		return h, fmt.Errorf("%w: facts unsupported version %d for kind %d", ErrCorrupt, v, h.kind)
	}
	if payload[7] != 0 {
		return h, fmt.Errorf("%w: facts nonzero reserved byte", ErrCorrupt)
	}
	mraw := int64(binary.LittleEndian.Uint64(payload[8:16]))
	if mraw <= 0 || mraw > math.MaxInt32 {
		return h, fmt.Errorf("%w: facts month %d out of range", ErrCorrupt, mraw)
	}
	h.month = months.Month(mraw)
	rows := binary.LittleEndian.Uint32(payload[16:20])
	minRow := uint64(minTraceRowBytes)
	if h.kind == KindChaos {
		minRow = minChaosRowBytes
	}
	if uint64(rows)*minRow > uint64(len(payload)) {
		return h, fmt.Errorf("%w: facts row count %d exceeds payload capacity", ErrCorrupt, rows)
	}
	h.rows = int(rows)
	dictCount := binary.LittleEndian.Uint32(payload[20:24])
	if dictCount > maxDictEntries || uint64(dictCount)*4 > uint64(len(payload)) {
		return h, fmt.Errorf("%w: facts dictionary count %d out of range", ErrCorrupt, dictCount)
	}
	blob := binary.LittleEndian.Uint64(payload[24:32])
	if blob > uint64(len(payload)-frameHeaderSize) {
		return h, fmt.Errorf("%w: facts dictionary blob %d bytes overruns payload", ErrCorrupt, blob)
	}
	h.dict = make([]string, 0, dictCount)
	off, end := frameHeaderSize, frameHeaderSize+int(blob)
	for i := uint32(0); i < dictCount; i++ {
		if off+4 > end {
			return h, fmt.Errorf("%w: facts dictionary entry %d truncated", ErrCorrupt, i)
		}
		n := int(binary.LittleEndian.Uint32(payload[off : off+4]))
		off += 4
		if n < 0 || off+n > end {
			return h, fmt.Errorf("%w: facts dictionary entry %d length %d overruns blob", ErrCorrupt, i, n)
		}
		h.dict = append(h.dict, string(payload[off:off+n]))
		off += n
	}
	if off != end {
		return h, fmt.Errorf("%w: facts dictionary blob has %d trailing bytes", ErrCorrupt, end-off)
	}
	h.off = pad8(end)
	return h, nil
}

// DecodePartition validates and decodes a VZFC payload into exactly one
// of a trace or chaos partition. The returned partitions copy out of
// payload and never alias it.
func DecodePartition(payload []byte) (*atlas.TracePartition, *atlas.ChaosPartition, error) {
	h, err := decodeHead(payload)
	if err != nil {
		return nil, nil, err
	}
	if h.kind == KindTrace {
		p, err := decodeTrace(payload, h)
		return p, nil, err
	}
	p, err := decodeChaos(payload, h)
	return nil, p, err
}

// section checks that a column of size bytes fits at off and returns
// the column bytes plus the next (padded) offset.
func section(payload []byte, off, size int) ([]byte, int, error) {
	if size < 0 || off+size > len(payload) {
		return nil, 0, fmt.Errorf("%w: facts column section overruns payload", ErrCorrupt)
	}
	return payload[off : off+size], pad8(off + size), nil
}

func decodeTrace(payload []byte, h frameHead) (*atlas.TracePartition, error) {
	rows := h.rows
	want := pad8(8*rows) + pad8(4*rows) + pad8(2*rows) + pad8(rows)
	if len(payload)-h.off != want {
		return nil, fmt.Errorf("%w: facts trace payload %d bytes, want %d after header", ErrCorrupt, len(payload)-h.off, want)
	}
	p := &atlas.TracePartition{
		Month:   h.month,
		RTT:     make([]float64, rows),
		ProbeID: make([]int32, rows),
		CC:      make([]uint16, rows),
		Hops:    make([]uint8, rows),
		Dict:    h.dict,
	}
	b, off, err := section(payload, h.off, 8*rows)
	if err != nil {
		return nil, err
	}
	for i := range p.RTT {
		p.RTT[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	if b, off, err = section(payload, off, 4*rows); err != nil {
		return nil, err
	}
	for i := range p.ProbeID {
		p.ProbeID[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		if p.ProbeID[i] < 0 {
			return nil, fmt.Errorf("%w: facts negative probe ID", ErrCorrupt)
		}
	}
	if b, off, err = section(payload, off, 2*rows); err != nil {
		return nil, err
	}
	for i := range p.CC {
		p.CC[i] = binary.LittleEndian.Uint16(b[2*i:])
		if int(p.CC[i]) >= len(p.Dict) {
			return nil, fmt.Errorf("%w: facts cc code %d outside dictionary", ErrCorrupt, p.CC[i])
		}
	}
	if b, _, err = section(payload, off, rows); err != nil {
		return nil, err
	}
	copy(p.Hops, b)
	return p, nil
}

// decodeChaos validates a chaos payload's table sizes against its
// length, then its columns: every code inside its table, every table
// entry first referenced in table order and referenced at all, every
// entry valid (a probe ID not negative, codes inside the dictionary, a
// letter A–M) and distinct from the table's others. Distinctness is
// checked over sorted packed keys, so decode builds no index.
func decodeChaos(payload []byte, h frameHead) (*atlas.ChaosPartition, error) {
	rows := h.rows
	if len(payload)-h.off < 8 {
		return nil, fmt.Errorf("%w: facts chaos payload has no table sizes", ErrCorrupt)
	}
	np := binary.LittleEndian.Uint32(payload[h.off:])
	na := binary.LittleEndian.Uint32(payload[h.off+4:])
	if np > atlas.MaxChaosCodes {
		return nil, fmt.Errorf("%w: facts chaos partition has more than %d distinct probes", ErrCorrupt, atlas.MaxChaosCodes)
	}
	if na > atlas.MaxChaosCodes {
		return nil, fmt.Errorf("%w: facts chaos partition has more than %d distinct answers", ErrCorrupt, atlas.MaxChaosCodes)
	}
	if want := chaosColumnsLen(uint64(rows), uint64(np), uint64(na)); uint64(len(payload)-h.off) != want {
		return nil, fmt.Errorf("%w: facts chaos payload %d bytes, want %d after header", ErrCorrupt, len(payload)-h.off, want)
	}
	// Every section now fits: the size check covered them all.
	p := &atlas.ChaosPartition{
		Month:   h.month,
		Probe:   make([]uint16, rows),
		Answer:  make([]uint16, rows),
		Probes:  make([]atlas.ChaosProbe, np),
		Answers: make([]atlas.ChaosAnswer, na),
		Dict:    h.dict,
	}
	ndict := len(p.Dict)
	off := h.off + 8
	off = getUint16s(payload, off, p.Probe)
	off = getUint16s(payload, off, p.Answer)
	for i := range p.Probes {
		pr := &p.Probes[i]
		pr.ID = int32(binary.LittleEndian.Uint32(payload[off+4*i:]))
		pr.CC = binary.LittleEndian.Uint16(payload[off+pad8(4*int(np))+2*i:])
		if pr.ID < 0 {
			return nil, fmt.Errorf("%w: facts negative probe ID", ErrCorrupt)
		}
		if int(pr.CC) >= ndict {
			return nil, fmt.Errorf("%w: facts cc code %d outside dictionary", ErrCorrupt, pr.CC)
		}
	}
	off += pad8(4*int(np)) + pad8(2*int(np))
	for i := range p.Answers {
		an := &p.Answers[i]
		an.Letter = payload[off+i]
		an.TXT = binary.LittleEndian.Uint16(payload[off+pad8(int(na))+2*i:])
		an.SiteCC = binary.LittleEndian.Uint16(payload[off+pad8(int(na))+pad8(2*int(na))+2*i:])
		if an.Letter < 'A' || an.Letter > 'M' {
			return nil, fmt.Errorf("%w: facts letter %d outside A-M", ErrCorrupt, an.Letter)
		}
		if int(an.TXT) >= ndict {
			return nil, fmt.Errorf("%w: facts txt code %d outside dictionary", ErrCorrupt, an.TXT)
		}
		if an.SiteCC != atlas.DictNone && int(an.SiteCC) >= ndict {
			return nil, fmt.Errorf("%w: facts siteCC code %d outside dictionary", ErrCorrupt, an.SiteCC)
		}
	}
	if err := firstAppearance("probe", p.Probe, len(p.Probes)); err != nil {
		return nil, err
	}
	if err := firstAppearance("answer", p.Answer, len(p.Answers)); err != nil {
		return nil, err
	}
	keys := make([]uint64, max(np, na))
	for i, pr := range p.Probes {
		keys[i] = uint64(uint32(pr.ID))<<16 | uint64(pr.CC)
	}
	if !distinct(keys[:np]) {
		return nil, fmt.Errorf("%w: facts chaos probe table repeats an entry", ErrCorrupt)
	}
	for i, an := range p.Answers {
		keys[i] = uint64(an.Letter)<<16 | uint64(an.TXT)
	}
	if !distinct(keys[:na]) {
		return nil, fmt.Errorf("%w: facts chaos answer table repeats an entry", ErrCorrupt)
	}
	return p, nil
}

// getUint16s reads len(vs) codes at off and returns the next (padded)
// offset; the caller has checked that they fit.
func getUint16s(payload []byte, off int, vs []uint16) int {
	for i := range vs {
		vs[i] = binary.LittleEndian.Uint16(payload[off+2*i:])
	}
	return off + pad8(2*len(vs))
}

// firstAppearance checks that codes index a table of n entries in
// first-appearance order: each code at most one past the largest
// before it, and every entry referenced.
func firstAppearance(table string, codes []uint16, n int) error {
	next := 0
	for _, c := range codes {
		switch {
		case int(c) >= n:
			return fmt.Errorf("%w: facts %s code %d past its %d-entry table", ErrCorrupt, table, c, n)
		case int(c) == next:
			next++
		case int(c) > next:
			return fmt.Errorf("%w: facts %s table entry %d first referenced before entry %d", ErrCorrupt, table, c, next)
		}
	}
	if next != n {
		return fmt.Errorf("%w: facts %s table holds %d entries, rows reference %d", ErrCorrupt, table, n, next)
	}
	return nil
}

// distinct sorts keys and reports whether none repeats.
func distinct(keys []uint64) bool {
	slices.Sort(keys)
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			return false
		}
	}
	return true
}

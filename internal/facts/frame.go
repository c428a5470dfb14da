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
//	4       2     format version (currently 1)
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
//	chaos: probeID int32, txt uint32, cc uint16, siteCC uint16, letter uint8
//
// The chaos txt column stores 4-byte codes although a decoded
// partition holds them as uint16, the dictionary's code width; decode
// rejects a stored code past the dictionary before narrowing it.
//
// Disk holds chaos rows as these five columns; memory holds them as
// tables. An atlas.ChaosPartition keeps two uint16 codes per row, a
// probe and an answer, indexing its Probes (probeID, cc) and Answers
// (letter, txt, siteCC) tables. Encode expands each row's pair back
// into the five columns; decode rebuilds both tables in
// first-appearance row order, so the layout and its bytes are the
// same whichever form wrote them.
//
// Strings (probe countries, CHAOS TXT answers, parsed site countries)
// live once in the per-partition dictionary; columns hold codes. The
// trace and chaos code spaces share one dictionary per partition, so
// "answer is domestic" is a single integer comparison between the cc
// and siteCC columns.
const (
	frameMagic   = "VZFC"
	frameVersion = 1

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
	minChaosRowBytes = 4 + 4 + 2 + 2 + 1
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
func encodeHeader(buf []byte, kind byte, m months.Month, rows int, dict []string) int {
	copy(buf[0:4], frameMagic)
	binary.LittleEndian.PutUint16(buf[4:6], frameVersion)
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
	off := encodeHeader(buf, KindTrace, p.Month, rows, p.Dict)
	for i, v := range p.RTT {
		binary.LittleEndian.PutUint64(buf[off+8*i:], math.Float64bits(v))
	}
	off += pad8(8 * rows)
	for i, v := range p.ProbeID {
		binary.LittleEndian.PutUint32(buf[off+4*i:], uint32(v))
	}
	off += pad8(4 * rows)
	for i, v := range p.CC {
		binary.LittleEndian.PutUint16(buf[off+2*i:], v)
	}
	off += pad8(2 * rows)
	copy(buf[off:], p.Hops)
	return buf
}

// EncodeChaosPartition encodes p into a VZFC payload, expanding each
// row's probe and answer codes back into the five row columns.
func EncodeChaosPartition(p *atlas.ChaosPartition) []byte {
	rows := p.Rows()
	if len(p.Answer) != rows {
		panic("facts: chaos partition column lengths disagree")
	}
	if len(p.Dict) > maxDictEntries {
		panic("facts: chaos partition dictionary overflows uint16 codes")
	}
	size := pad8(frameHeaderSize+dictBlobLen(p.Dict)) +
		pad8(4*rows) + pad8(4*rows) + pad8(2*rows) + pad8(2*rows) + pad8(rows)
	buf := make([]byte, size)
	idOff := encodeHeader(buf, KindChaos, p.Month, rows, p.Dict)
	txtOff := idOff + pad8(4*rows)
	ccOff := txtOff + pad8(4*rows)
	siteOff := ccOff + pad8(2*rows)
	letterOff := siteOff + pad8(2*rows)
	for i := range rows {
		pr, an := p.Probes[p.Probe[i]], p.Answers[p.Answer[i]]
		binary.LittleEndian.PutUint32(buf[idOff+4*i:], uint32(pr.ID))
		binary.LittleEndian.PutUint32(buf[txtOff+4*i:], uint32(an.TXT))
		binary.LittleEndian.PutUint16(buf[ccOff+2*i:], pr.CC)
		binary.LittleEndian.PutUint16(buf[siteOff+2*i:], an.SiteCC)
		buf[letterOff+i] = an.Letter
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
	if v := binary.LittleEndian.Uint16(payload[4:6]); v != frameVersion {
		return h, fmt.Errorf("%w: facts unsupported version %d", ErrCorrupt, v)
	}
	h.kind = payload[6]
	if h.kind != KindTrace && h.kind != KindChaos {
		return h, fmt.Errorf("%w: facts unknown kind %d", ErrCorrupt, h.kind)
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

// decodeChaos validates the five row columns and rebuilds the probe
// and answer tables in first-appearance row order, so the partition
// equals the one the builder coded. Tables are keyed on whole tuples:
// a probe ID under two countries is two probes, and a TXT under two
// letters two answers, so every valid payload decodes to one that
// re-encodes to the same bytes.
func decodeChaos(payload []byte, h frameHead) (*atlas.ChaosPartition, error) {
	rows := h.rows
	want := pad8(4*rows) + pad8(4*rows) + pad8(2*rows) + pad8(2*rows) + pad8(rows)
	if len(payload)-h.off != want {
		return nil, fmt.Errorf("%w: facts chaos payload %d bytes, want %d after header", ErrCorrupt, len(payload)-h.off, want)
	}
	ids, off, err := section(payload, h.off, 4*rows)
	if err != nil {
		return nil, err
	}
	txts, off, err := section(payload, off, 4*rows)
	if err != nil {
		return nil, err
	}
	ccs, off, err := section(payload, off, 2*rows)
	if err != nil {
		return nil, err
	}
	sites, off, err := section(payload, off, 2*rows)
	if err != nil {
		return nil, err
	}
	letters, _, err := section(payload, off, rows)
	if err != nil {
		return nil, err
	}
	p := &atlas.ChaosPartition{
		Month:  h.month,
		Probe:  make([]uint16, rows),
		Answer: make([]uint16, rows),
		Dict:   h.dict,
	}
	ndict := len(p.Dict)
	// The indexes key on tuples packed into a uint64, which hashes far
	// faster than the structs; their hints are bounded by rows, as
	// every allocation here is. Before an index lookup a row tries the
	// code its predecessor suggests, the next probe and the same
	// answer: letter-major, probe-minor rows mostly repeat the probe
	// order and run the same site.
	probes := make(map[uint64]uint16, min(rows, 512))
	answers := make(map[uint64]uint16, min(rows, 256))
	nextProbe, lastAnswer := 0, 0
	for i := range rows {
		pr := atlas.ChaosProbe{
			ID: int32(binary.LittleEndian.Uint32(ids[4*i:])),
			CC: binary.LittleEndian.Uint16(ccs[2*i:]),
		}
		if pr.ID < 0 {
			return nil, fmt.Errorf("%w: facts negative probe ID", ErrCorrupt)
		}
		if int(pr.CC) >= ndict {
			return nil, fmt.Errorf("%w: facts cc code %d outside dictionary", ErrCorrupt, pr.CC)
		}
		// Check the stored TXT code before narrowing it: a bare uint16
		// of 0x10000 would be a valid 0.
		txt := binary.LittleEndian.Uint32(txts[4*i:])
		if uint64(txt) >= uint64(ndict) {
			return nil, fmt.Errorf("%w: facts txt code %d outside dictionary", ErrCorrupt, txt)
		}
		an := atlas.ChaosAnswer{Letter: letters[i], TXT: uint16(txt), SiteCC: binary.LittleEndian.Uint16(sites[2*i:])}
		if an.SiteCC != atlas.DictNone && int(an.SiteCC) >= ndict {
			return nil, fmt.Errorf("%w: facts siteCC code %d outside dictionary", ErrCorrupt, an.SiteCC)
		}
		if an.Letter < 'A' || an.Letter > 'M' {
			return nil, fmt.Errorf("%w: facts letter %d outside A-M", ErrCorrupt, an.Letter)
		}
		if nextProbe == len(p.Probes) {
			nextProbe = 0
		}
		c, ok := tableCode(&p.Probes, probes, nextProbe, pr, uint64(uint32(pr.ID))<<16|uint64(pr.CC))
		if !ok {
			return nil, fmt.Errorf("%w: facts chaos partition has more than %d distinct probes", ErrCorrupt, atlas.MaxChaosCodes)
		}
		p.Probe[i], nextProbe = c, int(c)+1
		c, ok = tableCode(&p.Answers, answers, lastAnswer, an, uint64(an.Letter)<<32|uint64(an.TXT)<<16|uint64(an.SiteCC))
		if !ok {
			return nil, fmt.Errorf("%w: facts chaos partition has more than %d distinct answers", ErrCorrupt, atlas.MaxChaosCodes)
		}
		p.Answer[i], lastAnswer = c, int(c)
	}
	p.Probes = slices.Clone(p.Probes)
	p.Answers = slices.Clone(p.Answers)
	return p, nil
}

// tableCode returns v's code in *table, whose entries are distinct:
// guess when that entry is v, else the code index holds under key,
// else a new code, appending v. It reports false when the table
// already holds atlas.MaxChaosCodes entries.
func tableCode[T comparable](table *[]T, index map[uint64]uint16, guess int, v T, key uint64) (uint16, bool) {
	if guess < len(*table) && (*table)[guess] == v {
		return uint16(guess), true
	}
	if c, ok := index[key]; ok {
		return c, true
	}
	if len(*table) >= atlas.MaxChaosCodes {
		return 0, false
	}
	c := uint16(len(*table))
	index[key] = c
	*table = append(*table, v)
	return c, true
}

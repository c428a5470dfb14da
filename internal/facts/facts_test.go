package facts

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"vzlens/internal/atlas"
	"vzlens/internal/months"
	"vzlens/internal/world"
)

// testConfig keeps lake-building tests fast: a two-year window at a
// quarterly step is 8 trace and 8 chaos partitions.
func testConfig() world.Config {
	return world.Config{
		TraceStart: months.MustParse("2018-01"),
		TraceEnd:   months.MustParse("2019-10"),
		ChaosStart: months.MustParse("2018-01"),
		ChaosEnd:   months.MustParse("2019-10"),
		Step:       3,
		Workers:    4,
	}
}

func testWorld(t testing.TB) *world.World {
	t.Helper()
	w, err := world.Build(testConfig())
	if err != nil {
		t.Fatalf("build world: %v", err)
	}
	return w
}

func builtLake(t testing.TB, w *world.World) *Lake {
	t.Helper()
	l, err := Open(t.TempDir(), w.Config.Scope())
	if err != nil {
		t.Fatalf("open lake: %v", err)
	}
	if err := l.BuildFrom(w, w.TraceCampaign(), w.ChaosCampaign()); err != nil {
		t.Fatalf("build lake: %v", err)
	}
	return l
}

func TestTracePartitionRoundTrip(t *testing.T) {
	p := &atlas.TracePartition{
		Month:   months.MustParse("2020-05"),
		RTT:     []float64{1.5, 2.25, 99.875},
		ProbeID: []int32{7, 7, 9},
		CC:      []uint16{0, 0, 1},
		Hops:    []uint8{3, 3, 254},
		Dict:    []string{"VE", "BR"},
	}
	tp, cp, err := DecodePartition(EncodeTracePartition(p))
	if err != nil || cp != nil {
		t.Fatalf("decode: tp=%v cp=%v err=%v", tp, cp, err)
	}
	if !reflect.DeepEqual(tp, p) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", tp, p)
	}
}

func TestChaosPartitionRoundTrip(t *testing.T) {
	p := &atlas.ChaosPartition{
		Month:  months.MustParse("2021-11"),
		Probe:  []uint16{0, 1, 2},
		Answer: []uint16{0, 1, 2},
		Probes: []atlas.ChaosProbe{{ID: 1, CC: 1}, {ID: 2, CC: 1}, {ID: 3, CC: 3}},
		Answers: []atlas.ChaosAnswer{
			{Letter: 'A', TXT: 0, SiteCC: 3},
			{Letter: 'K', TXT: 2, SiteCC: atlas.DictNone},
			{Letter: 'M', TXT: 2, SiteCC: 1},
		},
		Dict: []string{"ccs1-ccs2", "VE", "mia1-ccs3", "US"},
	}
	tp, cp, err := DecodePartition(EncodeChaosPartition(p))
	if err != nil || tp != nil {
		t.Fatalf("decode: tp=%v cp=%v err=%v", tp, cp, err)
	}
	if !reflect.DeepEqual(cp, p) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", cp, p)
	}
}

// TestChaosPartitionTuplesRoundTrip round-trips a coded partition in
// which one probe ID reports from two countries and one TXT answers
// for two letters: decode keys its tables on whole tuples, so it
// rebuilds the coder's partition exactly, re-encodes to the same bytes
// and gives back the rows the partition was coded from.
func TestChaosPartitionTuplesRoundTrip(t *testing.T) {
	m := months.MustParse("2022-03")
	rows := []atlas.ChaosResult{
		{Month: m, ProbeID: 7, ProbeCC: "VE", Letter: 'L', TXT: "x"},
		{Month: m, ProbeID: 7, ProbeCC: "CO", Letter: 'L', TXT: "x"}, // probe 7 in a second country
		{Month: m, ProbeID: 8, ProbeCC: "CO", Letter: 'K', TXT: "x"}, // "x" under a second letter
		{Month: m, ProbeID: 7, ProbeCC: "VE", Letter: 'K', TXT: "x"},
		{Month: m, ProbeID: 9, ProbeCC: "VE", Letter: 'L', TXT: "CO"}, // a TXT that is also a country
	}
	p := atlas.NewChaosPartition(m, rows)
	if len(p.Probes) != 4 || len(p.Answers) != 3 {
		t.Fatalf("coded %d probes and %d answers, want 4 and 3", len(p.Probes), len(p.Answers))
	}
	enc := EncodeChaosPartition(p)
	_, cp, err := DecodePartition(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cp, p) {
		t.Fatalf("decoded partition differs from the coded one:\n got %+v\nwant %+v", cp, p)
	}
	if again := EncodeChaosPartition(cp); !bytes.Equal(again, enc) {
		t.Fatal("Encode(Decode(Encode(p))) differs from Encode(p)")
	}
	if got := atlas.NewChaosCampaignOf([]*atlas.ChaosPartition{cp}).Results(); !reflect.DeepEqual(got, rows) {
		t.Fatalf("Results = %v, want %v", got, rows)
	}
}

func TestEmptyPartitionsRoundTrip(t *testing.T) {
	tp0 := &atlas.TracePartition{Month: 1, RTT: []float64{}, ProbeID: []int32{}, CC: []uint16{}, Hops: []uint8{}, Dict: []string{}}
	if _, _, err := DecodePartition(EncodeTracePartition(tp0)); err != nil {
		t.Fatalf("empty trace partition: %v", err)
	}
	cp0 := &atlas.ChaosPartition{Month: 1, Probe: []uint16{}, Answer: []uint16{}, Dict: []string{}}
	if _, _, err := DecodePartition(EncodeChaosPartition(cp0)); err != nil {
		t.Fatalf("empty chaos partition: %v", err)
	}
}

// chaosTableOverflow encodes a structurally valid chaos payload of
// 1<<16 rows, every row a distinct probe (distinct == "probes") or a
// distinct answer (distinct == "answers"): one past what a row's
// uint16 codes can index.
func chaosTableOverflow(distinct string) []byte {
	const rows = 1 << 16
	dict := make([]string, 256)
	for i := range dict {
		dict[i] = fmt.Sprintf("s%d", i)
	}
	p := &atlas.ChaosPartition{
		Month:   months.MustParse("2020-01"),
		Probe:   make([]uint16, rows),
		Answer:  make([]uint16, rows),
		Probes:  []atlas.ChaosProbe{{ID: 1, CC: 0}},
		Answers: []atlas.ChaosAnswer{{Letter: 'L', TXT: 1, SiteCC: atlas.DictNone}},
		Dict:    dict,
	}
	payload := EncodeChaosPartition(p)
	idOff := pad8(frameHeaderSize + dictBlobLen(dict))
	txtOff := idOff + pad8(4*rows)
	siteOff := txtOff + pad8(4*rows) + pad8(2*rows)
	for i := range rows {
		if distinct == "probes" {
			binary.LittleEndian.PutUint32(payload[idOff+4*i:], uint32(i))
		} else {
			binary.LittleEndian.PutUint32(payload[txtOff+4*i:], uint32(i&0xFF))
			binary.LittleEndian.PutUint16(payload[siteOff+2*i:], uint16(i>>8))
		}
	}
	return payload
}

// TestDecodeCorrupt drives structural mutations through DecodePartition
// and expects every one to surface ErrCorrupt, never a panic or a
// silent success.
func TestDecodeCorrupt(t *testing.T) {
	valid := EncodeTracePartition(&atlas.TracePartition{
		Month:   months.MustParse("2020-01"),
		RTT:     []float64{1, 2},
		ProbeID: []int32{4, 5},
		CC:      []uint16{0, 0},
		Hops:    []uint8{1, 1},
		Dict:    []string{"VE"},
	})
	mutate := func(off int, b byte) []byte {
		out := append([]byte(nil), valid...)
		out[off] = b
		return out
	}
	zeroMonth := append([]byte(nil), valid...)
	for i := 8; i < 16; i++ {
		zeroMonth[i] = 0
	}
	// A cc code pointing past the dictionary: encode never validates
	// codes (the kernel cannot produce bad ones), decode must.
	badCC := EncodeTracePartition(&atlas.TracePartition{
		Month: months.MustParse("2020-01"), RTT: []float64{1},
		ProbeID: []int32{4}, CC: []uint16{9}, Hops: []uint8{1}, Dict: []string{"VE"},
	})
	// A chaos txt code one past uint16: the column stores 4 bytes, the
	// decoded partition 2, so a narrowing decode would read a valid 0.
	badTXT := EncodeChaosPartition(&atlas.ChaosPartition{
		Month: months.MustParse("2020-01"), Probe: []uint16{0}, Answer: []uint16{0},
		Probes:  []atlas.ChaosProbe{{ID: 4, CC: 0}},
		Answers: []atlas.ChaosAnswer{{Letter: 'L', TXT: 0, SiteCC: atlas.DictNone}},
		Dict:    []string{"VE"},
	})
	txtOff := pad8(frameHeaderSize+dictBlobLen([]string{"VE"})) + pad8(4)
	binary.LittleEndian.PutUint32(badTXT[txtOff:], 0x10000)
	cases := map[string][]byte{
		"empty":           {},
		"short header":    valid[:16],
		"bad magic":       mutate(0, 'X'),
		"bad version":     mutate(4, 9),
		"bad kind":        mutate(6, 7),
		"reserved set":    mutate(7, 1),
		"zero month":      zeroMonth,
		"huge rows":       mutate(16, 0xFF),
		"huge dict":       mutate(20, 0xFF),
		"truncated":       valid[:len(valid)-8],
		"cc out of dict":  badCC,
		"txt out of dict": badTXT,
		"trailing bytes":  append(append([]byte(nil), valid...), 0, 0, 0, 0, 0, 0, 0, 0),
		// Row codes are uint16: a partition cannot hold 1<<16 distinct
		// probes or answers.
		"too many probes":  chaosTableOverflow("probes"),
		"too many answers": chaosTableOverflow("answers"),
	}
	for name, payload := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := DecodePartition(payload)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got err=%v, want ErrCorrupt", name, err)
		}
		// Decoding costs O(len(payload)), whatever the header claims: a
		// 13-byte chaos row can add one table entry and map key.
		if n := after.TotalAlloc - before.TotalAlloc; n > 16*uint64(len(payload))+64<<10 {
			t.Errorf("%s: decoding a %d-byte payload allocated %d bytes", name, len(payload), n)
		}
	}
}

// TestPartitionEncodingPinned pins the VZFC encodings of the Step-3
// world's campaigns, month by month, so a lake written by an earlier
// build of the coder reloads to the same partitions: the sha256 over
// the encoded partitions in month order, per kind.
func TestPartitionEncodingPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates both Step-3 campaigns")
	}
	w, err := world.Build(world.Config{Step: 3})
	if err != nil {
		t.Fatal(err)
	}
	traceSum, chaosSum := sha256.New(), sha256.New()
	traceRows, chaosRows := 0, 0
	for _, p := range w.TraceCampaign().Partitions() {
		traceSum.Write(EncodeTracePartition(p))
		traceRows += p.Rows()
	}
	for _, p := range w.ChaosCampaign().Partitions() {
		chaosSum.Write(EncodeChaosPartition(p))
		chaosRows += p.Rows()
	}
	pins := []struct {
		kind       string
		rows, want int
		sum, pin   string
	}{
		{"trace", traceRows, 41613, hex.EncodeToString(traceSum.Sum(nil)), "8b8fa04e6401e554b6aed5128d376fc469cccee889b7bfc2d998a7a8f14123ec"},
		{"chaos", chaosRows, 159224, hex.EncodeToString(chaosSum.Sum(nil)), "2a2d6860b300a8b850ec77cfb49e25b31808f7edb87dc4a30437db280a57271c"},
	}
	for _, p := range pins {
		if p.rows != p.want {
			t.Errorf("%s: %d rows, want %d", p.kind, p.rows, p.want)
		}
		if p.sum != p.pin {
			t.Errorf("%s: encodings hash to %s, want %s", p.kind, p.sum, p.pin)
		}
	}
}

// TestBuildReconstructsCampaigns is the lake's core contract: campaigns
// rebuilt from the segments are byte-identical to the campaigns
// the lake was built from.
func TestBuildReconstructsCampaigns(t *testing.T) {
	w := testWorld(t)
	l := builtLake(t, w)

	wantTrace := w.TraceCampaign().Samples()
	wantChaos := w.ChaosCampaign().Results()

	// Reopen cold: everything must come off disk, not the build's memory.
	l2, err := Open(l.Dir(), w.Config.Scope())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if !l2.Ready() {
		t.Fatal("reopened lake not ready")
	}
	gotTC, err := l2.TraceCampaign()
	if err != nil {
		t.Fatalf("reconstruct trace: %v", err)
	}
	gotCC, err := l2.ChaosCampaign()
	if err != nil {
		t.Fatalf("reconstruct chaos: %v", err)
	}
	if got := gotTC.Samples(); !reflect.DeepEqual(got, wantTrace) {
		t.Fatalf("trace reconstruction diverges: %d rows vs %d", len(got), len(wantTrace))
	}
	if got := gotCC.Results(); !reflect.DeepEqual(got, wantChaos) {
		t.Fatalf("chaos reconstruction diverges: %d rows vs %d", len(got), len(wantChaos))
	}
}

// TestPartitionPruning pins the decode counter: touching one month
// decodes one partition, a repeat touch decodes none.
func TestPartitionPruning(t *testing.T) {
	w := testWorld(t)
	l := builtLake(t, w)
	l2, err := Open(l.Dir(), w.Config.Scope())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	m := l2.TraceMonths()[1]
	if _, err := l2.TracePart(m); err != nil {
		t.Fatalf("part: %v", err)
	}
	if got := l2.Decodes(); got != 1 {
		t.Fatalf("one month touched, %d partitions decoded", got)
	}
	if _, err := l2.TracePart(m); err != nil {
		t.Fatalf("part: %v", err)
	}
	if got := l2.Decodes(); got != 1 {
		t.Fatalf("warm re-read decoded again: %d", got)
	}
	if p, err := l2.TracePart(m + 1); p != nil || err != nil {
		t.Fatalf("uncommitted month returned %v, %v", p, err)
	}
}

// corruptFrame XORs mask into the middle byte of cell's frame in its
// segment and returns the segment's path.
func corruptFrame(t *testing.T, cell *partCell, mask byte) string {
	t.Helper()
	raw, err := os.ReadFile(cell.path)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	raw[cell.off+cell.n/2] ^= mask
	if err := os.WriteFile(cell.path, raw, 0o644); err != nil {
		t.Fatalf("write corrupt segment: %v", err)
	}
	return cell.path
}

// TestQuarantineCorruptPartition flips bytes in a committed partition's
// frame and expects ErrCorrupt plus a quarantined segment.
func TestQuarantineCorruptPartition(t *testing.T) {
	w := testWorld(t)
	l := builtLake(t, w)
	m := l.TraceMonths()[0]
	path := corruptFrame(t, l.state().trace[m], 0xFF)
	l2, err := Open(l.Dir(), w.Config.Scope())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, err := l2.TracePart(m); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt partition: err=%v, want ErrCorrupt", err)
	}
	if got := l2.Quarantines(); got != 1 {
		t.Fatalf("quarantine count %d, want 1", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt partition still in place: %v", err)
	}
	entries, err := os.ReadDir(filepath.Join(l.Dir(), "quarantine"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("quarantine dir: %v entries, err=%v", len(entries), err)
	}
	// The error is sticky for the generation, but a rebuild recovers.
	if err := l2.Build(context.Background(), w); err != nil {
		t.Fatalf("rebuild after quarantine: %v", err)
	}
	if _, err := l2.TracePart(m); err != nil {
		t.Fatalf("partition still failing after rebuild: %v", err)
	}
}

// TestQuarantineFallsBackToRemoval: when the quarantine directory
// cannot be created (a regular file sits at its path), the segment
// holding a corrupt partition is removed instead of left in place, so
// a reopen does not hit it again.
func TestQuarantineFallsBackToRemoval(t *testing.T) {
	w := testWorld(t)
	l := builtLake(t, w)
	if err := os.WriteFile(filepath.Join(l.Dir(), "quarantine"), []byte("not a directory"), 0o644); err != nil {
		t.Fatalf("block quarantine dir: %v", err)
	}
	m := l.ChaosMonths()[0]
	path := corruptFrame(t, l.state().chaos[m], 0xFF)
	l2, err := Open(l.Dir(), w.Config.Scope())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, err := l2.ChaosPart(m); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt partition: err=%v, want ErrCorrupt", err)
	}
	if got := l2.Quarantines(); got != 1 {
		t.Fatalf("quarantine count %d, want 1", got)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt partition still in place: %v", err)
	}
}

// TestScopeMismatch: a lake built under one configuration must never be
// served to a world with another.
func TestScopeMismatch(t *testing.T) {
	w := testWorld(t)
	l := builtLake(t, w)
	l2, err := Open(l.Dir(), "seed999-other-scope")
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if l2.Ready() {
		t.Fatal("lake with mismatched scope reported ready")
	}
	if err := l2.Build(context.Background(), w); err == nil {
		t.Fatal("build accepted a world whose scope differs from the lake's")
	}
}

func TestDimensions(t *testing.T) {
	// offset samples the two campaigns on different calendar months
	// (trace Jan/Apr/Jul/Oct, CHAOS Feb/May/Aug/Nov) and ends CHAOS
	// after the last trace month, as the served config does.
	offset := testConfig()
	offset.ChaosStart = months.MustParse("2018-02")
	offset.ChaosEnd = months.MustParse("2019-11")
	for _, cfg := range []world.Config{testConfig(), offset} {
		w, err := world.Build(cfg)
		if err != nil {
			t.Fatalf("build world: %v", err)
		}
		checkDimensions(t, w)
	}
}

// checkDimensions checks w's dimension tables against the live world.
func checkDimensions(t *testing.T, w *world.World) {
	t.Helper()
	dims := BuildDimensions(w)
	if len(dims.Probes) != w.Fleet.Len() {
		t.Fatalf("probe dimension has %d rows, fleet has %d", len(dims.Probes), w.Fleet.Len())
	}
	m := months.MustParse("2019-04")
	if got, want := dims.ActiveProbes(m, "", 0), len(w.Fleet.ActiveAt(m)); got != want {
		t.Fatalf("active probes at %s: dim %d, fleet %d", m, got, want)
	}
	if got, want := dims.ActiveProbes(m, "VE", 0), len(w.Fleet.ActiveIn("VE", m)); got != want {
		t.Fatalf("active VE probes at %s: dim %d, fleet %d", m, got, want)
	}
}

// TestBuildIngestedCampaign builds a lake from a campaign ingested
// outside the kernel: it takes the kernel's path, and its partitions
// record zero hops.
func TestBuildIngestedCampaign(t *testing.T) {
	w := testWorld(t)
	l, err := Open(t.TempDir(), w.Config.Scope())
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := months.MustParse("2020-01"), months.MustParse("2020-02")
	ingested := atlas.NewTraceCampaign()
	for _, s := range []atlas.TraceSample{
		{Month: m1, ProbeID: 1, ProbeCC: "VE", RTTms: 10},
		{Month: m2, ProbeID: 1, ProbeCC: "VE", RTTms: 11},
		{Month: m1, ProbeID: 2, ProbeCC: "BR", RTTms: 12},
	} {
		ingested.Add(s)
	}
	if err := l.BuildFrom(w, ingested, atlas.NewChaosCampaign()); err != nil {
		t.Fatalf("build lake: %v", err)
	}
	l2, err := Open(l.Dir(), w.Config.Scope())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := l2.TraceMonths(); len(got) != 2 || got[0] != m1 || got[1] != m2 {
		t.Fatalf("ingested months: %v", got)
	}
	if got := l2.ChaosMonths(); len(got) != 0 {
		t.Fatalf("empty chaos campaign recorded months %v", got)
	}
	tp, err := l2.TracePart(m1)
	if err != nil || tp.Rows() != 2 {
		t.Fatalf("month 1 partition: %+v, err=%v", tp, err)
	}
	if tp.Hops[0] != 0 {
		t.Fatalf("external ingest should record zero hops, got %d", tp.Hops[0])
	}
}

// TestCampaignReconstructionAllocs pins the lake's campaign assembly to
// a fixed allocation count however many months the lake holds: the
// campaign is the decoded partitions, so assembling it allocates the
// partition list and the campaign, never a row.
func TestCampaignReconstructionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates AllocsPerRun")
	}
	long := testConfig()
	long.TraceStart = months.MustParse("2017-01")
	long.ChaosStart = months.MustParse("2017-01")
	wLong, err := world.Build(long)
	if err != nil {
		t.Fatalf("build world: %v", err)
	}
	short, full := builtLake(t, testWorld(t)), builtLake(t, wLong)
	if n := len(full.TraceMonths()); n < 10 {
		t.Fatalf("long lake holds %d trace months, want >= 10", n)
	}
	if len(short.ChaosMonths()) >= len(full.ChaosMonths()) {
		t.Fatalf("short lake (%d months) is not shorter than the long one (%d)", len(short.ChaosMonths()), len(full.ChaosMonths()))
	}

	// allocs measures one reconstruction on a warm lake: the first call
	// decodes every partition, so the measured runs see only the rebuild.
	// The collector is held off while measuring: runtime work that runs
	// after a GC cycle allocates too, and landing inside the window it
	// would read as a fourth allocation.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(l *Lake) (trace, chaos float64) {
		if _, err := l.TraceCampaign(); err != nil {
			t.Fatal(err)
		}
		if _, err := l.ChaosCampaign(); err != nil {
			t.Fatal(err)
		}
		trace = testing.AllocsPerRun(5, func() {
			if _, err := l.TraceCampaign(); err != nil {
				t.Fatal(err)
			}
		})
		chaos = testing.AllocsPerRun(5, func() {
			if _, err := l.ChaosCampaign(); err != nil {
				t.Fatal(err)
			}
		})
		return trace, chaos
	}
	shortTrace, shortChaos := allocs(short)
	longTrace, longChaos := allocs(full)
	if longTrace != shortTrace {
		t.Errorf("TraceCampaign allocs grow with months: %d months %.0f, %d months %.0f",
			len(short.TraceMonths()), shortTrace, len(full.TraceMonths()), longTrace)
	}
	if longChaos != shortChaos {
		t.Errorf("ChaosCampaign allocs grow with months: %d months %.0f, %d months %.0f",
			len(short.ChaosMonths()), shortChaos, len(full.ChaosMonths()), longChaos)
	}
	// The partition list and the campaign, with one to spare.
	const budget = 3
	if longTrace > budget || longChaos > budget {
		t.Errorf("reconstruction allocs trace %.0f, chaos %.0f; want <= %d each", longTrace, longChaos, budget)
	}
}

// TestLakeCampaignsSharePartitions pins the lake-built campaigns to the
// lake's own partitions: month for month, the campaign holds the
// pointer ChaosPart / TracePart return, and those are the partitions of
// the campaigns BuildFrom was given, so serving a campaign keeps no
// second copy of its facts and the build decodes nothing it wrote.
func TestLakeCampaignsSharePartitions(t *testing.T) {
	w := testWorld(t)
	built, builtChaos := w.TraceCampaign(), w.ChaosCampaign()
	l, err := Open(t.TempDir(), w.Config.Scope())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.BuildFrom(w, built, builtChaos); err != nil {
		t.Fatal(err)
	}
	tc, err := l.TraceCampaign()
	if err != nil {
		t.Fatal(err)
	}
	cc, err := l.ChaosCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(tc.Partitions()), len(l.TraceMonths()); got != want || got != len(built.Partitions()) {
		t.Fatalf("trace campaign holds %d partitions, lake %d, built from %d", got, want, len(built.Partitions()))
	}
	for i, m := range l.TraceMonths() {
		p, err := l.TracePart(m)
		if err != nil {
			t.Fatal(err)
		}
		if tc.Partitions()[i] != p {
			t.Errorf("trace %s: campaign partition is not the lake's", m)
		}
		if built.Partitions()[i] != p {
			t.Errorf("trace %s: lake partition is not the one it was built from", m)
		}
	}
	if got, want := len(cc.Partitions()), len(l.ChaosMonths()); got != want || got != len(builtChaos.Partitions()) {
		t.Fatalf("chaos campaign holds %d partitions, lake %d, built from %d", got, want, len(builtChaos.Partitions()))
	}
	for i, m := range l.ChaosMonths() {
		p, err := l.ChaosPart(m)
		if err != nil {
			t.Fatal(err)
		}
		if cc.Partitions()[i] != p {
			t.Errorf("chaos %s: campaign partition is not the lake's", m)
		}
		if builtChaos.Partitions()[i] != p {
			t.Errorf("chaos %s: lake partition is not the one it was built from", m)
		}
	}
	if n := l.Decodes(); n != 0 {
		t.Errorf("the build's own generation decoded %d partitions, want 0", n)
	}
}

package facts

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vzlens/internal/atlas"
	"vzlens/internal/months"
	"vzlens/internal/resultstore"
	"vzlens/internal/world"
)

// Lake is the on-disk fact lake. A generation is three files: one
// segment per fact table holding that table's month partitions as
// VZRS-framed VZFC partitions back to back, and a manifest recording
// the world-configuration scope that produced them, where each month's
// frame sits in its segment, and the dimension rows. Reads are
// pruned structurally — a partition outside the queried month window
// is never read, let alone decoded — and decoded partitions cache in
// memory, so a warm query touches no disk and allocates almost
// nothing. A corrupt partition quarantines its segment on first touch
// and is reported as ErrCorrupt; the next build rewrites the lake. All
// methods are safe for concurrent use, including queries racing a
// rebuild: readers resolve one immutable state snapshot per call and
// rebuilds swap the snapshot atomically.
type Lake struct {
	dir   string
	scope string

	mu sync.RWMutex
	st *lakeState

	buildMu sync.Mutex // serializes builds; readers never wait on it

	decodes     atomic.Uint64
	quarantines atomic.Uint64
}

// manifest commits a lake generation: it is written last, after both
// segments it names are durable, so a crash mid-build leaves the
// previous manifest (or none) and never a manifest naming missing
// segments. The generation number names the segments; the dimensions
// ride in the manifest itself.
type manifest struct {
	Version    int         `json:"version"`
	Scope      string      `json:"scope"`
	Generation uint64      `json:"generation"`
	Trace      []frameRef  `json:"trace"`
	Chaos      []frameRef  `json:"chaos"`
	Dims       *Dimensions `json:"dims"`
}

// frameRef locates one month's frame in its table's segment.
type frameRef struct {
	Month  string `json:"month"`
	Offset int64  `json:"offset"`
	Length int64  `json:"length"`
}

// manifestVersion 3 is the segment layout with the dimensions in the
// manifest and chaos frames at VZFC version 2. An older lake — version
// 1 (one file per partition) or 2 (a separate dimension document and
// five-column chaos frames) — opens as not ready and the next build
// replaces it.
const manifestVersion = 3

const manifestName = "manifest.vzr"

// lakeState is one immutable generation of the lake: the manifest's
// month lists, the dimensions, and one lazily-decoded cell per
// partition.
type lakeState struct {
	gen         uint64
	traceMonths []months.Month
	chaosMonths []months.Month
	dims        *Dimensions
	trace       map[months.Month]*partCell
	chaos       map[months.Month]*partCell
}

// partCell decodes its partition exactly once, even under concurrent
// queries, unless BuildFrom seeded it with the partition; err is sticky
// (a quarantined partition stays failed until a rebuild swaps the
// state). The partition's frame is bytes [off, off+n) of the segment
// at path.
type partCell struct {
	path   string
	off, n int64
	once   sync.Once
	tp     *atlas.TracePartition
	cp     *atlas.ChaosPartition
	err    error
}

// Open attaches to a lake directory, loading the manifest when one
// exists and its version and scope match. A missing, corrupt, older or
// mismatched lake leaves the Lake empty (Ready reports false) rather
// than failing: Build recreates it.
func Open(dir, scope string) (*Lake, error) {
	if dir == "" {
		return nil, errors.New("facts: empty lake directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("facts: create lake dir: %w", err)
	}
	l := &Lake{dir: dir, scope: scope, st: &lakeState{}}
	if st, err := loadState(dir, scope); err == nil && st != nil {
		l.st = st
	}
	return l, nil
}

// Dir returns the lake directory.
func (l *Lake) Dir() string { return l.dir }

// Ready reports whether a committed lake generation is loaded.
func (l *Lake) Ready() bool {
	st := l.state()
	return st.dims != nil
}

// Decodes returns the number of partitions decoded since Open — the
// counter the pruning tests assert against: a month-window query must
// move it by at most the number of in-window partitions, and a warm
// repeat must not move it at all.
func (l *Lake) Decodes() uint64 { return l.decodes.Load() }

// Quarantines returns the number of segments quarantined as corrupt.
func (l *Lake) Quarantines() uint64 { return l.quarantines.Load() }

func (l *Lake) state() *lakeState {
	l.mu.RLock()
	st := l.st
	l.mu.RUnlock()
	return st
}

// Build simulates w's baseline campaigns and commits them with
// BuildFrom, for callers that hold a world but no campaigns. The two
// campaigns run concurrently (world.BaselineCampaigns), so they share
// the kernel's path trees for the whole pass.
func (l *Lake) Build(ctx context.Context, w *world.World) error {
	tc, cc := w.BaselineCampaigns(ctx)
	return l.BuildFrom(w, tc, cc)
}

// BuildFrom writes a fresh lake generation's segments from the two
// campaigns (writeGeneration), then commits it with the dimensions
// derived from w and deletes the files of every earlier generation
// (commit). The new
// generation holds the campaigns' own partitions, so the lake and the
// caller share them and nothing just written is decoded again. A
// campaign ingested from outside the kernel has no hop counts; its
// partitions record zero hops. Concurrent builds serialize; queries
// keep reading the previous generation until the new one is committed.
func (l *Lake) BuildFrom(w *world.World, tc *atlas.TraceCampaign, cc *atlas.ChaosCampaign) error {
	l.buildMu.Lock()
	defer l.buildMu.Unlock()
	st, err := l.writeGeneration(w, tc, cc)
	if err != nil {
		return err
	}
	return l.commit(st)
}

// writeGeneration writes a generation's segments without committing
// it: each fact table's partitions, month by month, as the frames of
// one segment, the two tables encoded and written concurrently, each
// segment fsynced and renamed, and then the directory fsynced once. It
// returns the state that serves them, its cells already holding the
// partitions their frames encode.
func (l *Lake) writeGeneration(w *world.World, tc *atlas.TraceCampaign, cc *atlas.ChaosCampaign) (*lakeState, error) {
	if w.Config.Scope() != l.scope {
		return nil, fmt.Errorf("facts: world scope %q does not match lake scope %q", w.Config.Scope(), l.scope)
	}
	gen := uint64(time.Now().UnixNano())
	if prev := l.state().gen; gen <= prev {
		gen = prev + 1
	}
	st := newState(gen, BuildDimensions(w))

	cparts := cc.Partitions()
	var (
		chaosCells []*partCell
		chaosErr   error
		wg         sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		chaosCells, chaosErr = writeSegment(filepath.Join(l.dir, segmentName(KindChaos, gen)), len(cparts),
			func(i int) []byte { return EncodeChaosPartition(cparts[i]) })
	}()
	tparts := tc.Partitions()
	traceCells, traceErr := writeSegment(filepath.Join(l.dir, segmentName(KindTrace, gen)), len(tparts),
		func(i int) []byte { return EncodeTracePartition(tparts[i]) })
	wg.Wait()
	if err := cmp.Or(traceErr, chaosErr); err != nil {
		return nil, err
	}
	for i, p := range tparts {
		traceCells[i].tp = p
		st.traceMonths = append(st.traceMonths, p.Month)
		st.trace[p.Month] = traceCells[i]
	}
	for i, p := range cparts {
		chaosCells[i].cp = p
		st.chaosMonths = append(st.chaosMonths, p.Month)
		st.chaos[p.Month] = chaosCells[i]
	}
	resultstore.SyncDir(l.dir)
	return st, nil
}

// writeSegment writes the n payloads encode returns, in order, as the
// frames of the segment at path and returns one cell per frame, marked
// decoded: the caller seeds each with the partition its frame encodes.
func writeSegment(path string, n int, encode func(i int) []byte) ([]*partCell, error) {
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = encode(i)
	}
	ends, err := resultstore.ReplaceEntries(path, payloads)
	if err != nil {
		return nil, err
	}
	cells := make([]*partCell, len(ends))
	off := int64(0)
	for i, end := range ends {
		cells[i] = &partCell{path: path, off: off, n: end - off}
		cells[i].once.Do(func() {})
		off = end
	}
	return cells, nil
}

// commit writes the manifest describing st, swaps st in, and then
// deletes every other lake file in the directory: earlier generations,
// the files of older layouts, and temp files a crashed write left
// behind. Until the manifest's rename the previous generation stays
// whole on disk.
func (l *Lake) commit(st *lakeState) error {
	man := manifest{Version: manifestVersion, Scope: l.scope, Generation: st.gen,
		Trace: frameRefs(st.traceMonths, st.trace),
		Chaos: frameRefs(st.chaosMonths, st.chaos),
		Dims:  st.dims}
	manDoc, err := json.Marshal(man)
	if err != nil {
		return fmt.Errorf("facts: encode manifest: %w", err)
	}
	if err := resultstore.WriteAtomic(filepath.Join(l.dir, manifestName), resultstore.EncodeEntry(manDoc)); err != nil {
		return err
	}
	l.mu.Lock()
	l.st = st
	l.mu.Unlock()
	keep := map[string]bool{
		manifestName:                   true,
		segmentName(KindTrace, st.gen): true,
		segmentName(KindChaos, st.gen): true,
	}
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return nil // the generation is committed; stale files wait for the next build
	}
	for _, e := range ents {
		if name := e.Name(); e.Type().IsRegular() && !keep[name] && lakeFile(name) {
			os.Remove(filepath.Join(l.dir, name))
		}
	}
	return nil
}

// frameRefs lists, for the manifest, where each month's frame sits in
// its segment; loadCells reads them back.
func frameRefs(ms []months.Month, cells map[months.Month]*partCell) []frameRef {
	refs := make([]frameRef, len(ms))
	for i, m := range ms {
		refs[i] = frameRef{Month: m.String(), Offset: cells[m].off, Length: cells[m].n}
	}
	return refs
}

// newState returns an empty generation over dims.
func newState(gen uint64, dims *Dimensions) *lakeState {
	return &lakeState{gen: gen, dims: dims,
		trace: map[months.Month]*partCell{},
		chaos: map[months.Month]*partCell{}}
}

// segmentName names a fact table's segment: trace-<generation>.vzfs.
func segmentName(kind byte, gen uint64) string {
	if kind == KindChaos {
		return fmt.Sprintf("chaos-%016x.vzfs", gen)
	}
	return fmt.Sprintf("trace-%016x.vzfs", gen)
}

// lakeFile reports whether name is a file some lake generation wrote,
// of any layout, or a temp file left by writing one: segments, the
// manifest, version-2 dimension documents (dims-<generation>.vzr), and
// version-1 partition files (trace-2019-03.vzfp) and dimensions
// (dims.vzr). Other files in the
// directory are not the lake's and are never deleted.
func lakeFile(name string) bool {
	if i := strings.Index(name, ".tmp-"); i >= 0 {
		name = name[:i]
	}
	if name == manifestName || name == "dims.vzr" {
		return true
	}
	if strings.HasPrefix(name, "dims-") {
		return strings.HasSuffix(name, ".vzr")
	}
	if strings.HasPrefix(name, "trace-") || strings.HasPrefix(name, "chaos-") {
		return strings.HasSuffix(name, ".vzfs") || strings.HasSuffix(name, ".vzfp")
	}
	return false
}

// loadState reads the manifest of a committed lake, dimensions
// included. Returns (nil, nil) when no lake is committed or the
// committed one has another layout version or belongs to a different
// scope. A corrupt manifest is reported as an error wrapping
// ErrCorrupt and left in place: Open treats that as no lake, and the
// next Build replaces it.
func loadState(dir, scope string) (*lakeState, error) {
	manRaw, err := resultstore.ReadEntry(filepath.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var man manifest
	if err := json.Unmarshal(manRaw, &man); err != nil {
		return nil, fmt.Errorf("%w: facts manifest undecodable: %v", ErrCorrupt, err)
	}
	if man.Version != manifestVersion || man.Scope != scope {
		return nil, nil
	}
	if man.Dims == nil {
		return nil, fmt.Errorf("%w: facts manifest has no dimensions", ErrCorrupt)
	}
	man.Dims.index()
	st := newState(man.Generation, man.Dims)
	if st.traceMonths, err = loadCells(st.trace, filepath.Join(dir, segmentName(KindTrace, man.Generation)), man.Trace); err != nil {
		return nil, err
	}
	if st.chaosMonths, err = loadCells(st.chaos, filepath.Join(dir, segmentName(KindChaos, man.Generation)), man.Chaos); err != nil {
		return nil, err
	}
	return st, nil
}

// loadCells fills cells with one undecoded cell per frame of the
// segment at path and returns the frames' months, ascending.
func loadCells(cells map[months.Month]*partCell, path string, frames []frameRef) ([]months.Month, error) {
	ms := make([]months.Month, 0, len(frames))
	for _, f := range frames {
		m, err := months.Parse(f.Month)
		if err != nil {
			return nil, fmt.Errorf("%w: facts manifest month %q: %v", ErrCorrupt, f.Month, err)
		}
		ms = append(ms, m)
		cells[m] = &partCell{path: path, off: f.Offset, n: f.Length}
	}
	slices.Sort(ms)
	return ms, nil
}

// Dims returns the dimension tables, or nil when the lake is not
// ready.
func (l *Lake) Dims() *Dimensions { return l.state().dims }

// TraceMonths returns the committed trace partition months, ascending.
func (l *Lake) TraceMonths() []months.Month {
	return append([]months.Month(nil), l.state().traceMonths...)
}

// ChaosMonths returns the committed chaos partition months, ascending.
func (l *Lake) ChaosMonths() []months.Month {
	return append([]months.Month(nil), l.state().chaosMonths...)
}

// TracePart returns month m's decoded trace partition, decoding (and
// caching) it on first touch. Months without a committed partition
// return (nil, nil) — pruning and absence look the same to callers. A
// read that fails because a rebuild committed meanwhile, deleting the
// segment it read, is served from the new generation.
func (l *Lake) TracePart(m months.Month) (*atlas.TracePartition, error) {
	for {
		st := l.state()
		cell := st.trace[m]
		if cell == nil {
			return nil, nil
		}
		l.decodeCell(cell, KindTrace)
		if cell.err == nil || l.state() == st {
			return cell.tp, cell.err
		}
	}
}

// ChaosPart is TracePart for the CHAOS fact table.
func (l *Lake) ChaosPart(m months.Month) (*atlas.ChaosPartition, error) {
	for {
		st := l.state()
		cell := st.chaos[m]
		if cell == nil {
			return nil, nil
		}
		l.decodeCell(cell, KindChaos)
		if cell.err == nil || l.state() == st {
			return cell.cp, cell.err
		}
	}
}

// decodeCell reads, validates and decodes one partition's frame,
// exactly once per cell. Corruption — at either the VZRS framing or
// the VZFC columnar layer — quarantines the cell's segment so the next
// rebuild replaces it, and leaves the cell failed; the other table's
// segment stays served.
func (l *Lake) decodeCell(cell *partCell, kind byte) {
	cell.once.Do(func() {
		l.decodes.Add(1)
		payload, err := resultstore.ReadEntryAt(cell.path, cell.off, cell.n)
		if errors.Is(err, os.ErrNotExist) {
			// Manifest names it but the segment is gone (or was
			// quarantined by another month's frame): surface as
			// corruption (rebuild fixes it) but nothing to quarantine.
			cell.err = fmt.Errorf("%w: facts segment %s missing", ErrCorrupt, filepath.Base(cell.path))
			return
		}
		if err != nil {
			cell.err = l.noteCorrupt(cell.path, err)
			return
		}
		tp, cp, err := DecodePartition(payload)
		if err != nil {
			cell.err = l.noteCorrupt(cell.path, err)
			return
		}
		switch {
		case kind == KindTrace && tp != nil:
			cell.tp = tp
		case kind == KindChaos && cp != nil:
			cell.cp = cp
		default:
			cell.err = l.noteCorrupt(cell.path, fmt.Errorf("%w: facts partition kind mismatch", ErrCorrupt))
		}
	})
}

// noteCorrupt quarantines a segment holding a frame that failed
// validation (see resultstore.Quarantine) and surfaces ErrCorrupt; the
// next build rewrites it. Other errors pass through and leave the file
// alone.
func (l *Lake) noteCorrupt(path string, err error) error {
	if !errors.Is(err, ErrCorrupt) {
		return err
	}
	l.quarantines.Add(1)
	resultstore.Quarantine(path)
	return err
}

// TraceCampaign returns the full traceroute campaign over the lake's
// partitions (the ones BuildFrom was given, or decoded from disk): the
// campaign is the partitions, shared with the lake's cache rather than
// copied, so serving it costs no memory beyond the partitions. Rows are
// in kernel emission order month by month, so the campaign is
// byte-identical to the one the lake was built from — the contract the
// differential test net pins against the golden experiment tables.
func (l *Lake) TraceCampaign() (*atlas.TraceCampaign, error) {
	st := l.state()
	parts := make([]*atlas.TracePartition, 0, len(st.traceMonths))
	for _, m := range st.traceMonths {
		p, err := l.TracePart(m)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	return atlas.NewTraceCampaignOf(parts), nil
}

// ChaosCampaign is TraceCampaign for the CHAOS fact table.
func (l *Lake) ChaosCampaign() (*atlas.ChaosCampaign, error) {
	st := l.state()
	parts := make([]*atlas.ChaosPartition, 0, len(st.chaosMonths))
	for _, m := range st.chaosMonths {
		p, err := l.ChaosPart(m)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	return atlas.NewChaosCampaignOf(parts), nil
}

package facts

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vzlens/internal/atlas"
	"vzlens/internal/months"
	"vzlens/internal/resultstore"
	"vzlens/internal/world"
)

// Lake is the on-disk fact lake: one VZRS-framed VZFC partition file
// per campaign month per fact table, a dimension document, and a
// manifest recording the world-configuration scope that produced them.
// Reads are pruned structurally — a partition outside the queried month
// window is never opened, let alone decoded — and decoded partitions
// cache in memory, so a warm query touches no disk and allocates
// almost nothing. A corrupt partition is quarantined on first touch and
// reported as ErrCorrupt; the next build rewrites the lake. All
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

// Manifest commits a lake generation: it is written last, so a crash
// mid-build leaves the previous manifest (or none) and never a manifest
// naming missing partitions.
type Manifest struct {
	Version     int      `json:"version"`
	Scope       string   `json:"scope"`
	TraceMonths []string `json:"trace_months"`
	ChaosMonths []string `json:"chaos_months"`
	BuiltUnix   int64    `json:"built_unix"`
}

const manifestVersion = 1

// lakeState is one immutable generation of the lake: the manifest's
// month lists, the dimensions, and one lazily-decoded cell per
// partition.
type lakeState struct {
	traceMonths []months.Month
	chaosMonths []months.Month
	dims        *Dimensions
	trace       map[months.Month]*partCell
	chaos       map[months.Month]*partCell
}

// partCell decodes its partition exactly once, even under concurrent
// queries, unless BuildFrom seeded it with the partition; err is sticky
// (a quarantined partition stays failed until a rebuild swaps the
// state).
type partCell struct {
	path string
	once sync.Once
	tp   *atlas.TracePartition
	cp   *atlas.ChaosPartition
	err  error
}

// Open attaches to a lake directory, loading the manifest when one
// exists and its scope matches. A missing, corrupt, or mismatched lake
// leaves the Lake empty (Ready reports false) rather than failing:
// Build recreates it.
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

// Decodes returns the number of partition files decoded since Open —
// the counter the pruning tests assert against: a month-window query
// must move it by at most the number of in-window partitions, and a
// warm repeat must not move it at all.
func (l *Lake) Decodes() uint64 { return l.decodes.Load() }

// Quarantines returns the number of partitions quarantined as corrupt.
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

// BuildFrom writes a fresh lake generation from the two campaigns, one
// partition file per campaign month, then the dimensions derived from
// w, then the manifest, replacing whatever was on disk. The new
// generation holds the campaigns' own partitions, so the lake and the
// caller share them and nothing just written is decoded again. A
// campaign ingested from outside the kernel has no hop counts; its
// partitions record zero hops. Concurrent builds serialize; queries
// keep reading the previous generation until the new one is committed.
func (l *Lake) BuildFrom(w *world.World, tc *atlas.TraceCampaign, cc *atlas.ChaosCampaign) error {
	l.buildMu.Lock()
	defer l.buildMu.Unlock()
	if w.Config.Scope() != l.scope {
		return fmt.Errorf("facts: world scope %q does not match lake scope %q", w.Config.Scope(), l.scope)
	}
	man := Manifest{
		Version:   manifestVersion,
		Scope:     l.scope,
		BuiltUnix: time.Now().Unix(),
	}
	st := newState(BuildDimensions(w))
	for _, p := range tc.Partitions() {
		cell := &partCell{path: partPath(l.dir, KindTrace, p.Month), tp: p}
		if err := cell.write(EncodeTracePartition(p)); err != nil {
			return err
		}
		st.traceMonths = append(st.traceMonths, p.Month)
		st.trace[p.Month] = cell
		man.TraceMonths = append(man.TraceMonths, p.Month.String())
	}
	for _, p := range cc.Partitions() {
		cell := &partCell{path: partPath(l.dir, KindChaos, p.Month), cp: p}
		if err := cell.write(EncodeChaosPartition(p)); err != nil {
			return err
		}
		st.chaosMonths = append(st.chaosMonths, p.Month)
		st.chaos[p.Month] = cell
		man.ChaosMonths = append(man.ChaosMonths, p.Month.String())
	}
	dimsDoc, err := json.Marshal(st.dims)
	if err != nil {
		return fmt.Errorf("facts: encode dimensions: %w", err)
	}
	if err := resultstore.WriteAtomic(filepath.Join(l.dir, "dims.vzr"), resultstore.EncodeEntry(dimsDoc)); err != nil {
		return err
	}
	manDoc, err := json.Marshal(man)
	if err != nil {
		return fmt.Errorf("facts: encode manifest: %w", err)
	}
	if err := resultstore.WriteAtomic(filepath.Join(l.dir, "manifest.vzr"), resultstore.EncodeEntry(manDoc)); err != nil {
		return err
	}
	l.mu.Lock()
	l.st = st
	l.mu.Unlock()
	return nil
}

// write writes the cell's partition file from payload and marks the
// cell decoded: it already holds the partition the payload encodes.
func (c *partCell) write(payload []byte) error {
	c.once.Do(func() {})
	return resultstore.WriteAtomic(c.path, resultstore.EncodeEntry(payload))
}

// newState returns an empty generation over dims.
func newState(dims *Dimensions) *lakeState {
	return &lakeState{dims: dims,
		trace: map[months.Month]*partCell{},
		chaos: map[months.Month]*partCell{}}
}

// partPath names a partition file: trace-2019-03.vzfp.
func partPath(dir string, kind byte, m months.Month) string {
	prefix := "trace"
	if kind == KindChaos {
		prefix = "chaos"
	}
	return filepath.Join(dir, fmt.Sprintf("%s-%s.vzfp", prefix, m))
}

// loadState reads the manifest and dimensions of a committed lake.
// Returns (nil, nil) when no lake is committed or the committed one
// belongs to a different scope. A corrupt manifest or dimension
// document is reported as an error wrapping ErrCorrupt and left in
// place: Open treats that as no lake, and the next Build overwrites
// both.
func loadState(dir, scope string) (*lakeState, error) {
	manRaw, err := resultstore.ReadEntry(filepath.Join(dir, "manifest.vzr"))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var man Manifest
	if err := json.Unmarshal(manRaw, &man); err != nil {
		return nil, fmt.Errorf("%w: facts manifest undecodable: %v", ErrCorrupt, err)
	}
	if man.Version != manifestVersion || man.Scope != scope {
		return nil, nil
	}
	dimsRaw, err := resultstore.ReadEntry(filepath.Join(dir, "dims.vzr"))
	if err != nil {
		return nil, err
	}
	dims := &Dimensions{}
	if err := json.Unmarshal(dimsRaw, dims); err != nil {
		return nil, fmt.Errorf("%w: facts dimensions undecodable: %v", ErrCorrupt, err)
	}
	dims.index()
	st := newState(dims)
	for _, s := range man.TraceMonths {
		m, err := months.Parse(s)
		if err != nil {
			return nil, fmt.Errorf("%w: facts manifest month %q: %v", ErrCorrupt, s, err)
		}
		st.traceMonths = append(st.traceMonths, m)
		st.trace[m] = &partCell{path: partPath(dir, KindTrace, m)}
	}
	for _, s := range man.ChaosMonths {
		m, err := months.Parse(s)
		if err != nil {
			return nil, fmt.Errorf("%w: facts manifest month %q: %v", ErrCorrupt, s, err)
		}
		st.chaosMonths = append(st.chaosMonths, m)
		st.chaos[m] = &partCell{path: partPath(dir, KindChaos, m)}
	}
	sort.Slice(st.traceMonths, func(i, j int) bool { return st.traceMonths[i] < st.traceMonths[j] })
	sort.Slice(st.chaosMonths, func(i, j int) bool { return st.chaosMonths[i] < st.chaosMonths[j] })
	return st, nil
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
// return (nil, nil) — pruning and absence look the same to callers.
func (l *Lake) TracePart(m months.Month) (*atlas.TracePartition, error) {
	cell := l.state().trace[m]
	if cell == nil {
		return nil, nil
	}
	l.decodeCell(cell, KindTrace)
	return cell.tp, cell.err
}

// ChaosPart is TracePart for the CHAOS fact table.
func (l *Lake) ChaosPart(m months.Month) (*atlas.ChaosPartition, error) {
	cell := l.state().chaos[m]
	if cell == nil {
		return nil, nil
	}
	l.decodeCell(cell, KindChaos)
	return cell.cp, cell.err
}

// decodeCell reads, validates and decodes one partition file, exactly
// once per cell. Corruption — at either the VZRS framing or the VZFC
// columnar layer — quarantines the file so the next rebuild replaces
// it, and leaves the cell failed.
func (l *Lake) decodeCell(cell *partCell, kind byte) {
	cell.once.Do(func() {
		l.decodes.Add(1)
		payload, err := resultstore.ReadEntry(cell.path)
		if errors.Is(err, os.ErrNotExist) {
			// Manifest names it but the file is gone: surface as
			// corruption (rebuild fixes it) but nothing to quarantine.
			cell.err = fmt.Errorf("%w: facts partition %s missing", ErrCorrupt, filepath.Base(cell.path))
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

// noteCorrupt quarantines a partition that failed validation (see
// resultstore.Quarantine) and surfaces ErrCorrupt; the next build
// rewrites it. Other errors pass through and leave the file alone.
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

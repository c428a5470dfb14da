package facts

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"vzlens/internal/atlas"
	"vzlens/internal/months"
	"vzlens/internal/resultstore"
)

// lakeFiles lists the directory's regular files, sorted.
func lakeFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if e.Type().IsRegular() {
			out = append(out, e.Name())
		}
	}
	return out
}

// checkPartitionsEqual checks that every partition of l, read cold
// from disk, encodes to the bytes of the matching partition of tc and
// cc, and that l holds exactly their months.
func checkPartitionsEqual(t *testing.T, l *Lake, tc *atlas.TraceCampaign, cc *atlas.ChaosCampaign) {
	t.Helper()
	var traceMonths, chaosMonths []months.Month
	for _, p := range tc.Partitions() {
		traceMonths = append(traceMonths, p.Month)
		got, err := l.TracePart(p.Month)
		if err != nil || got == nil {
			t.Fatalf("trace %s: %v, %v", p.Month, got, err)
		}
		if !bytes.Equal(EncodeTracePartition(got), EncodeTracePartition(p)) {
			t.Fatalf("trace %s decodes to other bytes", p.Month)
		}
	}
	for _, p := range cc.Partitions() {
		chaosMonths = append(chaosMonths, p.Month)
		got, err := l.ChaosPart(p.Month)
		if err != nil || got == nil {
			t.Fatalf("chaos %s: %v, %v", p.Month, got, err)
		}
		if !bytes.Equal(EncodeChaosPartition(got), EncodeChaosPartition(p)) {
			t.Fatalf("chaos %s decodes to other bytes", p.Month)
		}
	}
	if got := l.TraceMonths(); !slices.Equal(got, traceMonths) {
		t.Fatalf("trace months %v, want %v", got, traceMonths)
	}
	if got := l.ChaosMonths(); !slices.Equal(got, chaosMonths) {
		t.Fatalf("chaos months %v, want %v", got, chaosMonths)
	}
}

// TestCrashBeforeManifestKeepsGeneration interrupts a rebuild after it
// has written its segments but before its manifest: a cold open still
// serves the previous generation, every partition decoding to the
// bytes it was built from. The next completed build leaves one
// generation of three files.
func TestCrashBeforeManifestKeepsGeneration(t *testing.T) {
	w := testWorld(t)
	l := builtLake(t, w)
	before := lakeFiles(t, l.Dir())
	if len(before) != 3 {
		t.Fatalf("a generation is %v, want three files", before)
	}

	// The interrupted rebuild holds other campaigns, so a manifest that
	// committed them would show.
	m1, m2 := months.MustParse("2020-01"), months.MustParse("2020-02")
	other := atlas.NewTraceCampaign()
	other.Add(atlas.TraceSample{Month: m1, ProbeID: 1, ProbeCC: "VE", RTTms: 10})
	other.Add(atlas.TraceSample{Month: m2, ProbeID: 1, ProbeCC: "VE", RTTms: 11})
	if _, err := l.writeGeneration(w, other, atlas.NewChaosCampaign()); err != nil {
		t.Fatalf("write uncommitted generation: %v", err)
	}
	if after := lakeFiles(t, l.Dir()); len(after) != 5 {
		t.Fatalf("after the interrupted rebuild the lake holds %v, want the old three and two new segments", after)
	}

	l2, err := Open(l.Dir(), w.Config.Scope())
	if err != nil {
		t.Fatal(err)
	}
	if !l2.Ready() {
		t.Fatal("previous generation not ready after an interrupted rebuild")
	}
	checkPartitionsEqual(t, l2, w.TraceCampaign(), w.ChaosCampaign())
	if l2.Quarantines() != 0 {
		t.Fatalf("%d segments quarantined", l2.Quarantines())
	}

	if err := l2.BuildFrom(w, w.TraceCampaign(), w.ChaosCampaign()); err != nil {
		t.Fatal(err)
	}
	after := lakeFiles(t, l.Dir())
	if len(after) != 3 {
		t.Fatalf("after a completed rebuild the lake holds %v, want three files", after)
	}
	for _, name := range after {
		if slices.Contains(before, name) && name != manifestName {
			t.Errorf("%s of the replaced generation survived the rebuild", name)
		}
	}
}

// TestOpenV1LakeRebuilds opens a directory holding a version-1 lake
// (one file per partition, a fixed-name dimension document, a temp
// file a crashed write left): it is not ready, and the next build
// replaces it, leaving no version-1 partition and no temp file, while
// a file that is not the lake's stays.
func TestOpenV1LakeRebuilds(t *testing.T) {
	w := testWorld(t)
	dir := t.TempDir()
	tc, cc := w.TraceCampaign(), w.ChaosCampaign()
	tp, cp := tc.Partitions()[0], cc.Partitions()[0]
	man, err := json.Marshal(map[string]any{
		"version":      1,
		"scope":        w.Config.Scope(),
		"trace_months": []string{tp.Month.String()},
		"chaos_months": []string{cp.Month.String()},
		"built_unix":   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	dims, err := json.Marshal(BuildDimensions(w))
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string][]byte{
		"trace-" + tp.Month.String() + ".vzfp": EncodeTracePartition(tp),
		"chaos-" + cp.Month.String() + ".vzfp": EncodeChaosPartition(cp),
		"dims.vzr":                             dims,
		manifestName:                           man,
	} {
		if err := resultstore.WriteAtomic(filepath.Join(dir, name), resultstore.EncodeEntry(payload)); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"trace-2018-04.vzfp.tmp-123", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	l, err := Open(dir, w.Config.Scope())
	if err != nil {
		t.Fatal(err)
	}
	if l.Ready() {
		t.Fatal("a version-1 lake opened as ready")
	}
	if err := l.BuildFrom(w, tc, cc); err != nil {
		t.Fatal(err)
	}
	files := lakeFiles(t, dir)
	for _, name := range files {
		if strings.HasSuffix(name, ".vzfp") || strings.Contains(name, ".tmp-") || name == "dims.vzr" {
			t.Errorf("%s survived the rebuild", name)
		}
	}
	if !slices.Contains(files, "notes.txt") {
		t.Error("the rebuild deleted a file that is not the lake's")
	}
	if len(files) != 4 {
		t.Errorf("directory holds %v, want one generation and notes.txt", files)
	}
	l2, err := Open(dir, w.Config.Scope())
	if err != nil {
		t.Fatal(err)
	}
	if !l2.Ready() {
		t.Fatal("rebuilt lake not ready on reopen")
	}
	checkPartitionsEqual(t, l2, tc, cc)
}

// TestOpenV2LakeRebuilds opens a directory holding a manifest-version-2
// lake (its dimensions in a separate dims-<generation> document beside
// the two segments): it is not ready, and the next build replaces it
// with a generation of three files, leaving no dimension document.
func TestOpenV2LakeRebuilds(t *testing.T) {
	w := testWorld(t)
	dir := t.TempDir()
	tc, cc := w.TraceCampaign(), w.ChaosCampaign()
	const gen = 0x1234
	frames := func(n int) []frameRef {
		refs := make([]frameRef, n)
		for i := range refs {
			refs[i] = frameRef{Month: months.MustParse("2018-01").Add(3 * i).String(), Offset: int64(i), Length: 1}
		}
		return refs
	}
	man, err := json.Marshal(map[string]any{
		"version":    2,
		"scope":      w.Config.Scope(),
		"generation": gen,
		"trace":      frames(len(tc.Partitions())),
		"chaos":      frames(len(cc.Partitions())),
	})
	if err != nil {
		t.Fatal(err)
	}
	dims, err := json.Marshal(BuildDimensions(w))
	if err != nil {
		t.Fatal(err)
	}
	dimsName := fmt.Sprintf("dims-%016x.vzr", gen)
	for name, payload := range map[string][]byte{
		segmentName(KindTrace, gen): EncodeTracePartition(tc.Partitions()[0]),
		segmentName(KindChaos, gen): []byte("a version-1 chaos frame"),
		dimsName:                    dims,
		manifestName:                man,
	} {
		if err := resultstore.WriteAtomic(filepath.Join(dir, name), resultstore.EncodeEntry(payload)); err != nil {
			t.Fatal(err)
		}
	}

	l, err := Open(dir, w.Config.Scope())
	if err != nil {
		t.Fatal(err)
	}
	if l.Ready() {
		t.Fatal("a version-2 lake opened as ready")
	}
	if err := l.BuildFrom(w, tc, cc); err != nil {
		t.Fatal(err)
	}
	files := lakeFiles(t, dir)
	if slices.Contains(files, dimsName) || len(files) != 3 {
		t.Errorf("directory holds %v, want one generation of three files and no %s", files, dimsName)
	}
	for _, name := range files {
		if strings.HasPrefix(name, "dims") {
			t.Errorf("%s survived the rebuild", name)
		}
	}
	l2, err := Open(dir, w.Config.Scope())
	if err != nil {
		t.Fatal(err)
	}
	if !l2.Ready() {
		t.Fatal("rebuilt lake not ready on reopen")
	}
	checkPartitionsEqual(t, l2, tc, cc)
}

// TestCorruptFrameSparesOtherTable corrupts one CHAOS frame: its
// segment is quarantined and the CHAOS table fails until a rebuild,
// while every trace partition still decodes.
func TestCorruptFrameSparesOtherTable(t *testing.T) {
	w := testWorld(t)
	l := builtLake(t, w)
	m := l.ChaosMonths()[1]
	corruptFrame(t, l.state().chaos[m], 0x01)
	l2, err := Open(l.Dir(), w.Config.Scope())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2.ChaosCampaign(); err == nil {
		t.Fatal("a corrupt CHAOS frame was served")
	}
	if _, err := l2.ChaosPart(l2.ChaosMonths()[2]); err == nil {
		t.Fatal("a CHAOS month read from a quarantined segment")
	}
	if got := l2.Quarantines(); got != 1 {
		t.Fatalf("%d quarantines, want 1", got)
	}
	tc, err := l2.TraceCampaign()
	if err != nil {
		t.Fatalf("trace table after a CHAOS corruption: %v", err)
	}
	if got, want := len(tc.Partitions()), len(w.TraceCampaign().Partitions()); got != want {
		t.Fatalf("trace table holds %d partitions, want %d", got, want)
	}
}

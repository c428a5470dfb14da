package resultstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vzlens/internal/obs"
)

// dirNames lists the names in dir, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		out = append(out, e.Name())
	}
	return out
}

func TestWriteAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.vzr")
	for _, payload := range []string{"first", "second, longer than the first"} {
		if err := WriteAtomic(path, EncodeEntry([]byte(payload))); err != nil {
			t.Fatal(err)
		}
		got, err := ReadEntry(path)
		if err != nil || string(got) != payload {
			t.Fatalf("ReadEntry = %q, %v; want %q", got, err, payload)
		}
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "x.vzr" {
		t.Errorf("directory holds %v, want only x.vzr", names)
	}
}

// TestWriteAtomicFailedRenameKeepsTarget makes the final rename fail (a
// non-empty directory sits at the target path) and checks that the old
// target is untouched and no temp file is left behind.
func TestWriteAtomicFailedRenameKeepsTarget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.vzr")
	inner := filepath.Join(path, "kept")
	if err := os.MkdirAll(path, 0o755); err != nil {
		t.Fatal(err)
	}
	old := EncodeEntry([]byte("old contents"))
	if err := os.WriteFile(inner, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteAtomic(path, EncodeEntry([]byte("new contents"))); err == nil {
		t.Fatal("WriteAtomic over a non-empty directory succeeded")
	}
	got, err := os.ReadFile(inner)
	if err != nil || !bytes.Equal(got, old) {
		t.Errorf("old target changed: %q, %v", got, err)
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "x.vzr" {
		t.Errorf("directory holds %v, want only x.vzr (no temp file)", names)
	}
}

// TestPutObservesOneFsync pins the fsync histogram to successful Puts:
// one observation each, none for a failed Put.
func TestPutObservesOneFsync(t *testing.T) {
	s := openTemp(t)
	reg := obs.NewRegistry()
	s.Instrument(reg)
	for i := 0; i < 3; i++ {
		if err := s.Put("k", []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.MkdirAll(filepath.Join(s.Path("blocked"), "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("blocked", []byte("payload")); err == nil {
		t.Fatal("Put over a non-empty directory succeeded")
	}
	if got := s.met.fsync.Count(); got != 3 {
		t.Errorf("fsync observations = %d, want 3", got)
	}
	if got := s.met.putErrors.Value(); got != 1 {
		t.Errorf("put errors = %d, want 1", got)
	}
}

func TestReadEntryErrors(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.vzr")
	if _, err := ReadEntry(missing); !errors.Is(err, os.ErrNotExist) || errors.Is(err, ErrCorrupt) {
		t.Errorf("missing file: err = %v, want os.ErrNotExist only", err)
	}
	frame := EncodeEntry([]byte("a payload long enough to flip a byte in"))
	flipped := append([]byte(nil), frame...)
	flipped[headerSize+5] ^= 0x01
	for name, data := range map[string][]byte{
		"torn header":  frame[:headerSize-1],
		"torn payload": frame[:len(frame)-1],
		"flipped":      flipped,
	} {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "-")+".vzr")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadEntry(path)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
			continue
		}
		if !strings.Contains(err.Error(), path) {
			t.Errorf("%s: error %q does not name %s", name, err, path)
		}
	}
}

// TestReplaceEntriesReadEntryAt writes frames back to back with
// ReplaceEntries and reads each back alone with ReadEntryAt: the file
// equals the frames EncodeEntry makes, each range yields its payload,
// and a missing file, a range past the end and a flipped byte fail the
// way ReadEntry fails.
func TestReplaceEntriesReadEntryAt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg.vzr")
	payloads := [][]byte{[]byte("first"), {}, bytes.Repeat([]byte("x"), 100<<10), []byte("last")}
	ends, err := ReplaceEntries(path, payloads)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, p := range payloads {
		want = append(want, EncodeEntry(p)...)
	}
	data, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(data, want) {
		t.Fatalf("segment is not the frames back to back (err %v)", err)
	}
	off := int64(0)
	for i, p := range payloads {
		if ends[i] != off+int64(headerSize+len(p)) {
			t.Fatalf("frame %d ends at %d, want %d", i, ends[i], off+int64(headerSize+len(p)))
		}
		got, err := ReadEntryAt(path, off, ends[i]-off)
		if err != nil || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: %d bytes, %v", i, len(got), err)
		}
		off = ends[i]
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Errorf("directory holds %v, want only seg.vzr", names)
	}

	if _, err := ReadEntryAt(filepath.Join(dir, "missing"), 0, 1); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: err = %v, want os.ErrNotExist", err)
	}
	if _, err := ReadEntryAt(path, ends[2], ends[3]-ends[2]+1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("range past the end: err = %v, want ErrCorrupt", err)
	}
	data[ends[0]+headerSize-1] ^= 0x01 // the empty frame's header
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadEntryAt(path, ends[0], ends[1]-ends[0]); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), path) {
		t.Errorf("flipped byte: err = %v, want ErrCorrupt naming %s", err, path)
	}
	if got, err := ReadEntryAt(path, 0, ends[0]); err != nil || string(got) != "first" {
		t.Errorf("the frame before the flipped one: %q, %v", got, err)
	}
}

// TestQuarantineKeepsEveryCopy corrupts the same entry twice: both
// copies land in quarantine under <name>.<nanoseconds>.
func TestQuarantineKeepsEveryCopy(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.vzr")
	for i := 0; i < 2; i++ {
		if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
		Quarantine(path)
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("round %d: file still in place: %v", i, err)
		}
	}
	names := dirNames(t, filepath.Join(dir, quarantineName))
	if len(names) != 2 {
		t.Fatalf("quarantine holds %v, want 2 copies", names)
	}
	for _, n := range names {
		if !strings.HasPrefix(n, "x.vzr.") {
			t.Errorf("quarantined name %q does not follow <name>.<nanoseconds>", n)
		}
	}
}

// TestQuarantineFallsBackToRemoval blocks the quarantine directory with
// a regular file: the corrupt file must be removed instead.
func TestQuarantineFallsBackToRemoval(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, quarantineName), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "x.vzr")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	Quarantine(path)
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("file still in place: %v", err)
	}
}

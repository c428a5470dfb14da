package resultstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestJournalAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.vzj")
	j, recs, truncated, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || truncated != 0 {
		t.Fatalf("fresh journal: %d records, %d truncated", len(recs), truncated)
	}
	want := [][]byte{[]byte("one"), []byte(`{"spec":"two"}`), {}, []byte("four")}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("late")); err == nil {
		t.Fatal("append after close should fail")
	}

	_, recs, truncated, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if truncated != 0 {
		t.Fatalf("clean journal truncated %d bytes", truncated)
	}
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if !bytes.Equal(recs[i], want[i]) {
			t.Errorf("record %d: %q, want %q", i, recs[i], want[i])
		}
	}
}

// TestJournalTornTail simulates a crash mid-append: the journal must
// recover every complete record, truncate the torn frame, and accept
// new appends cleanly afterwards.
func TestJournalTornTail(t *testing.T) {
	for _, cut := range []struct {
		name string
		keep int // bytes of the final frame to keep
	}{
		{"mid_header", 7},
		{"full_header_no_payload", headerSize},
		{"mid_payload", headerSize + 3},
	} {
		t.Run(cut.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "torn.vzj")
			j, _, _, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append([]byte("complete-1")); err != nil {
				t.Fatal(err)
			}
			if err := j.Append([]byte("complete-2")); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			intact, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			torn := append(append([]byte{}, intact...), EncodeEntry([]byte("torn-record"))[:cut.keep]...)
			if err := os.WriteFile(path, torn, 0o644); err != nil {
				t.Fatal(err)
			}

			j2, recs, truncated, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 2 {
				t.Fatalf("recovered %d records, want 2", len(recs))
			}
			if truncated != int64(cut.keep) {
				t.Fatalf("truncated %d bytes, want %d", truncated, cut.keep)
			}
			// The journal must be append-clean after recovery.
			if err := j2.Append([]byte("post-crash")); err != nil {
				t.Fatal(err)
			}
			j2.Close()
			_, recs, truncated, err = OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 3 || truncated != 0 {
				t.Fatalf("after recovery append: %d records (%d truncated), want 3 (0)", len(recs), truncated)
			}
			if !bytes.Equal(recs[2], []byte("post-crash")) {
				t.Fatalf("post-crash record: %q", recs[2])
			}
		})
	}
}

// TestJournalCorruptMiddle: a bit flip in an interior record ends the
// replay there — everything after is discarded rather than trusted.
func TestJournalCorruptMiddle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flip.vzj")
	j, _, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame := headerSize + len("record-0")
	data[frame+headerSize] ^= 0x40 // flip a payload bit in record 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs, truncated, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !bytes.Equal(recs[0], []byte("record-0")) {
		t.Fatalf("recovered %d records, want just record-0", len(recs))
	}
	if truncated != int64(2*(frame)) {
		t.Fatalf("truncated %d bytes, want %d", truncated, 2*frame)
	}
}

func TestStoreJournalPaths(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p1 := s.JournalPath("sweep-abc")
	p2 := s.JournalPath("sweep/abc") // sanitizes to the same prefix, distinct hash
	if p1 == p2 {
		t.Fatal("distinct keys mapped to one journal path")
	}
	if filepath.Ext(p1) != journalExt {
		t.Fatalf("journal extension: %s", p1)
	}
	// Journals are invisible to Keys and vice versa.
	j, _, _, err := OpenJournal(p1)
	if err != nil {
		t.Fatal(err)
	}
	j.Append([]byte("x"))
	j.Close()
	if err := s.Put("entry-key", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 {
		t.Fatalf("Keys sees %d entries, want 1 (journal must be excluded)", len(keys))
	}
	js, err := s.Journals()
	if err != nil {
		t.Fatal(err)
	}
	if len(js) != 1 {
		t.Fatalf("Journals sees %d, want 1", len(js))
	}
}

package resultstore

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"vzlens/internal/obs"
)

// This file adds journal compaction: a long-lived journal — a sweep's
// per-spec results — accumulates records forever, and some of those
// records are redundant (repeated crash-resume cycles leave duplicate
// manifests and spec results, of which replay needs one each).
// Compact rewrites the journal keeping only the records the caller
// still wants, replaced atomically like a Store.Put. A crash at any
// byte offset leaves either the old journal or the new one, never a
// torn mix.

// Instrument attaches the journal's nil-safe metrics hooks; currently
// the compaction counter (see InstrumentCompactions). Safe to skip —
// an un-instrumented journal compacts silently.
func (j *Journal) Instrument(compactions *obs.Counter) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.compactions = compactions
}

// InstrumentCompactions registers (or finds) the
// vz_resultstore_compactions_total counter on reg, so every journal
// the sweep manager opens reports into one series. Attach it to
// journals with Journal.Instrument.
func InstrumentCompactions(reg *obs.Registry) *obs.Counter {
	return reg.Counter("vz_resultstore_compactions_total",
		"Journal compactions (rewrites dropping superseded records).")
}

// Compact rewrites the journal in place: every valid record currently
// in the file is handed to rewrite, and exactly the records it returns
// (in the order it returns them) survive. Returned slices may alias
// the input records. The survivors are framed into one buffer and
// written with WriteAtomic, and the journal stays open for appending
// afterwards. It returns the number of records dropped.
//
// Compact holds the journal lock for the duration, so concurrent
// Appends serialize against it and never land in the pre-compaction
// file.
func (j *Journal) Compact(rewrite func(records [][]byte) [][]byte) (dropped int, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return 0, fmt.Errorf("resultstore: journal %s: compact after close", j.path)
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("resultstore: journal %s: compact seek: %w", j.path, err)
	}
	data, err := io.ReadAll(j.f)
	if err != nil {
		return 0, fmt.Errorf("resultstore: journal %s: compact read: %w", j.path, err)
	}
	records, _ := scanJournal(data)
	kept := rewrite(records)

	if _, err := ReplaceEntries(j.path, kept); err != nil {
		return 0, fmt.Errorf("compact: %w", err)
	}
	SyncDir(filepath.Dir(j.path))

	// The old file handle still points at the pre-compaction inode;
	// reopen the renamed journal and position for appending.
	f, err := os.OpenFile(j.path, os.O_RDWR, 0o644)
	if err != nil {
		// The compacted journal is durable on disk but this handle is
		// unusable; close it so appends fail loudly instead of landing
		// in the orphaned inode.
		j.f.Close()
		j.f = nil
		return 0, fmt.Errorf("resultstore: journal %s: reopen after compact: %w", j.path, err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		j.f.Close()
		j.f = nil
		return 0, fmt.Errorf("resultstore: journal %s: seek after compact: %w", j.path, err)
	}
	j.f.Close()
	j.f = f
	j.compactions.Inc()
	return len(records) - len(kept), nil
}

package resultstore

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"vzlens/internal/obs"
)

// This file holds the only code that writes, reads or quarantines a
// VZRS file. Store entries, compacted journals and the fact lake's
// segments, dimensions and manifest all go through it.

const quarantineName = "quarantine"

// WriteAtomic durably replaces the file at path with data, written as
// given (callers frame it with EncodeEntry): data goes to a temp file
// <base>.tmp-* in the same directory, which is fsynced, closed and
// renamed over path, and the directory is then fsynced (SyncDir), so
// the rename itself survives power loss. A crash at any point leaves
// either the old file or the new one, never a torn mix, and a failed
// call leaves no temp file behind.
func WriteAtomic(path string, data []byte) error {
	return writeAtomic(path, data, nil)
}

// writeAtomic is WriteAtomic observing the fsync latency on fsync
// (nil-safe) once the replacement has succeeded.
func writeAtomic(path string, data []byte, fsync *obs.Histogram) error {
	err := replace(path, fsync, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return err
	}
	SyncDir(filepath.Dir(path))
	return nil
}

// ReplaceEntries replaces the file at path like WriteAtomic, with
// payloads framed (as EncodeEntry frames one) back to back in order,
// and returns the offset at which each frame ends. Frames stream to
// the temp file through one small buffer; the file is never assembled
// in memory. The directory is not fsynced: the rename is durable once
// the caller calls SyncDir, so a caller replacing several files in one
// directory pays one directory fsync for all of them.
func ReplaceEntries(path string, payloads [][]byte) ([]int64, error) {
	ends := make([]int64, len(payloads))
	err := replace(path, nil, func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, 64<<10)
		var end int64
		for i, p := range payloads {
			h := entryHeader(p)
			bw.Write(h[:])
			bw.Write(p)
			end += headerSize + int64(len(p))
			ends[i] = end
		}
		return bw.Flush() // reports the first failed write
	})
	if err != nil {
		return nil, err
	}
	return ends, nil
}

// replace writes a temp file beside path with write, fsyncs and closes
// it, and renames it over path, removing it on any failure.
func replace(path string, fsync *obs.Histogram, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("resultstore: write %s: %w", path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("resultstore: write %s: %w", path, err)
	}
	start := time.Now()
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("resultstore: fsync %s: %w", path, err)
	}
	synced := time.Since(start)
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("resultstore: write %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("resultstore: write %s: %w", path, err)
	}
	fsync.ObserveDuration(synced)
	return nil
}

// SyncDir fsyncs directory dir, best-effort (some filesystems reject
// directory fsync), making the renames done in it durable.
func SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// ReadEntry reads the VZRS frame at path and returns its validated
// payload, which aliases a fresh heap buffer the caller owns. A frame
// that fails validation returns an error wrapping ErrCorrupt and naming
// path; I/O errors, os.ErrNotExist included, pass through unchanged.
// Quarantine policy is the caller's.
func ReadEntry(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := DecodeEntry(data)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return payload, nil
}

// ReadEntryAt is ReadEntry for the n-byte frame at offset off of a file
// holding frames back to back: it reads that byte range and nothing
// else. A range that runs past the end of the file is reported as
// ErrCorrupt, before anything is allocated for it.
func ReadEntryAt(path string, off, n int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if off < 0 || n < 0 || off+n > fi.Size() {
		return nil, fmt.Errorf("read %s: %w: frame [%d, %d) past the file's %d bytes", path, ErrCorrupt, off, off+n, fi.Size())
	}
	data := make([]byte, n)
	if _, err := f.ReadAt(data, off); err != nil {
		return nil, err
	}
	payload, err := DecodeEntry(data)
	if err != nil {
		return nil, fmt.Errorf("read %s at %d: %w", path, off, err)
	}
	return payload, nil
}

// Quarantine moves a file that failed validation into the quarantine
// directory beside it, creating that directory if needed, so the next
// read misses and recomputes while the damaged bytes stay available for
// forensics. The quarantined copy is named <base>.<unix-nanoseconds>,
// so a second corruption of the same file keeps both copies. If the
// move fails, the file is removed instead: a corrupt file must never be
// read again.
func Quarantine(path string) {
	qdir := filepath.Join(filepath.Dir(path), quarantineName)
	dst := filepath.Join(qdir, fmt.Sprintf("%s.%d", filepath.Base(path), time.Now().UnixNano()))
	if err := os.MkdirAll(qdir, 0o755); err != nil || os.Rename(path, dst) != nil {
		os.Remove(path)
	}
}

package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"vzlens/internal/obs"
)

// This file holds the only code that writes, reads or quarantines a
// VZRS file. Store entries, compacted journals and the fact lake's
// partitions, dimensions and manifest all go through it.

const quarantineName = "quarantine"

// WriteAtomic durably replaces the file at path with data, written as
// given (callers frame it with EncodeEntry): data goes to a temp file
// <base>.tmp-* in the same directory, which is fsynced, closed and
// renamed over path, and the directory is then fsynced, best-effort,
// so the rename itself survives power loss. A crash at any point
// leaves either the old file or the new one, never a torn mix, and a
// failed call leaves no temp file behind.
func WriteAtomic(path string, data []byte) error {
	return writeAtomic(path, data, nil)
}

// writeAtomic is WriteAtomic observing the fsync latency on fsync
// (nil-safe) once the replacement has succeeded.
func writeAtomic(path string, data []byte, fsync *obs.Histogram) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("resultstore: write %s: %w", path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
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
	if d, err := os.Open(dir); err == nil {
		d.Sync() // some filesystems reject directory fsync
		d.Close()
	}
	fsync.ObserveDuration(synced)
	return nil
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

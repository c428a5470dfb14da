package resultstore

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"vzlens/internal/obs"
)

// ErrNotFound reports a key with no stored entry.
var ErrNotFound = errors.New("resultstore: not found")

const entryExt = ".vzr"

// Store is a directory of checksummed result entries, safe against
// crashes mid-write (atomic rename) and against silent corruption
// (CRC validation with quarantine on failure). One Store may be shared
// by any number of goroutines.
type Store struct {
	dir string
	mu  sync.Mutex
	met storeMetrics
}

// storeMetrics are the store's observability hooks. Every field is a
// nil-safe obs metric, so an un-instrumented store pays nothing.
type storeMetrics struct {
	hits, misses, corrupt *obs.Counter
	puts, putErrors       *obs.Counter
	bytesRead, bytesPut   *obs.Counter
	fsync                 *obs.Histogram
}

// Instrument registers the store's metrics on reg: entry hits, misses,
// quarantined corruptions, puts and put failures, payload bytes in
// both directions, and the fsync latency distribution (the dominant
// cost of a durable Put). Call before serving; metrics start at zero.
func (s *Store) Instrument(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.met = storeMetrics{
		hits:      reg.Counter("vz_resultstore_hits_total", "Reads served from a valid stored entry."),
		misses:    reg.Counter("vz_resultstore_misses_total", "Reads that found no entry."),
		corrupt:   reg.Counter("vz_resultstore_corrupt_total", "Entries that failed validation and were quarantined."),
		puts:      reg.Counter("vz_resultstore_puts_total", "Entries durably written."),
		putErrors: reg.Counter("vz_resultstore_put_errors_total", "Writes that failed before the atomic rename."),
		bytesRead: reg.Counter("vz_resultstore_read_bytes_total", "Payload bytes read from valid entries."),
		bytesPut:  reg.Counter("vz_resultstore_put_bytes_total", "Encoded bytes written to entries."),
		fsync: reg.Histogram("vz_resultstore_fsync_seconds", "Latency of the per-Put fsync.",
			obs.LatencyBuckets),
	}
}

// Open creates dir (and its quarantine subdirectory) if needed and
// returns a Store over it.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, quarantineName), 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: open %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// fileName maps a key to a stable, filesystem-safe name: a sanitized
// prefix for operator legibility plus an FNV-64a hash of the full key
// so distinct keys never collide after sanitization.
func fileName(key string) string {
	clean := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, key)
	if len(clean) > 80 {
		clean = clean[:80]
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return fmt.Sprintf("%s-%016x%s", clean, h.Sum64(), entryExt)
}

// Path returns the file path an entry for key lives at (whether or not
// it exists) — exposed for operators and chaos tests.
func (s *Store) Path(key string) string {
	return filepath.Join(s.dir, fileName(key))
}

// Put durably stores payload under key with WriteAtomic: a crash at
// any point leaves either the old entry or the new one, never a torn
// mix.
func (s *Store) Put(key string, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	encoded := EncodeEntry(payload)
	if err := writeAtomic(s.Path(key), encoded, s.met.fsync); err != nil {
		s.met.putErrors.Inc()
		return fmt.Errorf("put %s: %w", key, err)
	}
	s.met.puts.Inc()
	s.met.bytesPut.Add(uint64(len(encoded)))
	return nil
}

// Get returns the payload stored under key. A missing entry returns
// ErrNotFound. An entry that fails validation is quarantined (see
// Quarantine) and reported as ErrCorrupt, so the caller recomputes.
func (s *Store) Get(key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	path := s.Path(key)
	payload, err := ReadEntry(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		s.met.misses.Inc()
		return nil, ErrNotFound
	case errors.Is(err, ErrCorrupt):
		s.met.corrupt.Inc()
		Quarantine(path)
		return nil, fmt.Errorf("get %s: %w", key, err)
	case err != nil:
		return nil, fmt.Errorf("resultstore: get %s: %w", key, err)
	}
	s.met.hits.Inc()
	s.met.bytesRead.Add(uint64(len(payload)))
	return payload, nil
}

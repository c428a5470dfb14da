package resultstore

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"vzlens/internal/obs"
)

// This file adds the store's second persistence primitive: an
// append-only journal of CRC-framed records. Where a Store entry is a
// whole result replaced atomically, a Journal accumulates progress —
// one record per completed unit of work — so a process killed at any
// byte offset recovers every fully-written record and loses at most
// the torn tail. The sweep engine journals one record per finished
// scenario spec; a restarted server replays the journal and resumes
// exactly where the previous process died.
//
// On-disk layout: a concatenation of standard VZRS frames (the same
// 24-byte checksummed header EncodeEntry produces, one per record).
// The header's self-checksum lets recovery distinguish "valid record"
// from "torn or corrupt tail" without trusting the length field of a
// half-written header.

const journalExt = ".vzj"

// Journal is an append-only record log. One Journal may be shared by
// any number of goroutines.
type Journal struct {
	mu          sync.Mutex
	f           *os.File
	path        string
	compactions *obs.Counter // nil-safe; set via Instrument
}

// OpenJournal opens (creating if needed) the journal at path, replays
// every valid record, truncates any torn tail, and returns the journal
// positioned for appending. The returned records alias freshly-read
// memory and are safe to retain.
//
// Recovery is prefix-based: records are validated in order, and the
// first frame that fails its header or payload checksum — a crash
// mid-write, a bit flip, or garbage — ends the replay; the file is
// truncated to the last valid frame so subsequent appends never bury
// corruption under fresh records. The number of bytes discarded is
// returned for observability.
func OpenJournal(path string) (j *Journal, records [][]byte, truncated int64, err error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("resultstore: open journal %s: %w", path, err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, 0, fmt.Errorf("resultstore: read journal %s: %w", path, err)
	}
	records, valid := scanJournal(data)
	if valid < int64(len(data)) {
		truncated = int64(len(data)) - valid
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, 0, fmt.Errorf("resultstore: truncate torn journal %s: %w", path, err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, 0, fmt.Errorf("resultstore: seek journal %s: %w", path, err)
	}
	return &Journal{f: f, path: path}, records, truncated, nil
}

// scanJournal walks data frame by frame, returning the decoded payloads
// of every valid record and the byte offset of the end of the valid
// prefix.
func scanJournal(data []byte) (records [][]byte, valid int64) {
	off := 0
	for off+headerSize <= len(data) {
		frame := data[off:]
		// Validate the header before trusting its length field; a torn
		// header's length could otherwise send us past the buffer.
		n, ok := frameLen(frame)
		if !ok || off+n > len(data) {
			break
		}
		payload, err := DecodeEntry(frame[:n])
		if err != nil {
			break
		}
		// Copy: data is one big read buffer; records outlive it cheaply.
		rec := make([]byte, len(payload))
		copy(rec, payload)
		records = append(records, rec)
		off += n
	}
	return records, int64(off)
}

// frameLen returns the total frame length (header + payload) encoded in
// a header whose self-checksum validates, and false for anything torn.
func frameLen(frame []byte) (int, bool) {
	if len(frame) < headerSize {
		return 0, false
	}
	// DecodeEntry re-validates everything; here we only need a trusted
	// length, which requires magic + header CRC.
	if string(frame[0:4]) != magic {
		return 0, false
	}
	if !headerSelfChecks(frame) {
		return 0, false
	}
	n := payloadLen(frame)
	if n > 1<<31 {
		return 0, false
	}
	return headerSize + int(n), true
}

// Append durably writes one record: frame, write, fsync. A crash
// mid-append leaves a torn tail the next OpenJournal truncates; the
// record is only considered committed once Append returns.
func (j *Journal) Append(payload []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("resultstore: journal %s: append after close", j.path)
	}
	if _, err := j.f.Write(EncodeEntry(payload)); err != nil {
		return fmt.Errorf("resultstore: journal %s: append: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("resultstore: journal %s: fsync: %w", j.path, err)
	}
	return nil
}

// Close releases the file handle. Appends after Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// JournalPath maps a key to the store's journal file for it, using the
// same sanitized-prefix-plus-hash naming as entries so distinct keys
// never collide. The file need not exist.
func (s *Store) JournalPath(key string) string {
	name := fileName(key)
	return filepath.Join(s.dir, strings.TrimSuffix(name, entryExt)+journalExt)
}

// Journals lists the journal file names currently in the store
// directory, sorted. Like Keys, these are post-hash file names.
func (s *Store) Journals() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("resultstore: list journals: %w", err)
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), journalExt) {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// Package resultstore persists computed results (experiment tables,
// campaign summaries) across process restarts, so a warm cache
// survives a crash. Entries are written with an atomic
// write-tmp-fsync-rename protocol and framed with a CRC-checksummed
// header; a torn, truncated, or bit-flipped entry is detected on read,
// quarantined out of the way, and reported as ErrCorrupt so the caller
// recomputes instead of serving garbage.
package resultstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// On-disk entry layout (little-endian):
//
//	offset  size  field
//	0       4     magic "VZRS"
//	4       2     format version (currently 1)
//	6       2     reserved flags (must be zero)
//	8       8     payload length
//	16      4     CRC-32C of the payload
//	20      4     CRC-32C of bytes [0, 20) — header self-check
//	24      n     payload
//
// The header checksum catches torn or bit-flipped headers before the
// length field is trusted; the payload checksum catches corruption in
// the body. Castagnoli CRC-32C is hardware-accelerated on every
// platform the repo targets.
const (
	headerSize = 24
	magic      = "VZRS"
	version    = 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports an entry that failed structural or checksum
// validation. Wrapped errors carry the specific failure.
var ErrCorrupt = errors.New("resultstore: corrupt entry")

// headerSelfChecks reports whether a frame's 20-byte header matches its
// trailing self-checksum — the test that lets the journal scanner trust
// the length field of a frame before decoding it in full.
func headerSelfChecks(frame []byte) bool {
	if len(frame) < headerSize {
		return false
	}
	return crc32.Checksum(frame[:20], castagnoli) == binary.LittleEndian.Uint32(frame[20:24])
}

// payloadLen reads the header's payload length field; callers must have
// validated the header first.
func payloadLen(frame []byte) uint64 {
	return binary.LittleEndian.Uint64(frame[8:16])
}

// EncodeEntry frames payload with the checksummed header.
func EncodeEntry(payload []byte) []byte {
	h := entryHeader(payload)
	return append(append(make([]byte, 0, headerSize+len(payload)), h[:]...), payload...)
}

// entryHeader returns the checksummed header that frames payload.
func entryHeader(payload []byte) [headerSize]byte {
	var h [headerSize]byte
	copy(h[0:4], magic)
	binary.LittleEndian.PutUint16(h[4:6], version)
	binary.LittleEndian.PutUint64(h[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint32(h[16:20], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint32(h[20:24], crc32.Checksum(h[:20], castagnoli))
	return h
}

// DecodeEntry validates data and returns the payload. Any structural
// or checksum failure wraps ErrCorrupt. The returned slice aliases
// data.
func DecodeEntry(data []byte) ([]byte, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes, shorter than the %d-byte header", ErrCorrupt, len(data), headerSize)
	}
	if string(data[0:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[0:4])
	}
	if got := crc32.Checksum(data[:20], castagnoli); got != binary.LittleEndian.Uint32(data[20:24]) {
		return nil, fmt.Errorf("%w: header checksum mismatch", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	if f := binary.LittleEndian.Uint16(data[6:8]); f != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrCorrupt, f)
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	if n != uint64(len(data)-headerSize) {
		return nil, fmt.Errorf("%w: payload length %d, have %d bytes", ErrCorrupt, n, len(data)-headerSize)
	}
	payload := data[headerSize:]
	if got := crc32.Checksum(payload, castagnoli); got != binary.LittleEndian.Uint32(data[16:20]) {
		return nil, fmt.Errorf("%w: payload checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

// Package faultio wraps io.Readers with scripted faults — truncation
// and bit-flip corruption — so the ingestion parsers can be exercised
// against the failure modes real archival mirrors exhibit: cut-off
// downloads and corrupted dumps.
//
// Every wrapper is deterministic: the same script over the same bytes
// produces the same faulty stream, which keeps the parser robustness
// tests reproducible.
package faultio

import "io"

// Truncate returns a reader that delivers at most n bytes of r and then
// reports EOF — a download cut off mid-transfer by a stalled mirror.
func Truncate(r io.Reader, n int64) io.Reader {
	return io.LimitReader(r, n)
}

// corruptReader XORs mask into the byte at each scripted offset.
type corruptReader struct {
	r       io.Reader
	offsets map[int64]bool
	mask    byte
	pos     int64
}

// Corrupt returns a reader that flips bits (XOR mask) in the bytes of r
// at the given stream offsets; offsets beyond the stream are ignored. A
// zero mask defaults to 0x01 (a single-bit flip).
func Corrupt(r io.Reader, mask byte, offsets ...int64) io.Reader {
	if mask == 0 {
		mask = 0x01
	}
	m := make(map[int64]bool, len(offsets))
	for _, o := range offsets {
		m[o] = true
	}
	return &corruptReader{r: r, offsets: m, mask: mask}
}

func (c *corruptReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	for i := 0; i < n; i++ {
		if c.offsets[c.pos+int64(i)] {
			p[i] ^= c.mask
		}
	}
	c.pos += int64(n)
	return n, err
}

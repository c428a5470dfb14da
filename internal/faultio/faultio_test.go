package faultio

import (
	"bytes"
	"errors"
	"io"
	"net/netip"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"vzlens/internal/atlas"
	"vzlens/internal/bgp"
	"vzlens/internal/mlab"
	"vzlens/internal/months"
	"vzlens/internal/mrt"
	"vzlens/internal/peeringdb"
)

func TestTruncate(t *testing.T) {
	got, err := io.ReadAll(Truncate(strings.NewReader("hello world"), 5))
	if err != nil || string(got) != "hello" {
		t.Fatalf("Truncate = %q, %v", got, err)
	}
}

func TestCorrupt(t *testing.T) {
	got, err := io.ReadAll(Corrupt(strings.NewReader("abcd"), 0xFF, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{'a', 'b' ^ 0xFF, 'c', 'd' ^ 0xFF}
	if !bytes.Equal(got, want) {
		t.Errorf("Corrupt = %v, want %v", got, want)
	}
}

func TestCorruptAcrossReads(t *testing.T) {
	// One-byte reads must still hit the scripted absolute offset.
	r := Corrupt(strings.NewReader("abcd"), 0x01, 2)
	var out []byte
	buf := make([]byte, 1)
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if err != nil {
			break
		}
	}
	if out[2] != 'c'^0x01 {
		t.Errorf("offset tracking broken: %q", out)
	}
}

// ---- parser robustness under every fault class ----

// failAfter delivers the first n bytes of r and then fails every Read —
// a connection reset partway through a transfer.
func failAfter(r io.Reader, n int64) io.Reader {
	return io.MultiReader(io.LimitReader(r, n), iotest.ErrReader(errors.New("injected read fault")))
}

// validCorpus returns a well-formed input for each of the five archival
// parsers, alongside a closure that runs the parser.
func parserCases(t *testing.T) []struct {
	name  string
	data  []byte
	parse func(io.Reader) error
} {
	t.Helper()
	m := months.New(2023, time.July)

	snap := &peeringdb.Snapshot{
		Facilities: []peeringdb.Facility{{ID: 1, Name: "Cirion La Urbina", City: "Caracas", Country: "VE"}},
		Networks:   []peeringdb.Network{{ID: 1, ASN: 8048, Name: "CANTV", Country: "VE"}},
		NetFacs:    []peeringdb.NetFac{{NetID: 1, FacID: 1}},
	}
	var pdb bytes.Buffer
	if err := snap.Write(&pdb); err != nil {
		t.Fatal(err)
	}

	var atlasBuf bytes.Buffer
	if err := atlas.WriteChaosJSON(&atlasBuf, []atlas.ChaosResult{
		{Month: m, ProbeID: 1, ProbeCC: "VE", Letter: 'K', TXT: "ns1.gru"},
		{Month: m, ProbeID: 2, ProbeCC: "BR", Letter: 'L', TXT: "ns2.mia"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := atlas.WriteTraceJSON(&atlasBuf, []atlas.TraceSample{
		{Month: m, ProbeID: 1, ProbeCC: "VE", RTTms: 120.5},
	}); err != nil {
		t.Fatal(err)
	}

	var mlabBuf bytes.Buffer
	if err := mlab.WriteJSON(&mlabBuf, []mlab.Test{
		{Month: m, Country: "VE", DownloadMbps: 2.9},
		{Month: m, Country: "BR", DownloadMbps: 48.1},
	}); err != nil {
		t.Fatal(err)
	}

	rib := bgp.NewRIB()
	rib.Announce(bgp.Prefix{Network: netip.MustParsePrefix("200.44.0.0/16"), Origin: 8048})
	rib.Announce(bgp.Prefix{Network: netip.MustParsePrefix("190.202.0.0/17"), Origin: 8048})
	var pfxBuf bytes.Buffer
	if _, err := rib.WriteTo(&pfxBuf); err != nil {
		t.Fatal(err)
	}

	var mrtBuf bytes.Buffer
	if err := mrt.WriteRIB(&mrtBuf, rib, 6762, m.Time().Unix()); err != nil {
		t.Fatal(err)
	}

	return []struct {
		name  string
		data  []byte
		parse func(io.Reader) error
	}{
		{"peeringdb.Read", pdb.Bytes(), func(r io.Reader) error { _, err := peeringdb.Read(r); return err }},
		{"atlas.ParseResultsJSON", atlasBuf.Bytes(), func(r io.Reader) error { _, _, err := atlas.ParseResultsJSON(r); return err }},
		{"mlab.ParseJSON", mlabBuf.Bytes(), func(r io.Reader) error { _, err := mlab.ParseJSON(r); return err }},
		{"bgp.ParseRIB", pfxBuf.Bytes(), func(r io.Reader) error { _, err := bgp.ParseRIB(r); return err }},
		{"mrt.ParseRIB", mrtBuf.Bytes(), func(r io.Reader) error { _, err := mrt.ParseRIB(r); return err }},
	}
}

// TestParsersSurviveFaults drives every archival parser through every
// fault class. The contract is uniform: a clean error or a clean (if
// partial) result — never a panic, never a hang.
func TestParsersSurviveFaults(t *testing.T) {
	for _, pc := range parserCases(t) {
		pc := pc
		mid := int64(len(pc.data) / 2)
		faults := []struct {
			name string
			wrap func(io.Reader) io.Reader
		}{
			{"truncate-mid", func(r io.Reader) io.Reader { return Truncate(r, mid) }},
			{"truncate-1byte", func(r io.Reader) io.Reader { return Truncate(r, 1) }},
			{"truncate-0", func(r io.Reader) io.Reader { return Truncate(r, 0) }},
			{"bitflip-early", func(r io.Reader) io.Reader { return Corrupt(r, 0x01, 2) }},
			{"bitflip-spray", func(r io.Reader) io.Reader {
				return Corrupt(r, 0x80, mid/2, mid, mid+mid/2)
			}},
			// A stalled mirror that resumes hands the parser short
			// reads; the stream itself is complete.
			{"stall", iotest.OneByteReader},
			{"err-mid", func(r io.Reader) io.Reader { return failAfter(r, mid) }},
			{"err-immediate", func(r io.Reader) io.Reader { return failAfter(r, 0) }},
		}
		for _, f := range faults {
			f := f
			t.Run(pc.name+"/"+f.name, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("parser panicked under %s: %v", f.name, r)
					}
				}()
				err := pc.parse(f.wrap(bytes.NewReader(pc.data)))
				// Faults that end the stream abnormally must surface as
				// errors; parsers may tolerate benign faults (a stall, a
				// flipped bit inside a skipped field) and return a
				// partial result, but must never panic.
				if strings.HasPrefix(f.name, "err-") && err == nil {
					t.Error("injected I/O error was swallowed")
				}
				if f.name == "stall" && err != nil {
					t.Errorf("stalled-but-complete stream should parse: %v", err)
				}
			})
		}
		// Unfaulted control: the corpus itself is valid.
		t.Run(pc.name+"/clean", func(t *testing.T) {
			if err := pc.parse(bytes.NewReader(pc.data)); err != nil {
				t.Fatalf("clean corpus rejected: %v", err)
			}
		})
	}
}

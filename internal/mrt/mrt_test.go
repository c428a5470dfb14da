package mrt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net/netip"
	"slices"
	"testing"
	"testing/quick"

	"vzlens/internal/bgp"
)

func mustPrefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func TestRIBRoundTrip(t *testing.T) {
	rib := bgp.NewRIB()
	rib.Announce(bgp.Prefix{Network: mustPrefix("200.44.0.0/16"), Origin: 8048})
	rib.Announce(bgp.Prefix{Network: mustPrefix("186.24.0.0/17"), Origin: 6306})
	rib.Announce(bgp.Prefix{Network: mustPrefix("190.120.0.0/15"), Origin: 21826})

	var buf bytes.Buffer
	if err := WriteRIB(&buf, rib, 6762, 1700000000); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseRIB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Len() != rib.Len() {
		t.Fatalf("round trip = %d prefixes, want %d", parsed.Len(), rib.Len())
	}
	for _, p := range rib.Prefixes() {
		if !slices.Contains(parsed.Prefixes(), p) {
			t.Errorf("lost %v via %d", p.Network, p.Origin)
		}
	}
	if got, want := parsed.AnnouncedSpace(8048), rib.AnnouncedSpace(8048); got != want {
		t.Errorf("announced space = %d, want %d", got, want)
	}
}

func TestRoutePathsPreserved(t *testing.T) {
	var buf bytes.Buffer
	wr := NewWriter(&buf, 1700000000)
	if err := wr.WritePeerIndexTable(6762); err != nil {
		t.Fatal(err)
	}
	want := Route{
		Prefix: mustPrefix("200.44.0.0/16"),
		Path:   []bgp.ASN{6762, 23520, 8048},
	}
	if err := wr.WriteRoute(want); err != nil {
		t.Fatal(err)
	}
	rd := NewReader(&buf)
	got, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.Prefix != want.Prefix || len(got.Path) != 3 {
		t.Fatalf("route = %+v", got)
	}
	for i := range want.Path {
		if got.Path[i] != want.Path[i] {
			t.Errorf("path[%d] = %d, want %d", i, got.Path[i], want.Path[i])
		}
	}
	origin, ok := got.Origin()
	if !ok || origin != 8048 {
		t.Errorf("origin = %d, %v", origin, ok)
	}
	if _, err := rd.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("want EOF, got %v", err)
	}
}

func TestWriterRequiresPeerTable(t *testing.T) {
	var buf bytes.Buffer
	wr := NewWriter(&buf, 0)
	err := wr.WriteRoute(Route{Prefix: mustPrefix("10.0.0.0/8"), Path: []bgp.ASN{1}})
	if !errors.Is(err, ErrNoPeerTable) {
		t.Errorf("err = %v, want ErrNoPeerTable", err)
	}
}

func TestWriterRejectsBadRoutes(t *testing.T) {
	var buf bytes.Buffer
	wr := NewWriter(&buf, 0)
	if err := wr.WritePeerIndexTable(1); err != nil {
		t.Fatal(err)
	}
	if err := wr.WriteRoute(Route{Prefix: mustPrefix("2001:db8::/32"), Path: []bgp.ASN{1}}); err == nil {
		t.Error("IPv6 route should be rejected")
	}
	if err := wr.WriteRoute(Route{Prefix: mustPrefix("10.0.0.0/8")}); err == nil {
		t.Error("empty path should be rejected")
	}
}

func TestReaderRequiresPeerTable(t *testing.T) {
	// Hand-frame a RIB record with no preceding peer table.
	var body []byte
	body = binary.BigEndian.AppendUint32(body, 1)
	body = append(body, 8, 10) // 10.0.0.0/8
	body = binary.BigEndian.AppendUint16(body, 0)
	var buf bytes.Buffer
	var hdr [12]byte
	binary.BigEndian.PutUint16(hdr[4:], typeTableDumpV2)
	binary.BigEndian.PutUint16(hdr[6:], subtypeRIBIPv4Unicast)
	binary.BigEndian.PutUint32(hdr[8:], uint32(len(body)))
	buf.Write(hdr[:])
	buf.Write(body)
	if _, err := NewReader(&buf).Next(); !errors.Is(err, ErrNoPeerTable) {
		t.Errorf("err = %v, want ErrNoPeerTable", err)
	}
}

func TestReaderTruncation(t *testing.T) {
	rib := bgp.NewRIB()
	rib.Announce(bgp.Prefix{Network: mustPrefix("200.44.0.0/16"), Origin: 8048})
	var buf bytes.Buffer
	if err := WriteRIB(&buf, rib, 6762, 0); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix either parses fewer routes or errors; never
	// invents routes or hangs.
	for cut := 0; cut < len(full); cut += 7 {
		parsed, err := ParseRIB(bytes.NewReader(full[:cut]))
		if err == nil && parsed.Len() > rib.Len() {
			t.Fatalf("cut %d: invented routes", cut)
		}
	}
}

func TestReaderSkipsForeignRecords(t *testing.T) {
	rib := bgp.NewRIB()
	rib.Announce(bgp.Prefix{Network: mustPrefix("200.44.0.0/16"), Origin: 8048})
	var buf bytes.Buffer
	// Prepend a BGP4MP record (type 16), which the reader must skip.
	var hdr [12]byte
	binary.BigEndian.PutUint16(hdr[4:], 16)
	binary.BigEndian.PutUint32(hdr[8:], 4)
	buf.Write(hdr[:])
	buf.Write([]byte{1, 2, 3, 4})
	if err := WriteRIB(&buf, rib, 6762, 0); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseRIB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Len() != 1 {
		t.Errorf("parsed = %d routes", parsed.Len())
	}
}

func TestReaderRejectsImplausibleLength(t *testing.T) {
	var hdr [12]byte
	binary.BigEndian.PutUint16(hdr[4:], typeTableDumpV2)
	binary.BigEndian.PutUint16(hdr[6:], subtypeRIBIPv4Unicast)
	binary.BigEndian.PutUint32(hdr[8:], 1<<24)
	if _, err := NewReader(bytes.NewReader(hdr[:])).Next(); err == nil {
		t.Error("want length error")
	}
}

func TestHeaderLayout(t *testing.T) {
	// The 12-byte MRT common header must match RFC 6396: timestamp,
	// type 13, subtype 1, length.
	var buf bytes.Buffer
	wr := NewWriter(&buf, 1700000000)
	if err := wr.WritePeerIndexTable(6762); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if ts := binary.BigEndian.Uint32(raw[0:]); ts != 1700000000 {
		t.Errorf("timestamp = %d", ts)
	}
	if typ := binary.BigEndian.Uint16(raw[4:]); typ != 13 {
		t.Errorf("type = %d, want 13 (TABLE_DUMP_V2)", typ)
	}
	if sub := binary.BigEndian.Uint16(raw[6:]); sub != 1 {
		t.Errorf("subtype = %d, want 1 (PEER_INDEX_TABLE)", sub)
	}
	if l := binary.BigEndian.Uint32(raw[8:]); int(l) != len(raw)-12 {
		t.Errorf("length = %d, body = %d", l, len(raw)-12)
	}
}

// Property: any set of valid IPv4 prefixes round-trips through MRT.
func TestQuickRIBRoundTrip(t *testing.T) {
	f := func(seeds []uint32) bool {
		rib := bgp.NewRIB()
		for i, s := range seeds {
			if i >= 20 {
				break
			}
			bits := int(s%25) + 8
			addr := netip.AddrFrom4([4]byte{byte(s >> 24), byte(s >> 16), byte(s >> 8), byte(s)})
			prefix, err := addr.Prefix(bits)
			if err != nil {
				return false
			}
			rib.Announce(bgp.Prefix{Network: prefix, Origin: bgp.ASN(s%65000 + 1)})
		}
		var buf bytes.Buffer
		if err := WriteRIB(&buf, rib, 3356, 0); err != nil {
			return false
		}
		parsed, err := ParseRIB(&buf)
		if err != nil {
			return false
		}
		return parsed.Len() == rib.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package dnswire

import (
	"bytes"
	"testing"
)

// FuzzDecode feeds arbitrary datagrams through the message decoder: it
// must never panic, and whatever decodes must re-encode consistently for
// the supported message shapes.
func FuzzDecode(f *testing.F) {
	q := Question{Name: HostnameBind, Type: TypeTXT, Class: ClassCH}
	if pkt, err := EncodeQuery(99, q); err == nil {
		f.Add(pkt)
	}
	if pkt, err := EncodeResponse(1, q, []string{"ccs01.l.root-servers.org"}, RcodeOK); err == nil {
		f.Add(pkt)
	}
	if pkt, err := EncodeResponse(1, q, nil, RcodeRef); err == nil {
		f.Add(pkt)
	}
	f.Add([]byte{})
	f.Add([]byte{0xC0, 0x0C})
	f.Add(bytes.Repeat([]byte{0xC0}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Decode(data)
		if err != nil {
			return
		}
		// Decoded questions must carry well-formed names: re-encoding a
		// single-question query must succeed or fail cleanly, never panic.
		if len(msg.Question) == 1 && msg.Question[0].Name != "" {
			_, _ = EncodeQuery(msg.ID, msg.Question[0])
		}
		_, _ = FirstTXT(msg)
	})
}

// FuzzECS feeds arbitrary option bytes through the EDNS0 Client Subnet
// parser: it must never panic, and whatever parses must satisfy the
// minimal-encoding invariants — AddrLen matches the prefix, bits past
// the prefix are zero, and the result round-trips through the encoder.
func FuzzECS(f *testing.F) {
	f.Add([]byte{0, 1, 32, 0, 10, 0, 0, 1})
	f.Add([]byte{0, 1, 24, 0, 192, 0, 2})
	f.Add([]byte{0, 2, 48, 0, 0x20, 0x01, 0x0d, 0xb8, 0, 0})
	f.Add([]byte{0, 1, 0, 0})
	f.Add([]byte{0, 9, 8, 0, 1})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var e ECS
		if err := ParseECS(data, &e); err != nil {
			return
		}
		if e.AddrLen != (int(e.SourcePrefix)+7)/8 {
			t.Fatalf("AddrLen %d disagrees with prefix /%d", e.AddrLen, e.SourcePrefix)
		}
		max := 32
		if e.Family == ECSFamilyIPv6 {
			max = 128
		}
		if int(e.SourcePrefix) > max {
			t.Fatalf("prefix /%d exceeds family %d maximum", e.SourcePrefix, e.Family)
		}
		if bits := e.SourcePrefix % 8; bits != 0 && e.AddrLen > 0 {
			if e.Addr[e.AddrLen-1]&(0xFF>>bits) != 0 {
				t.Fatalf("bits past /%d not masked: %x", e.SourcePrefix, e.Addr[:e.AddrLen])
			}
		}
		for _, b := range e.Addr[e.AddrLen:] {
			if b != 0 {
				t.Fatalf("address bytes past AddrLen not zeroed: %x", e.Addr)
			}
		}
		// Round trip: re-encoding inside an OPT and re-parsing the query
		// must reproduce the same masked subnet. The encoder echoes
		// scope = source, so normalize that field before comparing.
		pkt, err := EncodeQuery(1, Question{Name: "x", Type: TypeA, Class: ClassIN})
		if err != nil {
			t.Fatal(err)
		}
		var q Query
		if err := ParseQuery(AppendQueryOPT(pkt, 1232, &e), &q); err != nil {
			t.Fatalf("re-encoded ECS rejected: %v", err)
		}
		want := e
		want.ScopePrefix = e.SourcePrefix
		if !q.HasECS || q.ECS != want {
			t.Fatalf("round trip changed ECS: %+v -> %+v", want, q.ECS)
		}
	})
}

package dnswire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func encode(t *testing.T, id uint16, name string, qtype, class uint16) []byte {
	t.Helper()
	pkt, err := EncodeQuery(id, Question{Name: name, Type: qtype, Class: class})
	if err != nil {
		t.Fatalf("EncodeQuery: %v", err)
	}
	return pkt
}

func TestParseQueryBasics(t *testing.T) {
	pkt := encode(t, 0xBEEF, "Hostname.BIND", TypeTXT, ClassCH)
	var q Query
	if err := ParseQuery(pkt, &q); err != nil {
		t.Fatalf("ParseQuery: %v", err)
	}
	if q.ID != 0xBEEF || q.Type != TypeTXT || q.Class != ClassCH {
		t.Errorf("parsed %+v", q)
	}
	if got := string(q.Name()); got != "hostname.bind" {
		t.Errorf("Name() = %q, want lowercased %q", got, "hostname.bind")
	}
	if q.HasOPT || q.HasECS {
		t.Error("phantom OPT/ECS on a plain query")
	}
	if q.ResponseLimit() != 512 {
		t.Errorf("no-OPT limit = %d, want 512", q.ResponseLimit())
	}
	if q.QEnd != len(pkt) {
		t.Errorf("QEnd = %d, want %d", q.QEnd, len(pkt))
	}
}

func TestParseQueryRejects(t *testing.T) {
	resp, _ := EncodeResponse(1, Question{Name: "x", Type: TypeTXT, Class: ClassCH}, []string{"t"}, RcodeOK)
	var q Query
	if err := ParseQuery(resp, &q); !errors.Is(err, ErrNotQuery) {
		t.Errorf("response parsed as query: %v", err)
	}
	pkt := encode(t, 2, "x", TypeTXT, ClassCH)
	binary.BigEndian.PutUint16(pkt[4:], 2) // QDCOUNT=2
	if err := ParseQuery(pkt, &q); !errors.Is(err, ErrQuestionCount) {
		t.Errorf("two questions accepted: %v", err)
	}
	// Compression pointer inside the question name: untrusted.
	ptr := []byte{0, 3, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0x0C, 0, 16, 0, 3}
	if err := ParseQuery(ptr, &q); err == nil {
		t.Error("compressed question name accepted")
	}
}

func TestParseQueryOPT(t *testing.T) {
	pkt := AppendQueryOPT(encode(t, 3, "a.b", TypeA, ClassIN), 1232, nil)
	var q Query
	if err := ParseQuery(pkt, &q); err != nil {
		t.Fatalf("ParseQuery: %v", err)
	}
	if !q.HasOPT || q.HasECS {
		t.Fatalf("OPT parsed as HasOPT=%v HasECS=%v", q.HasOPT, q.HasECS)
	}
	if q.UDPSize != 1232 || q.ResponseLimit() != 1232 {
		t.Errorf("UDPSize=%d limit=%d, want 1232", q.UDPSize, q.ResponseLimit())
	}

	// Tiny and huge advertised sizes clamp into [512, 4096].
	lo := AppendQueryOPT(encode(t, 4, "a.b", TypeA, ClassIN), 80, nil)
	hi := AppendQueryOPT(encode(t, 5, "a.b", TypeA, ClassIN), 65000, nil)
	if err := ParseQuery(lo, &q); err != nil || q.ResponseLimit() != 512 {
		t.Errorf("small OPT: limit=%d err=%v, want 512", q.ResponseLimit(), err)
	}
	if err := ParseQuery(hi, &q); err != nil || q.ResponseLimit() != int(MaxUDPSize) {
		t.Errorf("huge OPT: limit=%d err=%v, want %d", q.ResponseLimit(), err, MaxUDPSize)
	}

	// A second OPT is FORMERR-worthy.
	dup := AppendQueryOPT(pkt, 1232, nil)
	if err := ParseQuery(dup, &q); !errors.Is(err, ErrBadOPT) {
		t.Errorf("duplicate OPT: %v, want ErrBadOPT", err)
	}
}

func TestParseQueryECS(t *testing.T) {
	ecs := &ECS{Family: ECSFamilyIPv4, SourcePrefix: 24, AddrLen: 3}
	ecs.Addr[0], ecs.Addr[1], ecs.Addr[2] = 192, 0, 2
	pkt := AppendQueryOPT(encode(t, 6, "q", TypeTXT, ClassCH), 4096, ecs)
	var q Query
	if err := ParseQuery(pkt, &q); err != nil {
		t.Fatalf("ParseQuery: %v", err)
	}
	if !q.HasECS || q.ECS.Family != ECSFamilyIPv4 || q.ECS.SourcePrefix != 24 {
		t.Fatalf("ECS round trip: %+v", q.ECS)
	}
	ip, ok := q.ECS.IPv4()
	if !ok || ip != [4]byte{192, 0, 2, 0} {
		t.Errorf("IPv4() = %v, %v", ip, ok)
	}
}

func TestParseECSValidation(t *testing.T) {
	var e ECS
	cases := []struct {
		name string
		data []byte
		ok   bool
	}{
		{"v4 /32", []byte{0, 1, 32, 0, 10, 0, 0, 1}, true},
		{"v4 /24 minimal", []byte{0, 1, 24, 0, 10, 0, 0}, true},
		{"v4 /24 overlong", []byte{0, 1, 24, 0, 10, 0, 0, 1}, false},
		{"v4 /24 short", []byte{0, 1, 24, 0, 10, 0}, false},
		{"v4 /33", []byte{0, 1, 33, 0, 10, 0, 0, 1, 0}, false},
		{"v6 /48", []byte{0, 2, 48, 0, 0x20, 0x01, 0x0d, 0xb8, 0, 0}, true},
		{"v6 /129", append([]byte{0, 2, 129, 0}, make([]byte, 17)...), false},
		{"family 9", []byte{0, 9, 8, 0, 1}, false},
		{"empty", nil, false},
		{"header only", []byte{0, 1, 0}, false},
		{"zero prefix", []byte{0, 1, 0, 0}, true},
	}
	for _, tc := range cases {
		err := ParseECS(tc.data, &e)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err=%v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	// Trailing bits beyond the prefix are masked, not rejected
	// (RFC 7871 §6 says they SHOULD be zero; tolerating them beats
	// refusing real-world resolvers that don't mask).
	if err := ParseECS([]byte{0, 1, 20, 0, 10, 1, 0xFF}, &e); err != nil {
		t.Fatalf("unmasked trailing bits rejected: %v", err)
	}
	if e.Addr[2] != 0xF0 {
		t.Errorf("trailing bits not masked: %x", e.Addr[2])
	}
}

func TestResponseBuilders(t *testing.T) {
	pkt := encode(t, 7, "l.zone", TypeA, ClassIN)
	var q Query
	if err := ParseQuery(pkt, &q); err != nil {
		t.Fatal(err)
	}
	msg := AppendResponseStart(nil, q.ID, FlagQR|FlagAA, pkt[12:q.QEnd])
	msg = AppendARR(msg, 30, [4]byte{198, 18, 11, 1})
	msg = AppendAAAARR(msg, 30, [16]byte{0x20, 0x01, 0x0d, 0xb8})
	msg = AppendTXTRR(msg, ClassIN, 30, "ak.ve-ccs.l.root")
	SetCounts(msg, 3, 0, 0)
	SetRcode(msg, RcodeOK)
	dec, err := Decode(msg)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if dec.ID != 7 || !dec.IsResponse() || dec.Rcode() != RcodeOK {
		t.Errorf("header: %+v", dec)
	}
	if got, _ := FirstTXT(dec); got != "ak.ve-ccs.l.root" {
		t.Errorf("TXT answer = %q", got)
	}
	// The builders compress every owner to the question name; the raw
	// A RDATA sits right after the first RR head.
	if !bytes.Equal(msg[q.QEnd+12:q.QEnd+16], []byte{198, 18, 11, 1}) {
		t.Errorf("A RDATA = %v", msg[q.QEnd+12:q.QEnd+16])
	}
}

func TestTruncate(t *testing.T) {
	pkt := encode(t, 8, "big.example", TypeTXT, ClassCH)
	var q Query
	if err := ParseQuery(pkt, &q); err != nil {
		t.Fatal(err)
	}
	msg := AppendResponseStart(nil, q.ID, FlagQR|FlagAA, pkt[12:q.QEnd])
	for i := 0; i < 40; i++ {
		msg = AppendTXTRR(msg, ClassCH, 0, "padding-padding-padding-padding")
	}
	SetCounts(msg, 40, 0, 0)
	if len(msg) <= 512 {
		t.Fatalf("test setup: message only %d bytes", len(msg))
	}
	msg = Truncate(msg, q.QEnd)
	if len(msg) != q.QEnd {
		t.Errorf("truncated length %d, want %d", len(msg), q.QEnd)
	}
	dec, err := Decode(msg)
	if err != nil {
		t.Fatalf("truncated message must still decode: %v", err)
	}
	if dec.Flags&FlagTC == 0 {
		t.Error("TC not set")
	}
	if len(dec.Answers) != 0 {
		t.Error("answers survived truncation")
	}
	if len(dec.Question) != 1 || dec.Question[0].Name != "big.example" {
		t.Errorf("question lost: %+v", dec.Question)
	}
}

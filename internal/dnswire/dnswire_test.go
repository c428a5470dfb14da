package dnswire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestQueryRoundTrip(t *testing.T) {
	q := Question{Name: "hostname.bind", Type: TypeTXT, Class: ClassCH}
	pkt, err := EncodeQuery(0x1234, q)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if msg.ID != 0x1234 || msg.IsResponse() {
		t.Errorf("header = %+v", msg)
	}
	if len(msg.Question) != 1 || msg.Question[0] != q {
		t.Errorf("question = %+v", msg.Question)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	q := Question{Name: "hostname.bind", Type: TypeTXT, Class: ClassCH}
	pkt, err := EncodeResponse(7, q, []string{"ccs01.l.root-servers.org"}, RcodeOK)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if !msg.IsResponse() || msg.Rcode() != RcodeOK {
		t.Errorf("flags = %04x", msg.Flags)
	}
	txt, err := FirstTXT(msg)
	if err != nil || txt != "ccs01.l.root-servers.org" {
		t.Errorf("FirstTXT = %q, %v", txt, err)
	}
	if msg.Answers[0].Class != ClassCH || msg.Answers[0].Name != q.Name {
		t.Errorf("answer = %+v", msg.Answers[0])
	}
}

func TestRefusedResponse(t *testing.T) {
	q := Question{Name: "hostname.bind", Type: TypeTXT, Class: ClassCH}
	pkt, err := EncodeResponse(7, q, nil, RcodeRef)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Rcode() != RcodeRef || len(msg.Answers) != 0 {
		t.Errorf("msg = %+v", msg)
	}
	if _, err := FirstTXT(msg); !errors.Is(err, ErrNoAnswer) {
		t.Errorf("FirstTXT err = %v", err)
	}
}

func TestFirstTXTRejectsQueries(t *testing.T) {
	q := Question{Name: "hostname.bind", Type: TypeTXT, Class: ClassCH}
	pkt, _ := EncodeQuery(1, q)
	msg, _ := Decode(pkt)
	if _, err := FirstTXT(msg); !errors.Is(err, ErrNotResponse) {
		t.Errorf("err = %v", err)
	}
}

func TestEncodeRejectsBadNames(t *testing.T) {
	long := strings.Repeat("x", 64)
	for _, name := range []string{"bad..label", long + ".bind"} {
		if _, err := EncodeQuery(1, Question{Name: name, Type: TypeTXT, Class: ClassCH}); err == nil {
			t.Errorf("EncodeQuery(%q): want error", name)
		}
	}
}

func TestEncodeRejectsOversizeTXT(t *testing.T) {
	q := Question{Name: "hostname.bind", Type: TypeTXT, Class: ClassCH}
	if _, err := EncodeResponse(1, q, []string{strings.Repeat("a", 256)}, RcodeOK); err == nil {
		t.Error("want error for >255-byte TXT")
	}
}

func TestDecodeTruncated(t *testing.T) {
	q := Question{Name: "hostname.bind", Type: TypeTXT, Class: ClassCH}
	pkt, _ := EncodeResponse(7, q, []string{"abc"}, RcodeOK)
	for cut := 1; cut < len(pkt); cut += 3 {
		if _, err := Decode(pkt[:cut]); err == nil {
			// Some prefixes may decode if counts allow; header must not lie.
			msg, _ := Decode(pkt[:cut])
			if msg != nil && len(msg.Answers) > 0 {
				t.Errorf("truncation at %d produced an answer", cut)
			}
		}
	}
	if _, err := Decode(nil); !errors.Is(err, ErrTruncatedMessage) {
		t.Error("nil message should be truncated")
	}
}

func TestDecodeCompressionPointer(t *testing.T) {
	// Hand-build a response whose answer name is a pointer to the
	// question name (offset 12), as real servers emit.
	var buf []byte
	buf = binary.BigEndian.AppendUint16(buf, 9)             // ID
	buf = binary.BigEndian.AppendUint16(buf, FlagQR|FlagAA) // flags
	buf = binary.BigEndian.AppendUint16(buf, 1)             // QDCOUNT
	buf = binary.BigEndian.AppendUint16(buf, 1)             // ANCOUNT
	buf = binary.BigEndian.AppendUint16(buf, 0)
	buf = binary.BigEndian.AppendUint16(buf, 0)
	buf, _ = appendName(buf, "hostname.bind")
	buf = binary.BigEndian.AppendUint16(buf, TypeTXT)
	buf = binary.BigEndian.AppendUint16(buf, ClassCH)
	buf = append(buf, 0xC0, 12) // pointer to offset 12
	buf = binary.BigEndian.AppendUint16(buf, TypeTXT)
	buf = binary.BigEndian.AppendUint16(buf, ClassCH)
	buf = binary.BigEndian.AppendUint32(buf, 0)
	buf = binary.BigEndian.AppendUint16(buf, 4)
	buf = append(buf, 3, 's', '1', '.')

	msg, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Answers) != 1 || msg.Answers[0].Name != "hostname.bind" {
		t.Errorf("answers = %+v", msg.Answers)
	}
}

func TestDecodePointerLoop(t *testing.T) {
	// A name that points at itself must error, not hang. Pointers are
	// only followed backwards, so craft two pointers at 12 and 14 where
	// the second points at the first and the first at... itself is
	// forward-rejected; test the forward rejection too.
	var buf []byte
	buf = binary.BigEndian.AppendUint16(buf, 9)
	buf = binary.BigEndian.AppendUint16(buf, 0)
	buf = binary.BigEndian.AppendUint16(buf, 1)
	buf = binary.BigEndian.AppendUint16(buf, 0)
	buf = binary.BigEndian.AppendUint16(buf, 0)
	buf = binary.BigEndian.AppendUint16(buf, 0)
	buf = append(buf, 0xC0, 12) // points at itself
	buf = binary.BigEndian.AppendUint16(buf, TypeTXT)
	buf = binary.BigEndian.AppendUint16(buf, ClassCH)
	if _, err := Decode(buf); err == nil {
		t.Error("self-pointing name should error")
	}
}

func TestParseTXTDataMultipleStrings(t *testing.T) {
	texts, err := parseTXTData([]byte{3, 'a', 'b', 'c', 2, 'd', 'e'})
	if err != nil || len(texts) != 2 || texts[0] != "abc" || texts[1] != "de" {
		t.Errorf("texts = %v, %v", texts, err)
	}
	if _, err := parseTXTData([]byte{5, 'a'}); err == nil {
		t.Error("truncated character-string should error")
	}
}

// Property: query encoding round-trips arbitrary well-formed names.
func TestQuickNameRoundTrip(t *testing.T) {
	f := func(raw []byte, id uint16) bool {
		// Build a well-formed name from the raw bytes.
		var labels []string
		for i := 0; i < len(raw) && len(labels) < 6; i += 4 {
			end := i + 4
			if end > len(raw) {
				end = len(raw)
			}
			label := ""
			for _, b := range raw[i:end] {
				label += string(rune('a' + int(b)%26))
			}
			if label != "" {
				labels = append(labels, label)
			}
		}
		if len(labels) == 0 {
			labels = []string{"bind"}
		}
		name := strings.Join(labels, ".")
		pkt, err := EncodeQuery(id, Question{Name: name, Type: TypeTXT, Class: ClassCH})
		if err != nil {
			return false
		}
		msg, err := Decode(pkt)
		return err == nil && msg.ID == id && msg.Question[0].Name == name
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: response encoding round-trips arbitrary short TXT strings.
func TestQuickTXTRoundTrip(t *testing.T) {
	f := func(payload []byte) bool {
		if len(payload) > 255 {
			payload = payload[:255]
		}
		txt := string(payload)
		q := Question{Name: HostnameBind, Type: TypeTXT, Class: ClassCH}
		pkt, err := EncodeResponse(1, q, []string{txt}, RcodeOK)
		if err != nil {
			return false
		}
		msg, err := Decode(pkt)
		if err != nil {
			return false
		}
		got, err := FirstTXT(msg)
		if txt == "" {
			// Empty TXT still decodes as one empty string.
			return err == nil && got == ""
		}
		return err == nil && bytes.Equal([]byte(got), payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package registry

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"vzlens/internal/months"
)

func TestParseRecord(t *testing.T) {
	rec, ok, err := ParseRecord("lacnic|VE|ipv4|200.44.0.0|65536|20001207|allocated|ORG-CANV")
	if err != nil || !ok {
		t.Fatalf("err=%v ok=%v", err, ok)
	}
	if rec.Country != "VE" || rec.Type != "ipv4" || rec.Value != 65536 {
		t.Errorf("rec = %+v", rec)
	}
	if rec.Date != months.New(2000, time.December) {
		t.Errorf("date = %v", rec.Date)
	}
	if rec.Holder != "ORG-CANV" {
		t.Errorf("holder = %q", rec.Holder)
	}
}

func TestParseSkipsHeadersAndSummaries(t *testing.T) {
	for _, line := range []string{
		"",
		"# comment",
		"2|lacnic|20240101|12345|19870101|20240101|-0400",
		"lacnic|*|ipv4|*|12345|summary",
	} {
		_, ok, err := ParseRecord(line)
		if err != nil || ok {
			t.Errorf("line %q: ok=%v err=%v, want skipped", line, ok, err)
		}
	}
}

func TestParseRecordErrors(t *testing.T) {
	for _, line := range []string{
		"lacnic|VE|ipv4", // short
		"lacnic|VE|ipv4|200.44.0.0|banana|20001207|allocated|X", // bad value
		"lacnic|VE|ipv4|200.44.0.0|65536|2000127|allocated|X",   // bad date length
		"lacnic|VE|ipv4|200.44.0.0|65536|20001307|allocated|X",  // month 13
		"lacnic|VE|ipv4|not-an-ip|65536|20001207|allocated|X",   // bad address
	} {
		if _, _, err := ParseRecord(line); err == nil {
			t.Errorf("line %q: want error", line)
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	rec := Record{
		Registry: "lacnic", Country: "VE", Type: "ipv4",
		Start: "200.44.0.0", Value: 65536,
		Date: months.New(2000, time.December), Status: "allocated", Holder: "ORG-CANV",
	}
	parsed, ok, err := ParseRecord(rec.String())
	if err != nil || !ok {
		t.Fatalf("round trip parse: %v %v", ok, err)
	}
	if parsed != rec {
		t.Errorf("round trip = %+v, want %+v", parsed, rec)
	}
}

func sample() *Table {
	t := NewTable()
	t.Add(Record{"lacnic", "VE", "ipv4", "200.44.0.0", 1 << 16, months.New(2000, time.December), "allocated", "ORG-CANV"})
	t.Add(Record{"lacnic", "VE", "ipv4", "186.88.0.0", 1 << 17, months.New(2010, time.March), "allocated", "ORG-CANV"})
	t.Add(Record{"lacnic", "VE", "ipv4", "190.202.0.0", 1 << 16, months.New(2008, time.June), "allocated", "ORG-TELF"})
	t.Add(Record{"lacnic", "BR", "ipv4", "200.160.0.0", 1 << 18, months.New(2001, time.May), "allocated", "ORG-NICB"})
	t.Add(Record{"lacnic", "VE", "asn", "8048", 1, months.New(1998, time.January), "allocated", "ORG-CANV"})
	return t
}

func TestWriteParseRoundTrip(t *testing.T) {
	tab := sample()
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "2|lacnic|") {
		t.Error("missing version header")
	}
	parsed, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Len() != tab.Len() {
		t.Fatalf("round trip len = %d, want %d", parsed.Len(), tab.Len())
	}
	if !reflect.DeepEqual(parsed.Records(), tab.Records()) {
		t.Error("records differ after round trip")
	}
}

func TestParseRejectsBadLine(t *testing.T) {
	_, err := Parse(strings.NewReader("lacnic|VE|ipv4|bad\n"))
	if err == nil {
		t.Error("want parse error with line number")
	}
	if !strings.Contains(err.Error(), "line 1") {
		t.Errorf("error should name the line: %v", err)
	}
}

func TestRecordsSorted(t *testing.T) {
	recs := sample().Records()
	for i := 1; i < len(recs); i++ {
		if recs[i].Date < recs[i-1].Date {
			t.Fatalf("records not date-sorted: %v before %v", recs[i-1].Date, recs[i])
		}
	}
}

package mlab

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"vzlens/internal/months"
)

func TestJSONRoundTrip(t *testing.T) {
	g := NewGenerator(11)
	m := months.New(2023, time.July)
	tests := g.Draw("VE", m, 501)

	var buf bytes.Buffer
	if err := WriteJSON(&buf, tests); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.TestCount() != 501 {
		t.Fatalf("count = %d", parsed.TestCount())
	}
	direct := NewArchive()
	direct.Add(tests)
	want, _ := direct.Median("VE", m)
	got, _ := parsed.Median("VE", m)
	if want != got {
		t.Errorf("median through JSON = %v, want %v", got, want)
	}
}

func TestParseJSONSkipsJunkRows(t *testing.T) {
	lines := strings.Join([]string{
		`{"date":"2023-07-15","a":{"MeanThroughputMbps":5.5},"client":{"Geo":{"CountryCode":"VE"}}}`,
		`{"date":"2023-07-15","a":{"MeanThroughputMbps":0},"client":{"Geo":{"CountryCode":"VE"}}}`,
		`{"date":"2023-07-15","a":{"MeanThroughputMbps":3.2},"client":{"Geo":{"CountryCode":""}}}`,
		``,
	}, "\n")
	ar, err := ParseJSON(strings.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	if ar.TestCount() != 1 {
		t.Errorf("count = %d, want 1 (zero-throughput and no-CC rows skipped)", ar.TestCount())
	}
}

func TestParseJSONErrors(t *testing.T) {
	for _, in := range []string{
		"{bad json",
		`{"date":"x","a":{"MeanThroughputMbps":5},"client":{"Geo":{"CountryCode":"VE"}}}`,
		`{"date":"20xx-07-15","a":{"MeanThroughputMbps":5},"client":{"Geo":{"CountryCode":"VE"}}}`,
	} {
		if _, err := ParseJSON(strings.NewReader(in)); err == nil {
			t.Errorf("ParseJSON(%q): want error", in)
		}
	}
}

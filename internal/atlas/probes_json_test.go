package atlas

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"vzlens/internal/bgp"
	"vzlens/internal/geo"
	"vzlens/internal/months"
)

func probeFleet() *Fleet {
	f := NewFleet()
	ccs, _ := geo.LookupIATA("CCS")
	sci, _ := geo.LookupIATA("SCI")
	f.Add(Probe{ID: 1, Country: "VE", City: ccs, ASN: 8048, Window: months.Window{From: mon(2014, time.March)}})
	f.Add(Probe{ID: 2, Country: "VE", City: sci, ASN: 263703, Window: months.Window{From: mon(2019, time.January)}})
	f.Add(Probe{ID: 3, Country: "BR", City: geo.City{Name: "Sao Paulo", Country: "BR", Lat: -23.55, Lon: -46.63}, ASN: 4230, Window: months.Window{From: mon(2016, time.June), To: mon(2020, time.January)}})
	return f
}

func TestProbesJSONRoundTrip(t *testing.T) {
	f := probeFleet()
	var buf bytes.Buffer
	if err := WriteProbesJSON(&buf, f, mon(2023, time.June)); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseProbesJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Len() != 3 {
		t.Fatalf("Len = %d", parsed.Len())
	}
	p1, ok := parsed.Probe(1)
	if !ok || p1.Country != "VE" || p1.ASN != bgp.ASN(8048) {
		t.Errorf("probe 1 = %+v", p1)
	}
	if p1.From != mon(2014, time.March) {
		t.Errorf("connected = %v", p1.From)
	}
	if p1.City.Name != "Caracas" || p1.City.Lat == 0 {
		t.Errorf("city = %+v", p1.City)
	}
}

func TestProbesJSONStatus(t *testing.T) {
	f := probeFleet()
	var buf bytes.Buffer
	if err := WriteProbesJSON(&buf, f, mon(2023, time.June)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, `"Connected"`) != 2 {
		t.Errorf("connected count wrong: %s", out)
	}
	// Probe 3 disconnected in 2020.
	if strings.Count(out, `"Abandoned"`) != 1 {
		t.Errorf("abandoned count wrong: %s", out)
	}
}

func TestProbesJSONCoverageAnalysisSurvives(t *testing.T) {
	f := probeFleet()
	var buf bytes.Buffer
	if err := WriteProbesJSON(&buf, f, mon(2019, time.June)); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseProbesJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Note: disconnection months are not part of the wire format (the
	// real API exposes only current status), so parsed fleets treat all
	// probes as open-ended — counts match for months before any
	// disconnection.
	counts := parsed.CountByCountry(mon(2019, time.June))
	if counts["VE"] != 2 || counts["BR"] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestParseProbesJSONErrors(t *testing.T) {
	if _, err := ParseProbesJSON(strings.NewReader("{bad\n")); err == nil {
		t.Error("want parse error")
	}
	f, err := ParseProbesJSON(strings.NewReader("\n\n"))
	if err != nil || f.Len() != 0 {
		t.Errorf("blank input: %v %d", err, f.Len())
	}
}

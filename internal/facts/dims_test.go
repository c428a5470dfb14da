package facts

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"vzlens/internal/months"
)

// TestProbeRowWireKeys pins the probe dimension's wire keys. A lake's
// manifest carries the dimension as JSON, and encoding/json skips
// unknown keys: were valid_from or valid_to renamed, a lake written
// with the old keys would open ready with every window zeroed, and
// every probe would count as active forever in the reachability
// denominator. A literal row in the manifest's format decodes to its
// window and re-encodes byte for byte, and a probe dimension written
// in that format from a fleet (one probe disconnected) counts the
// fleet's active probes, overall and per country, in every month from
// 1998 to 2025.
func TestProbeRowWireKeys(t *testing.T) {
	const row = `{"id":7,"cc":"VE","asn":8048,"city":"Caracas","valid_from":24217,"valid_to":24255}`
	var p ProbeRow
	if err := json.Unmarshal([]byte(row), &p); err != nil {
		t.Fatal(err)
	}
	want := ProbeRow{ID: 7, CC: "VE", ASN: 8048, City: "Caracas",
		Window: months.Window{From: months.MustParse("2018-01"), To: months.MustParse("2021-03")}}
	if p != want {
		t.Fatalf("decoded %+v, want %+v", p, want)
	}
	if out, err := json.Marshal(p); err != nil || string(out) != row {
		t.Fatalf("re-encoded %s (%v), want %s", out, err, row)
	}

	w := testWorld(t)
	gone := w.Fleet.All()[0]
	gone.To = gone.From.Add(12)
	w.Fleet.Add(gone)
	var doc strings.Builder
	doc.WriteString(`{"probes":[`)
	countries := map[string]bool{}
	for i, p := range w.Fleet.All() {
		if i > 0 {
			doc.WriteByte(',')
		}
		fmt.Fprintf(&doc, `{"id":%d,"cc":%q,"asn":%d,"city":%q,"valid_from":%d,"valid_to":%d}`,
			p.ID, p.Country, p.ASN, p.City.Name, p.From, p.To)
		countries[p.Country] = true
	}
	doc.WriteString(`]}`)
	var dims Dimensions
	if err := json.Unmarshal([]byte(doc.String()), &dims); err != nil {
		t.Fatal(err)
	}
	if out, err := json.Marshal(&dims); err != nil || string(out) != doc.String() {
		t.Fatalf("probe dimension re-encodes differently (%v)", err)
	}
	for m := months.MustParse("1998-01"); !m.After(months.MustParse("2025-12")); m = m.Add(1) {
		if got, want := dims.ActiveProbes(m, "", 0), len(w.Fleet.ActiveAt(m)); got != want {
			t.Fatalf("active probes at %s: dimension %d, fleet %d", m, got, want)
		}
		for cc := range countries {
			if got, want := dims.ActiveProbes(m, cc, 0), len(w.Fleet.ActiveIn(cc, m)); got != want {
				t.Fatalf("active %s probes at %s: dimension %d, fleet %d", cc, m, got, want)
			}
		}
	}
}

package netsim

import (
	"strings"
	"testing"

	"vzlens/internal/geo"
)

func TestTraceVenezuelanPath(t *testing.T) {
	top := testTopology()
	ccs, _ := geo.LookupIATA("CCS")
	mia, _ := geo.LookupIATA("MIA")
	hops, err := NewResolver(top).Trace(401, ccs, Site{Host: 100, City: mia})
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) < 2 {
		t.Fatalf("hops = %v", hops)
	}
	if hops[0].ASN != 401 || hops[0].City != "Caracas" {
		t.Errorf("first hop = %+v", hops[0])
	}
	last := hops[len(hops)-1]
	if last.ASN != 100 || last.City != "Miami" {
		t.Errorf("last hop = %+v", last)
	}
	// Cumulative latency is monotone.
	for i := 1; i < len(hops); i++ {
		if hops[i].CumulativeMs < hops[i-1].CumulativeMs {
			t.Fatalf("latency decreases at hop %d: %v", i, hops)
		}
	}
	// Caracas to Miami should accumulate ~15-25 ms one way.
	if last.CumulativeMs < 10 || last.CumulativeMs > 30 {
		t.Errorf("end-to-end = %.1f ms", last.CumulativeMs)
	}
}

func TestTraceReplicaCityExtension(t *testing.T) {
	top := testTopology()
	bog, _ := geo.LookupIATA("BOG")
	mde, _ := geo.LookupIATA("MDE")
	// Site hosted by the Colombian transit (located Bogota) but the
	// replica sits in Medellin: an extra hop appears.
	hops, err := NewResolver(top).Trace(201, bog, Site{Host: 200, City: mde})
	if err != nil {
		t.Fatal(err)
	}
	last := hops[len(hops)-1]
	if last.City != "Medellin" {
		t.Errorf("last hop = %+v, want Medellin", last)
	}
}

func TestTraceUnreachable(t *testing.T) {
	top := testTopology()
	bog, _ := geo.LookupIATA("BOG")
	if _, err := NewResolver(top).Trace(401, bog, Site{Host: 9999, City: bog}); err != ErrUnreachable {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
}

func TestFormatTrace(t *testing.T) {
	out := FormatTrace([]Hop{
		{ASN: 8048, City: "Caracas", CumulativeMs: 0.3},
		{ASN: 6762, City: "Miami", CumulativeMs: 17.0},
	})
	if !strings.Contains(out, "AS8048") || !strings.Contains(out, "34.0 ms") {
		t.Errorf("FormatTrace = %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "1") {
		t.Errorf("lines = %v", lines)
	}
}

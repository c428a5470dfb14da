package world

import (
	"bytes"
	"testing"
	"time"

	"vzlens/internal/netsim"
)

// TestWorldDeterministic guards the reproducibility promise: two worlds
// built from the same configuration produce identical datasets and
// identical campaign results.
func TestWorldDeterministic(t *testing.T) {
	cfg := Config{
		TraceStart: mm(2023, time.January), TraceEnd: mm(2023, time.June),
		ChaosStart: mm(2023, time.January), ChaosEnd: mm(2023, time.June),
		Step: 3,
	}
	w1 := mustBuild(cfg)
	w2 := mustBuild(cfg)

	// Registry bytes.
	var r1, r2 bytes.Buffer
	if _, err := w1.Registry().WriteTo(&r1); err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Registry().WriteTo(&r2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1.Bytes(), r2.Bytes()) {
		t.Error("registry differs between identical builds")
	}

	// AS relationship bytes for a probe month.
	var g1, g2 bytes.Buffer
	if _, err := w1.MonthTopology(mm(2013, time.January)).Graph().WriteTo(&g1); err != nil {
		t.Fatal(err)
	}
	if _, err := w2.MonthTopology(mm(2013, time.January)).Graph().WriteTo(&g2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g1.Bytes(), g2.Bytes()) {
		t.Error("AS graph differs between identical builds")
	}

	// Trace campaign samples, including the jitter draws.
	s1 := w1.TraceCampaign().Samples()
	s2 := w2.TraceCampaign().Samples()
	if len(s1) != len(s2) {
		t.Fatalf("sample counts differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, s1[i], s2[i])
		}
	}

	// CHAOS campaign results.
	c1 := w1.ChaosCampaign().Results()
	c2 := w2.ChaosCampaign().Results()
	if len(c1) != len(c2) {
		t.Fatalf("chaos counts differ: %d vs %d", len(c1), len(c2))
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("chaos result %d differs", i)
		}
	}
}

// TestSeedChangesJitterOnly: a different seed must change the RTT noise
// but not the structural facts.
func TestSeedChangesJitterOnly(t *testing.T) {
	cfg := Config{
		TraceStart: mm(2023, time.June), TraceEnd: mm(2023, time.June),
	}
	cfgB := cfg
	cfgB.Seed = 99
	w1, w2 := mustBuild(cfg), mustBuild(cfgB)

	s1, s2 := w1.TraceCampaign().Samples(), w2.TraceCampaign().Samples()
	if len(s1) != len(s2) {
		t.Fatalf("structure changed with seed: %d vs %d samples", len(s1), len(s2))
	}
	differ := false
	for i := range s1 {
		if s1[i].ProbeID != s2[i].ProbeID || s1[i].ProbeCC != s2[i].ProbeCC {
			t.Fatal("probe assignment changed with seed")
		}
		if s1[i].RTTms != s2[i].RTTms {
			differ = true
		}
	}
	if !differ {
		t.Error("jitter identical across seeds")
	}
}

// TestGeoPolicyChangesCatchment: the ablation knob must actually switch
// the campaign's catchment behavior.
func TestGeoPolicyChangesCatchment(t *testing.T) {
	cfg := Config{
		TraceStart: mm(2023, time.June), TraceEnd: mm(2023, time.June),
	}
	cfgGeo := cfg
	cfgGeo.Policy = netsim.PolicyGeo
	bgpWorld, geoWorld := mustBuild(cfg), mustBuild(cfgGeo)

	vb, ok1 := bgpWorld.TraceCampaign().CountryMedian("VE", mm(2023, time.June))
	vg, ok2 := geoWorld.TraceCampaign().CountryMedian("VE", mm(2023, time.June))
	if !ok1 || !ok2 {
		t.Fatal("missing medians")
	}
	// Geographic selection sends Caracas traffic to the "nearby"
	// Colombian replica whose actual path is longer: latency rises.
	if vg <= vb {
		t.Errorf("geo policy median %.1f should exceed BGP median %.1f", vg, vb)
	}
}

// TestBuildOrgsDeterministic pins the as2org directory to one byte
// stream: a few synthetic ASes are wired into two countries, and each
// must take the same country on every build.
func TestBuildOrgsDeterministic(t *testing.T) {
	nets := buildNets()
	pop := buildPopulations(nets)
	var first []byte
	for i := 0; i < 20; i++ {
		var b bytes.Buffer
		if _, err := buildOrgs(nets, pop).WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = b.Bytes()
		} else if !bytes.Equal(b.Bytes(), first) {
			t.Fatalf("build %d wrote a different as2org directory", i)
		}
	}
}

package world

import (
	"bytes"
	"testing"
	"time"

	"vzlens/internal/atlas"
	"vzlens/internal/bgp"
	"vzlens/internal/dnsroot"
	"vzlens/internal/netsim"
)

func TestAccessDelayTrajectories(t *testing.T) {
	// Venezuela's access delay only improves with the 2022 fiber plans.
	early := AccessDelayMs("VE", mm(2016, time.January))
	late := AccessDelayMs("VE", mm(2023, time.December))
	if late >= early {
		t.Errorf("VE access delay %v -> %v, want improvement", early, late)
	}
	// Brazil's fiber boom cuts access latency by more than half.
	br14 := AccessDelayMs("BR", mm(2014, time.January))
	br23 := AccessDelayMs("BR", mm(2023, time.December))
	if br23 > br14/2 {
		t.Errorf("BR access delay %v -> %v", br14, br23)
	}
	// Unknown countries take the default.
	if got := AccessDelayMs("ZZ", mm(2020, time.January)); got != defaultAccessMs {
		t.Errorf("default access = %v", got)
	}
	// Clamping outside the anchor range.
	if AccessDelayMs("VE", mm(2010, time.January)) != AccessDelayMs("VE", mm(2014, time.January)) {
		t.Error("pre-range access should clamp to the first anchor")
	}
}

func TestGPDNSSitesGrowOverTime(t *testing.T) {
	n2014 := len(testWorld.GPDNSSitesAt(mm(2014, time.June)))
	n2023 := len(testWorld.GPDNSSitesAt(mm(2023, time.June)))
	if n2014 >= n2023 {
		t.Errorf("GPDNS sites %d -> %d, want growth", n2014, n2023)
	}
	// Never a Venezuelan site.
	for _, m := range []int{0, 60, 118} {
		for _, site := range testWorld.GPDNSSitesAt(mm(2014, time.January).Add(m)) {
			if site.City.Country == "VE" {
				t.Fatalf("GPDNS site in Venezuela at offset %d", m)
			}
		}
	}
}

func TestRootSitesHostAssignment(t *testing.T) {
	m := mm(2017, time.March)
	sitesL, instsL := testWorld.RootSitesAt('L', m)
	if len(sitesL) != len(instsL) || len(sitesL) == 0 {
		t.Fatalf("L sites = %d, insts = %d", len(sitesL), len(instsL))
	}
	foundCaracas := false
	for i, inst := range instsL {
		if inst.City.Country == "VE" && inst.City.Name == "Caracas" {
			foundCaracas = true
			if sitesL[i].Host != ASCANTV {
				t.Errorf("Caracas L root hosted by %d, want CANTV", sitesL[i].Host)
			}
		}
	}
	if !foundCaracas {
		t.Error("Caracas L root missing in 2017")
	}
	// The Maracaibo replacement sits inside Airtek.
	m2 := mm(2021, time.January)
	sites2, insts2 := testWorld.RootSitesAt('L', m2)
	for i, inst := range insts2 {
		if inst.City.Name == "Maracaibo" && sites2[i].Host != 61461 {
			t.Errorf("Maracaibo L root hosted by %d, want Airtek 61461", sites2[i].Host)
		}
	}
}

func TestLocalizeSites(t *testing.T) {
	gru := cityAt("GRU")
	mia := cityAt("MIA")
	sites := []netsim.Site{
		{Host: 4230, City: gru},
		{Host: ASGoogle, City: mia},
	}
	brProbe := atlas.Probe{Country: "BR", ASN: 265123}
	local := localizeSites(sites, brProbe)
	if local[0].Host != brProbe.ASN {
		t.Errorf("domestic site host = %d, want probe AS", local[0].Host)
	}
	if local[1].Host != ASGoogle {
		t.Errorf("foreign site host rewritten to %d", local[1].Host)
	}
	// The original slice is untouched.
	if sites[0].Host != 4230 {
		t.Error("localizeSites mutated its input")
	}
	// A probe with no domestic sites gets the original slice back.
	veProbe := atlas.Probe{Country: "VE", ASN: ASCANTV}
	if got := localizeSites(sites, veProbe); &got[0] != &sites[0] {
		t.Error("no-rewrite case should return the input slice")
	}
}

// TestASRelArchiveMatchesMonthlyTopologies pins the relationship
// archive's per-signature memo against faithful monthly topologies:
// for every month of 1998-01..2024-01 the archive's graph serializes to
// the same bytes as a fresh world's MonthTopology(m) graph, its AS set
// (an AS with any edge) is exactly the faithful topology's HasAS set
// over the kernel base's ASes — the set scenario.Compile checks ASNs
// against — and months share a graph exactly when their kernelSigAt is
// equal.
func TestASRelArchiveMatchesMonthlyTopologies(t *testing.T) {
	w := mustBuild(Config{})
	ref := mustBuild(Config{})
	lo, hi := mm(1998, time.January), mm(2024, time.January)
	arch := w.ASRelArchive(lo, hi)
	baseASes := w.kernelBaseTopology().Graph().ASes()
	if len(baseASes) != 241 {
		t.Fatalf("kernel base holds %d ASes, want 241", len(baseASes))
	}

	bySig := map[kernelSig]*bgp.Graph{}
	graphs := map[*bgp.Graph]bool{}
	n := 0
	for m := lo; !m.After(hi); m = m.Add(1) {
		n++
		g := arch.Get(m)
		if g == nil {
			t.Fatalf("%s: no graph archived", m)
		}
		var got, want bytes.Buffer
		if _, err := g.WriteTo(&got); err != nil {
			t.Fatal(err)
		}
		topo := ref.MonthTopology(m)
		if _, err := topo.Graph().WriteTo(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: archive graph differs from MonthTopology's (%d vs %d bytes)", m, got.Len(), want.Len())
		}
		for _, asn := range baseASes {
			p, c, peer := g.Degree(asn)
			if inGraph := p+c+peer > 0; inGraph != topo.HasAS(asn) {
				t.Errorf("%s: AS%d in archive graph %v, in faithful topology %v", m, asn, inGraph, !inGraph)
			}
		}
		sig := kernelSigAt(m)
		if prev, ok := bySig[sig]; ok && prev != g {
			t.Errorf("%s: signature %+v built a second graph", m, sig)
		}
		bySig[sig] = g
		graphs[g] = true
	}
	if n != 313 {
		t.Fatalf("checked %d months, want 313", n)
	}
	if len(graphs) != len(bySig) || len(graphs) != 45 {
		t.Errorf("archive holds %d graphs for %d signatures, want 45 of each", len(graphs), len(bySig))
	}
}

func TestRootSitesEveryLetterResolvable(t *testing.T) {
	m := mm(2023, time.June)
	resolver := netsim.NewResolver(testWorld.MonthTopology(m))
	probe := testWorld.Fleet.ActiveIn("VE", m)[0]
	for _, letter := range dnsroot.Letters() {
		sites, _ := testWorld.RootSitesAt(letter, m)
		if len(sites) == 0 {
			t.Errorf("%s: no instances deployed", letter)
			continue
		}
		if _, _, err := resolver.CatchmentIndex(probe.ASN, probe.City, sites, netsim.PolicyBGP); err != nil {
			t.Errorf("%s: catchment failed: %v", letter, err)
		}
	}
}

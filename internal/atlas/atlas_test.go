package atlas

import (
	"testing"
	"time"

	"vzlens/internal/bgp"
	"vzlens/internal/dnsroot"
	"vzlens/internal/geo"
	"vzlens/internal/months"
)

func mon(y int, m time.Month) months.Month { return months.New(y, m) }

func TestProbeActiveWindow(t *testing.T) {
	p := Probe{Connected: mon(2016, time.March), Disconnected: mon(2020, time.January)}
	if p.ActiveAt(mon(2016, time.February)) {
		t.Error("active before connect")
	}
	if !p.ActiveAt(mon(2018, time.June)) {
		t.Error("inactive mid-life")
	}
	if p.ActiveAt(mon(2020, time.January)) {
		t.Error("active after disconnect")
	}
	forever := Probe{Connected: mon(2016, time.March)}
	if !forever.ActiveAt(mon(2030, time.January)) {
		t.Error("open-ended probe should stay active")
	}
}

func TestFleetAddReplace(t *testing.T) {
	f := NewFleet()
	f.Add(Probe{ID: 1, Country: "VE"})
	f.Add(Probe{ID: 1, Country: "BR"})
	if f.Len() != 1 {
		t.Fatalf("Len = %d", f.Len())
	}
	p, ok := f.Probe(1)
	if !ok || p.Country != "BR" {
		t.Errorf("Probe = %+v %v", p, ok)
	}
	if _, ok := f.Probe(2); ok {
		t.Error("missing probe resolved")
	}
}

func TestBuildFleetGrowth(t *testing.T) {
	plans := []CountryPlan{{
		CC: "VE",
		Anchors: []CountAnchor{
			{mon(2016, time.January), 10},
			{mon(2022, time.January), 14},
			{mon(2024, time.January), 30},
		},
		ASNs: []bgp.ASN{8048, 21826},
	}}
	f := BuildFleet(plans)
	if f.Len() != 30 {
		t.Fatalf("fleet size = %d, want 30", f.Len())
	}
	if n := f.CountByCountry(mon(2016, time.June))["VE"]; n != 10 {
		t.Errorf("VE 2016 = %d, want 10", n)
	}
	if n := f.CountByCountry(mon(2022, time.January))["VE"]; n < 13 || n > 15 {
		t.Errorf("VE 2022 = %d, want ~14", n)
	}
	if n := f.CountByCountry(mon(2024, time.January))["VE"]; n != 30 {
		t.Errorf("VE 2024 = %d, want 30", n)
	}
	// Monotone growth month over month.
	prev := 0
	for _, m := range months.Range(mon(2016, time.January), mon(2024, time.January)) {
		n := f.CountByCountry(m)["VE"]
		if n < prev {
			t.Fatalf("fleet shrank at %v: %d < %d", m, n, prev)
		}
		prev = n
	}
	// ASNs cycle: both ASNs host probes.
	byASN := map[bgp.ASN]int{}
	for _, p := range f.ActiveAt(mon(2024, time.January)) {
		byASN[p.ASN]++
	}
	if byASN[8048] == 0 || byASN[21826] == 0 {
		t.Errorf("ASN assignment = %v", byASN)
	}
	// Cities come from the country's city table.
	for _, p := range f.ActiveAt(mon(2024, time.January)) {
		if p.City.Country != "VE" {
			t.Errorf("probe city %v not in VE", p.City)
		}
	}
}

func TestBuildFleetUnknownCountryCity(t *testing.T) {
	f := BuildFleet([]CountryPlan{{
		CC:      "ZZ",
		Anchors: []CountAnchor{{mon(2016, time.January), 2}},
	}})
	if f.Len() != 2 {
		t.Fatalf("Len = %d", f.Len())
	}
	p, _ := f.Probe(1000)
	if p.City.Country != "ZZ" {
		t.Errorf("placeholder city = %+v", p.City)
	}
}

func TestCountryRank(t *testing.T) {
	f := NewFleet()
	id := 0
	addN := func(cc string, n int) {
		for i := 0; i < n; i++ {
			id++
			f.Add(Probe{ID: id, Country: cc, Connected: mon(2016, time.January)})
		}
	}
	addN("BR", 100)
	addN("AR", 50)
	addN("VE", 30)
	addN("UY", 10)
	rank, of := f.CountryRank("VE", mon(2020, time.January))
	if rank != 3 || of != 4 {
		t.Errorf("rank = %d/%d, want 3/4", rank, of)
	}
}

func chaosName(l dnsroot.Letter, iata string, era dnsroot.Era) string {
	city, ok := geo.LookupIATA(iata)
	if !ok {
		panic("unknown IATA " + iata)
	}
	return dnsroot.InstanceName(l, city, 1, era)
}

func TestChaosSitesByCountry(t *testing.T) {
	c := NewChaosCampaign()
	m := mon(2017, time.March)
	// Two Venezuelan probes both see the Caracas L and F roots; a
	// Brazilian probe sees a Sao Paulo L root.
	c.Add(ChaosResult{m, 1, "VE", 'L', chaosName('L', "CCS", dnsroot.EraClassic)})
	c.Add(ChaosResult{m, 2, "VE", 'L', chaosName('L', "CCS", dnsroot.EraClassic)})
	c.Add(ChaosResult{m, 1, "VE", 'F', chaosName('F', "CCS", dnsroot.EraClassic)})
	c.Add(ChaosResult{m, 3, "BR", 'L', chaosName('L', "GRU", dnsroot.EraClassic)})
	// Garbage response is skipped.
	c.Add(ChaosResult{m, 3, "BR", 'F', "not-a-real-response"})

	all := c.SitesByCountry(m, "")
	if all["VE"] != 2 {
		t.Errorf("VE sites = %d, want 2 (L and F in Caracas)", all["VE"])
	}
	if all["BR"] != 1 {
		t.Errorf("BR sites = %d, want 1", all["BR"])
	}
	// Restricted to Venezuelan probes, the Brazilian site disappears.
	ve := c.SitesByCountry(m, "VE")
	if ve["BR"] != 0 || ve["VE"] != 2 {
		t.Errorf("VE-probe view = %v", ve)
	}
}

func TestChaosDistinctInstancesNotResponses(t *testing.T) {
	c := NewChaosCampaign()
	m := mon(2017, time.March)
	// 50 probes seeing the same instance count once.
	for i := 0; i < 50; i++ {
		c.Add(ChaosResult{m, i, "BR", 'L', chaosName('L', "GRU", dnsroot.EraClassic)})
	}
	if got := c.SitesByCountry(m, "")["BR"]; got != 1 {
		t.Errorf("BR sites = %d, want 1", got)
	}
	// Same city, different letter → two instances.
	c.Add(ChaosResult{m, 1, "BR", 'F', chaosName('F', "GRU", dnsroot.EraClassic)})
	if got := c.SitesByCountry(m, "")["BR"]; got != 2 {
		t.Errorf("BR sites = %d, want 2", got)
	}
}

// TestSitesByCountryAllocs pins the per-month site count, which Fig 6
// reads for every month and the scenario diff for every month of both
// sides, to a fixed handful of allocations however many answers the
// month holds: a counter per dictionary code and the result map (plus
// the per-answer filter when restricted to one probe country), no set
// of seen answers.
func TestSitesByCountryAllocs(t *testing.T) {
	m := mon(2023, time.June)
	cities := []string{"CCS", "GRU", "MIA", "BOG", "SCL", "EZE", "LIM", "UIO", "PTY", "MEX", "FRA", "AMS"}
	c := NewChaosCampaign()
	id := 0
	for _, l := range dnsroot.Letters() {
		for i, iata := range cities {
			cc := "VE"
			if i%2 == 1 {
				cc = "BR"
			}
			c.Add(ChaosResult{m, id, cc, l, chaosName(l, iata, dnsroot.EraModern)})
			id++
		}
	}
	p := c.part(m)
	if len(p.Answers) != len(cities)*len(dnsroot.Letters()) {
		t.Fatalf("%d answers, want %d", len(p.Answers), len(cities)*len(dnsroot.Letters()))
	}
	if got := p.sitesByCountry("")["VE"]; got != 13 {
		t.Fatalf("VE sites = %d, want 13 (one per letter)", got)
	}
	// A set of seen answers took 16 and 12.
	if all := testing.AllocsPerRun(100, func() { p.sitesByCountry("") }); all > 5 {
		t.Errorf("sitesByCountry over all probes: %.1f allocs/run, want <= 5", all)
	}
	if ve := testing.AllocsPerRun(100, func() { p.sitesByCountry("VE") }); ve > 4 {
		t.Errorf("sitesByCountry over VE probes: %.1f allocs/run, want <= 4", ve)
	}
}

func TestChaosCountrySeriesAndProbes(t *testing.T) {
	c := NewChaosCampaign()
	m1, m2 := mon(2016, time.January), mon(2023, time.January)
	c.Add(ChaosResult{m1, 1, "VE", 'L', chaosName('L', "CCS", dnsroot.EraClassic)})
	c.Add(ChaosResult{m2, 1, "VE", 'L', chaosName('L', "MIA", dnsroot.EraModern)})

	series := c.CountrySeries("VE")
	if series[m1] != 1 || series[m2] != 0 {
		t.Errorf("VE series = %v", series)
	}
	if got := c.ProbesSeen(m1)["VE"]; got != 1 {
		t.Errorf("ProbesSeen = %d", got)
	}
	if ms := c.Months(); len(ms) != 2 || ms[0] != m1 {
		t.Errorf("Months = %v", ms)
	}
}

func TestTraceCountryMedian(t *testing.T) {
	tc := NewTraceCampaign()
	m := mon(2023, time.June)
	// Probe 1: min 30 across noisy samples. Probe 2: min 40. Probe 3: 50.
	tc.Add(TraceSample{m, 1, "VE", 90})
	tc.Add(TraceSample{m, 1, "VE", 30})
	tc.Add(TraceSample{m, 2, "VE", 40})
	tc.Add(TraceSample{m, 3, "VE", 50})
	med, ok := tc.CountryMedian("VE", m)
	if !ok || med != 40 {
		t.Errorf("median = %v %v, want 40 (median of per-probe minimums)", med, ok)
	}
	// Naive mean is pulled up by the congested sample.
	mean, ok := tc.CountryMeanNaive("VE", m)
	if !ok || mean <= med {
		t.Errorf("naive mean = %v, want > median %v", mean, med)
	}
	if _, ok := tc.CountryMedian("BR", m); ok {
		t.Error("no-sample country should not report a median")
	}
}

func TestTraceMedianPanel(t *testing.T) {
	tc := NewTraceCampaign()
	m := mon(2023, time.June)
	tc.Add(TraceSample{m, 1, "VE", 36})
	tc.Add(TraceSample{m, 2, "BR", 8})
	p := tc.MedianPanel()
	if p.Country("VE").At(m) != 36 || p.Country("BR").At(m) != 8 {
		t.Errorf("panel VE=%v BR=%v", p.Country("VE").At(m), p.Country("BR").At(m))
	}
}

func TestProbeMinsWithLocation(t *testing.T) {
	f := NewFleet()
	sci, _ := geo.LookupIATA("SCI")
	f.Add(Probe{ID: 7, Country: "VE", City: sci, Connected: mon(2016, time.January)})
	tc := NewTraceCampaign()
	m := mon(2023, time.December)
	tc.Add(TraceSample{m, 7, "VE", 9.5})
	tc.Add(TraceSample{m, 8, "VE", 50}) // unknown probe: dropped

	got := tc.ProbeMinsWithLocation(f, "VE", m)
	if len(got) != 1 {
		t.Fatalf("got %d probes, want 1", len(got))
	}
	pr := got[7]
	if pr.MinRTTms != 9.5 || pr.Probe.City.Name != "San Cristobal" {
		t.Errorf("ProbeRTT = %+v", pr)
	}
}

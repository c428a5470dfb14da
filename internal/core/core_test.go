package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"vzlens/internal/months"
	"vzlens/internal/world"
)

// mustBuild is the test-only panicking form of world.Build.
func mustBuild(cfg world.Config) *world.World {
	w, err := world.Build(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

// testWorld is shared across the analysis tests.
var testWorld = mustBuild(world.Config{})

func TestFig1Economy(t *testing.T) {
	r := Fig1Economy()
	if math.Abs(r.OilDropPct-(-81.5)) > 3.5 {
		t.Errorf("oil drop = %.2f, want ~-81.49", r.OilDropPct)
	}
	if math.Abs(r.GDPDropPct-(-70.9)) > 2 {
		t.Errorf("GDP drop = %.2f, want ~-70.90", r.GDPDropPct)
	}
	if r.InflationPeak != 32000 {
		t.Errorf("inflation peak = %v, want 32000", r.InflationPeak)
	}
	if math.Abs(r.PopulationDropPct-(-13.85)) > 1 {
		t.Errorf("population drop = %.2f, want ~-13.85", r.PopulationDropPct)
	}
	txt := r.Table().Text()
	if !strings.Contains(txt, "oil production") {
		t.Errorf("table missing rows: %s", txt)
	}
}

func TestFig2AddressSpace(t *testing.T) {
	r := Fig2AddressSpace(testWorld)
	if r.CANTVAvgShare < 0.40 || r.CANTVAvgShare > 0.58 {
		t.Errorf("CANTV avg share = %.2f", r.CANTVAvgShare)
	}
	if r.CANTVPeakShare < 0.60 || r.CANTVPeakShare > 0.78 {
		t.Errorf("CANTV peak share = %.2f", r.CANTVPeakShare)
	}
	if r.MinGap > 0.20 {
		t.Errorf("min pre-2014 gap = %.2f, want narrow", r.MinGap)
	}
	if len(r.CANTVShare.Points()) == 0 || len(r.TelefonicaSpace.Points()) == 0 {
		t.Error("series not populated")
	}
}

func TestFig3Facilities(t *testing.T) {
	r := Fig3Facilities(testWorld)
	if r.RegionStart < 170 || r.RegionStart > 195 {
		t.Errorf("region 2018 = %d", r.RegionStart)
	}
	if r.RegionEnd < 535 || r.RegionEnd > 565 {
		t.Errorf("region 2024 = %d", r.RegionEnd)
	}
	if r.VEFacilities != 4 {
		t.Errorf("VE facilities = %d, want 4", r.VEFacilities)
	}
}

func TestFig4Cables(t *testing.T) {
	r := Fig4Cables(testWorld)
	if r.RegionAt2000 != 13 || r.RegionAt2024 != 54 {
		t.Errorf("region = %d → %d, want 13 → 54", r.RegionAt2000, r.RegionAt2024)
	}
	if len(r.VEAdditionsSince2000) != 1 || r.VEAdditionsSince2000[0] != "ALBA-1" {
		t.Errorf("VE additions = %v", r.VEAdditionsSince2000)
	}
	if len(r.Years) != len(r.Region) {
		t.Error("years/region length mismatch")
	}
}

func TestFig5IPv6(t *testing.T) {
	r := Fig5IPv6()
	if r.VELatest < 1.0 || r.VELatest > 2.0 {
		t.Errorf("VE adoption = %.2f, want ~1.5", r.VELatest)
	}
	if r.RegionLatest < 17 || r.RegionLatest > 27 {
		t.Errorf("region adoption = %.2f, want ~22", r.RegionLatest)
	}
}

func TestFig8CANTV(t *testing.T) {
	r := Fig8CANTV(testWorld)
	if r.PeakUpstreams != 11 {
		t.Errorf("peak upstreams = %d, want 11", r.PeakUpstreams)
	}
	if r.PeakUpstreamMonth.Year() < 2011 || r.PeakUpstreamMonth.Year() > 2013 {
		t.Errorf("peak month = %v, want ~2013", r.PeakUpstreamMonth)
	}
	if r.TroughUpstreams != 3 {
		t.Errorf("trough upstreams = %d, want 3", r.TroughUpstreams)
	}
	if r.LatestDownstreams < 18 {
		t.Errorf("downstreams = %d, want ~21", r.LatestDownstreams)
	}
}

func TestFig9TransitHeatmap(t *testing.T) {
	r := Fig9TransitHeatmap(testWorld)
	if len(r.USDepartures) < 6 {
		t.Errorf("US departures = %d, want >= 6", len(r.USDepartures))
	}
	if len(r.RemainingUS) != 1 || r.RemainingUS[0] != world.ASColumbus {
		t.Errorf("remaining US = %v, want Columbus only", r.RemainingUS)
	}
	// Verizon leaves in 2013, Level3 in 2018.
	if m, ok := r.USDepartures[world.ASVerizon]; !ok || m.Year() != 2013 {
		t.Errorf("Verizon departure = %v, want 2013", m)
	}
	if m, ok := r.USDepartures[world.ASLevel3]; !ok || m.Year() != 2018 {
		t.Errorf("Level3 departure = %v, want 2018", m)
	}
	if len(r.History) < 12 {
		t.Errorf("provider history = %d entries, want the full roster", len(r.History))
	}
}

func TestFig10IXPHeatmap(t *testing.T) {
	r := Fig10IXPHeatmap(testWorld)
	if math.Abs(r.ARShareAtARIX-0.624) > 0.03 {
		t.Errorf("AR-IX share = %.3f, want 0.624", r.ARShareAtARIX)
	}
	if math.Abs(r.BRShareAtIXbr-0.4553) > 0.03 {
		t.Errorf("IX.br share = %.3f, want 0.4553", r.BRShareAtIXbr)
	}
	if math.Abs(r.CLShareAtPITChile-0.4957) > 0.03 {
		t.Errorf("PIT share = %.3f, want 0.4957", r.CLShareAtPITChile)
	}
	if r.VEPresent {
		t.Error("VE should be absent from the 18 largest IXPs")
	}
	if math.Abs(r.VEAtEquinixBogota-0.04) > 0.02 {
		t.Errorf("VE at Equinix Bogota = %.3f, want ~0.04", r.VEAtEquinixBogota)
	}
}

func TestFig21USIXPs(t *testing.T) {
	r := Fig21USIXPs(testWorld)
	if r.VENetworks != 7 {
		t.Errorf("VE networks = %d, want 7", r.VENetworks)
	}
	if r.VEShare < 0.05 || r.VEShare > 0.09 {
		t.Errorf("VE share = %.3f, want ~0.07", r.VEShare)
	}
	if len(r.CountriesPresent) < 5 {
		t.Errorf("countries present = %v", r.CountriesPresent)
	}
}

func TestTable1Eyeballs(t *testing.T) {
	r := Table1Eyeballs(testWorld)
	if len(r.Rows) != 10 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Rows[0].ASN != 8048 || r.Rows[0].Users != 4330868 {
		t.Errorf("rank 1 = %+v", r.Rows[0])
	}
	if math.Abs(r.TopTenShare-0.7718) > 0.002 {
		t.Errorf("top-10 share = %.4f, want 0.7718", r.TopTenShare)
	}
	if math.Abs(r.CANTVShare-0.2150) > 0.002 {
		t.Errorf("CANTV share = %.4f, want 0.2150", r.CANTVShare)
	}
	txt := r.Table().Text()
	if !strings.Contains(txt, "4,330,868") {
		t.Errorf("table formatting: %s", txt)
	}
}

func TestFig13GDPRank(t *testing.T) {
	r := Fig13GDPRank()
	want := map[int]int{1980: 3, 1985: 2, 1990: 8, 1995: 9, 2000: 7, 2005: 6, 2010: 6, 2015: 18, 2020: 23}
	for year, rank := range want {
		if r.Ranks[year] != rank {
			t.Errorf("%d: rank = %d, want %d", year, r.Ranks[year], rank)
		}
	}
	if r.Of != 24 {
		t.Errorf("of = %d, want 24", r.Of)
	}
}

func TestFig14PrefixVisibility(t *testing.T) {
	r := Fig14PrefixVisibility(testWorld)
	if len(r.Withdrawn) < 8 {
		t.Errorf("withdrawn = %v, want the /17 block set", r.Withdrawn)
	}
	foundAgg := false
	for _, p := range r.Reappeared {
		if p == "179.20.0.0/14" {
			foundAgg = true
		}
	}
	if !foundAgg {
		t.Errorf("reappeared = %v, want 179.20.0.0/14", r.Reappeared)
	}
}

func TestFig15FacilityMembers(t *testing.T) {
	r := Fig15FacilityMembers(testWorld)
	if r.Latest["Cirion La Urbina"] != 11 {
		t.Errorf("Cirion = %d, want 11", r.Latest["Cirion La Urbina"])
	}
	if r.Latest["GigaPOP Maracaibo"] != 0 {
		t.Errorf("GigaPOP = %d, want 0", r.Latest["GigaPOP Maracaibo"])
	}
	if len(r.TotalNames) != 4 {
		t.Errorf("facilities = %v", r.TotalNames)
	}
}

func TestFig17AtlasFootprint(t *testing.T) {
	r := Fig17AtlasFootprint(testWorld)
	if r.VE2016 != 10 || r.VE2024 != 30 {
		t.Errorf("VE probes = %d → %d, want 10 → 30", r.VE2016, r.VE2024)
	}
	if r.VERank != 6 {
		t.Errorf("VE rank = %d, want 6", r.VERank)
	}
}

func TestFig7Offnets(t *testing.T) {
	r := Fig7Offnets(testWorld, []string{"Google", "Akamai", "Facebook", "Netflix"})
	// Paper: VE averages — Google 56.88%, Akamai 35.74%, Facebook
	// 28.33%, Netflix 5.87%.
	check := func(provider string, want, tol float64) {
		t.Helper()
		got := r.VEAverage[provider]
		if math.Abs(got-want) > tol {
			t.Errorf("%s VE average = %.3f, want %.3f±%.2f", provider, got, want, tol)
		}
	}
	check("Google", 0.5688, 0.08)
	check("Akamai", 0.3574, 0.08)
	check("Facebook", 0.2833, 0.10)
	check("Netflix", 0.0587, 0.06)
	// Google present in VE from 2013; Netflix nearly absent until 2019.
	if r.Coverage["Google"]["VE"][2013] < 0.3 {
		t.Error("Google should cover VE from 2013")
	}
	if r.Coverage["Netflix"]["VE"][2016] != 0 {
		t.Error("Netflix should not cover VE in 2016")
	}
}

func TestFig18MinorHypergiantsAbsent(t *testing.T) {
	r := Fig7Offnets(testWorld, []string{"Microsoft", "Cloudflare", "Amazon", "Limelight", "CDNetworks", "Alibaba"})
	for provider, byCountry := range r.Coverage {
		for year, v := range byCountry["VE"] {
			if v != 0 {
				t.Errorf("%s covers VE in %d (%.2f), want none", provider, year, v)
			}
		}
	}
}

func TestFig11Bandwidth(t *testing.T) {
	r := Fig11Bandwidth(7, months.New(2007, time.July), months.New(2024, time.January), 6)
	if math.Abs(r.VEJuly2023-2.93) > 0.6 {
		t.Errorf("VE July 2023 = %.2f, want ~2.93", r.VEJuly2023)
	}
	if r.PeersJuly2023["UY"] < 38 {
		t.Errorf("UY = %.2f, want ~47", r.PeersJuly2023["UY"])
	}
	if r.VEOverRegion09 < 0.6 || r.VEOverRegion09 > 1.25 {
		t.Errorf("VE/region 2009 = %.2f, want ~0.89", r.VEOverRegion09)
	}
	if r.VEOverRegion23 < 0.10 || r.VEOverRegion23 > 0.28 {
		t.Errorf("VE/region 2023 = %.2f, want ~0.17", r.VEOverRegion23)
	}
}

func TestFig19ThirdParty(t *testing.T) {
	r := Fig19ThirdParty()
	if math.Abs(r.VE.DNS-0.29) > 0.01 || math.Abs(r.Means.DNS-0.32) > 0.01 {
		t.Errorf("DNS = %.2f/%.2f, want 0.29/0.32", r.VE.DNS, r.Means.DNS)
	}
	if math.Abs(r.VE.CDN-0.37) > 0.01 || math.Abs(r.Means.CDN-0.46) > 0.01 {
		t.Errorf("CDN = %.2f/%.2f, want 0.37/0.46", r.VE.CDN, r.Means.CDN)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Caption: "cap", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	txt := tab.Text()
	if !strings.Contains(txt, "cap\n") || !strings.Contains(txt, "---") {
		t.Errorf("Text = %q", txt)
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,bb\n") {
		t.Errorf("CSV = %q", csv)
	}
	quoted := &Table{Header: []string{"x"}}
	quoted.AddRow(`has,comma "and quotes"`)
	if !strings.Contains(quoted.CSV(), `"has,comma ""and quotes"""`) {
		t.Errorf("CSV quoting = %q", quoted.CSV())
	}
}

func TestItoa64(t *testing.T) {
	cases := map[int64]string{
		0: "0", 5: "5", 999: "999", 1000: "1,000",
		4330868: "4,330,868", -12345: "-12,345",
	}
	for in, want := range cases {
		if got := itoa64(in); got != want {
			t.Errorf("itoa64(%d) = %q, want %q", in, got, want)
		}
	}
}

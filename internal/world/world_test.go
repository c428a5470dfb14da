package world

import (
	"slices"
	"testing"
	"time"

	"vzlens/internal/bgp"
	"vzlens/internal/geo"
	"vzlens/internal/months"
	"vzlens/internal/peeringdb"
)

// mustBuild is the test-only panicking form of Build.
func mustBuild(cfg Config) *World {
	w, err := Build(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

// testWorld builds one shared world for the calibration tests.
var testWorld = mustBuild(Config{})

func TestCANTVUpstreamTimeline(t *testing.T) {
	// Figure 8: steady rise to 11 upstreams by 2013, decline to 3 by
	// 2020, recent rebound.
	if n := len(CANTVProvidersAt(mm(2013, time.January))); n != 11 {
		t.Errorf("upstreams 2013 = %d, want 11", n)
	}
	if n := len(CANTVProvidersAt(mm(2020, time.January))); n != 3 {
		t.Errorf("upstreams 2020 = %d, want 3", n)
	}
	if n := len(CANTVProvidersAt(mm(2023, time.January))); n < 5 {
		t.Errorf("upstreams 2023 = %d, want rebound >= 5", n)
	}
	if n := len(CANTVProvidersAt(mm(1998, time.June))); n < 2 || n > 4 {
		t.Errorf("upstreams 1998 = %d, want small early set", n)
	}
}

func TestUSProvidersDepartAfter2013(t *testing.T) {
	// Figure 9: after the departures, Columbus Networks is the only
	// remaining US-based provider.
	usProviders := map[bgp.ASN]bool{
		ASVerizon: true, ASSprint: true, ASATT: true, ASGTT: true,
		ASnLayer: true, ASLevel3: true, ASGBLX: true, ASColumbus: true,
	}
	at2019 := CANTVProvidersAt(mm(2019, time.January))
	for _, p := range at2019 {
		if usProviders[p] && p != ASColumbus {
			t.Errorf("US provider %d still serving CANTV in 2019", p)
		}
	}
	found := false
	for _, p := range at2019 {
		if p == ASColumbus {
			found = true
		}
	}
	if !found {
		t.Error("Columbus Networks should remain")
	}
	// Named departures at the documented times.
	checkGone := func(asn bgp.ASN, m months.Month) {
		t.Helper()
		for _, p := range CANTVProvidersAt(m) {
			if p == asn {
				t.Errorf("AS%d should have departed by %v", asn, m)
			}
		}
	}
	checkGone(ASVerizon, mm(2014, time.January)) // 2013
	checkGone(ASSprint, mm(2014, time.January))  // 2013
	checkGone(ASATT, mm(2014, time.January))     // 2013
	checkGone(ASGTT, mm(2018, time.January))     // 2017
	checkGone(ASnLayer, mm(2018, time.January))  // 2017
	checkGone(ASLevel3, mm(2019, time.January))  // 2018
	checkGone(ASGBLX, mm(2019, time.January))    // 2018
}

func TestCANTVDownstreamGrowth(t *testing.T) {
	if n := cantvCustomerCount(mm(2006, time.June)); n != 0 {
		t.Errorf("customers before nationalization = %d", n)
	}
	n2015 := cantvCustomerCount(mm(2015, time.January))
	n2024 := cantvCustomerCount(mm(2024, time.January))
	if n2015 < 5 || n2015 > 15 {
		t.Errorf("customers 2015 = %d", n2015)
	}
	if n2024 < 18 || n2024 > 25 {
		t.Errorf("customers 2024 = %d, want ~20", n2024)
	}
}

func TestAddressSpaceSharesFigure2(t *testing.T) {
	// CANTV dominates: peak share near 69%, long-run average near 43%.
	var sum float64
	var n int
	peak := 0.0
	for m := mm(2008, time.January); !m.After(mm(2024, time.January)); m = m.Add(3) {
		rib := buildVERIB(m)
		total := 0.0
		for _, asn := range append([]bgp.ASN{ASCANTV, ASTelefonica}, veOthers()...) {
			total += float64(rib.AnnouncedSpace(asn))
		}
		if total == 0 {
			continue
		}
		share := float64(rib.AnnouncedSpace(ASCANTV)) / total
		sum += share
		n++
		if share > peak {
			peak = share
		}
	}
	avg := sum / float64(n)
	if avg < 0.40 || avg > 0.58 {
		t.Errorf("CANTV average share = %.2f, want ~0.43-0.55", avg)
	}
	if peak < 0.60 || peak > 0.78 {
		t.Errorf("CANTV peak share = %.2f, want ~0.69", peak)
	}
}

func veOthers() []bgp.ASN {
	var out []bgp.ASN
	for asn := range otherVEPrefixes {
		out = append(out, asn)
	}
	return out
}

func TestTelefonicaNarrowsThenContracts(t *testing.T) {
	shareAt := func(m months.Month) (cantv, telf float64) {
		rib := buildVERIB(m)
		total := 0.0
		for _, asn := range append([]bgp.ASN{ASCANTV, ASTelefonica}, veOthers()...) {
			total += float64(rib.AnnouncedSpace(asn))
		}
		return float64(rib.AnnouncedSpace(ASCANTV)) / total,
			float64(rib.AnnouncedSpace(ASTelefonica)) / total
	}
	c13, t13 := shareAt(mm(2013, time.June))
	gap13 := c13 - t13
	if gap13 > 0.20 {
		t.Errorf("2013 gap = %.2f, want narrow (~0.11)", gap13)
	}
	c17, t17 := shareAt(mm(2017, time.June))
	gap17 := c17 - t17
	if gap17 <= gap13 {
		t.Errorf("gap should re-widen after the 2016 contraction: %.2f vs %.2f", gap17, gap13)
	}
	// Telefonica's announced space shrinks between 2016 and 2017.
	rib16 := buildVERIB(mm(2016, time.January))
	rib17 := buildVERIB(mm(2017, time.January))
	if rib17.AnnouncedSpace(ASTelefonica) >= rib16.AnnouncedSpace(ASTelefonica) {
		t.Error("Telefonica space should contract after June 2016")
	}
	// And recovers with the June 2023 aggregates.
	rib23 := buildVERIB(mm(2023, time.December))
	if rib23.AnnouncedSpace(ASTelefonica) <= rib17.AnnouncedSpace(ASTelefonica) {
		t.Error("Telefonica space should recover in 2023")
	}
}

func TestPrefixVisibilityFigure14(t *testing.T) {
	arch := testWorld.RIBArchive(mm(2016, time.January), mm(2024, time.January))
	matrix := arch.VisibilityMatrix(ASTelefonica)
	gone := matrix["161.255.0.0/17"]
	if len(gone) == 0 {
		t.Fatal("161.255.0.0/17 never visible")
	}
	last := gone[len(gone)-1]
	if !last.Before(mm(2016, time.July)) {
		t.Errorf("161.255.0.0/17 last seen %v, want before 2016-07", last)
	}
	agg := matrix["179.20.0.0/14"]
	if len(agg) == 0 {
		t.Fatal("179.20.0.0/14 never visible")
	}
	if agg[0].Before(mm(2023, time.June)) {
		t.Errorf("179.20.0.0/14 first seen %v, want 2023-06", agg[0])
	}
}

func TestRegistryConsistentWithRIB(t *testing.T) {
	// CANTV's delegated space at 2024 matches its long-held announcements.
	var canv int64
	holders := map[string]bool{}
	for _, r := range testWorld.Registry().Records() {
		if r.Type != "ipv4" {
			continue
		}
		if r.Holder == "ORG-CANV" && !r.Date.After(mm(2024, time.January)) {
			canv += r.Value
		}
		if r.Country == "VE" && r.Holder != "" {
			holders[r.Holder] = true
		}
	}
	rib := buildVERIB(mm(2024, time.January))
	announcedCANTV := rib.AnnouncedSpace(ASCANTV) + rib.AnnouncedSpace(ASMovilnet)
	ratio := float64(announcedCANTV) / float64(canv)
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("announced/delegated = %.2f, want ~1", ratio)
	}
	if len(holders) < 5 {
		t.Errorf("VE holders = %v", holders)
	}
}

func TestFacilityGrowthFigure3(t *testing.T) {
	at := func(m months.Month) map[string]int {
		return testWorld.PeeringDBSnapshot(m).FacilityCount()
	}
	c18 := at(mm(2018, time.April))
	c24 := at(mm(2024, time.January))
	sum := func(counts map[string]int) int {
		total := 0
		for _, n := range counts {
			total += n
		}
		return total
	}
	if got := sum(c18); got < 170 || got > 195 {
		t.Errorf("region facilities 2018 = %d, want ~180", got)
	}
	if got := sum(c24); got < 535 || got > 565 {
		t.Errorf("region facilities 2024 = %d, want ~552", got)
	}
	if c18["BR"] != 102 || c24["BR"] != 311 {
		t.Errorf("BR = %d → %d, want 102 → 311", c18["BR"], c24["BR"])
	}
	if c18["MX"] != 11 || c24["MX"] != 45 {
		t.Errorf("MX = %d → %d, want 11 → 45", c18["MX"], c24["MX"])
	}
	if c18["VE"] != 0 || c24["VE"] != 4 {
		t.Errorf("VE = %d → %d, want 0 → 4", c18["VE"], c24["VE"])
	}
	if c18["CR"] != 3 || c24["CR"] != 8 {
		t.Errorf("CR = %d → %d, want 3 → 8 (ICE comparison)", c18["CR"], c24["CR"])
	}
}

func TestVEFacilityStory(t *testing.T) {
	// Two facilities registered in 2021, the rest in 2023 (Section 5.1).
	if n := len(testWorld.VEFacilityNamesAt(mm(2021, time.December))); n != 2 {
		t.Errorf("VE facilities end-2021 = %d, want 2", n)
	}
	names := testWorld.VEFacilityNamesAt(mm(2023, time.June))
	if len(names) != 4 {
		t.Fatalf("VE facilities 2023 = %v", names)
	}
	// The Lumen→Cirion rename after the Stonepeak sale.
	early := testWorld.VEFacilityNamesAt(mm(2022, time.January))
	if early[0] != "Lumen La Urbina" {
		t.Errorf("2022-01 name = %q, want Lumen La Urbina", early[0])
	}
	if names[0] != "Cirion La Urbina" {
		t.Errorf("2023 name = %q, want Cirion La Urbina", names[0])
	}
}

func TestVEFacilityMembershipFigure15(t *testing.T) {
	snap := testWorld.PeeringDBSnapshot(mm(2023, time.December))
	cirion, ok := snap.FacilityByName("Cirion La Urbina")
	if !ok {
		t.Fatal("Cirion La Urbina missing")
	}
	if got := len(snap.NetworksAt(cirion.ID)); got != 11 {
		t.Errorf("Cirion members = %d, want 11", got)
	}
	dayco, _ := snap.FacilityByName("Daycohost - Caracas")
	if got := len(snap.NetworksAt(dayco.ID)); got < 2 || got > 3 {
		t.Errorf("Daycohost members = %d, want 2-3", got)
	}
	giga, _ := snap.FacilityByName("GigaPOP Maracaibo")
	if got := len(snap.NetworksAt(giga.ID)); got != 0 {
		t.Errorf("GigaPOP members = %d, want 0", got)
	}
	globe, _ := snap.FacilityByName("Globenet Maiquetia")
	if got := len(snap.NetworksAt(globe.ID)); got != 2 {
		t.Errorf("Globenet members = %d, want 2", got)
	}
}

func TestFleetMatchesAppendixF(t *testing.T) {
	f := testWorld.Fleet
	ve16 := f.CountByCountry(mm(2016, time.January))["VE"]
	ve24 := f.CountByCountry(mm(2024, time.January))["VE"]
	if ve16 != 10 {
		t.Errorf("VE probes 2016 = %d, want 10", ve16)
	}
	if ve24 != 30 {
		t.Errorf("VE probes 2024 = %d, want 30", ve24)
	}
	// CANTV hosts only 8 probes.
	cantv := 0
	for _, p := range f.ActiveIn("VE", mm(2024, time.January)) {
		if p.ASN == ASCANTV {
			cantv++
		}
	}
	if cantv != 8 {
		t.Errorf("CANTV probes = %d, want 8", cantv)
	}
	// VE ranks 6th in the region.
	rank, _ := f.CountryRank("VE", mm(2023, time.December))
	if rank != 6 {
		t.Errorf("VE probe rank = %d, want 6", rank)
	}
	// Regional totals ~300 → ~450+.
	total := func(m months.Month) int {
		sum := 0
		for cc, n := range f.CountByCountry(m) {
			if c, ok := geo.LookupCountry(cc); ok && c.LACNIC {
				sum += n
			}
		}
		return sum
	}
	if got := total(mm(2016, time.January)); got < 280 || got > 330 {
		t.Errorf("region probes 2016 = %d, want ~300", got)
	}
	if got := total(mm(2024, time.January)); got < 430 || got > 530 {
		t.Errorf("region probes 2024 = %d, want ~450+", got)
	}
}

func TestIXPHeatmapFigure10(t *testing.T) {
	// Computed over the membership and population tables.
	members := testWorld.IXPMembership()
	if slices.Contains(members.Members("AR-IX"), testWorld.Nets["VE"].Transit) {
		t.Error("CANTV must not peer at AR-IX")
	}
	// Domestic coverage shares.
	share := func(exName, cc string) float64 {
		var asns []bgp.ASN
		for _, asn := range members.Members(exName) {
			if est, ok := testWorld.Pop.Lookup(asn); ok && est.Country == cc {
				asns = append(asns, asn)
			}
		}
		return testWorld.Pop.ShareOf(cc, asns)
	}
	checks := []struct {
		ex, cc string
		want   float64
		tol    float64
	}{
		{"AR-IX", "AR", 0.624, 0.03},
		{"IX.br (SP)", "BR", 0.4553, 0.03},
		{"PIT Chile (SCL)", "CL", 0.4957, 0.03},
		{"NAP.CO", "CO", 0.6368, 0.03},
		{"Equinix Bogota", "VE", 0.04, 0.015},
	}
	for _, c := range checks {
		got := share(c.ex, c.cc)
		if got < c.want-c.tol || got > c.want+c.tol {
			t.Errorf("%s share of %s = %.3f, want %.3f±%.3f", c.ex, c.cc, got, c.want, c.tol)
		}
	}
	// Uruguay present at four foreign exchanges.
	uy := testWorld.Nets["UY"].Eyeballs[0]
	for _, ex := range []string{"AR-IX", "IX.br (SP)", "IXpy", "PIT Chile (SCL)"} {
		if !slices.Contains(members.Members(ex), uy) {
			t.Errorf("UY should peer at %s", ex)
		}
	}
}

func TestUSIXPPresenceAppendixI(t *testing.T) {
	members := testWorld.USIXPMembership()
	seen := map[bgp.ASN]bool{}
	for _, ex := range members.Exchanges() {
		for _, asn := range members.Members(ex) {
			if est, ok := testWorld.Pop.Lookup(asn); ok && est.Country == "VE" {
				seen[asn] = true
			}
		}
	}
	if len(seen) != 7 {
		t.Errorf("VE networks at US IXPs = %d, want 7", len(seen))
	}
	var asns []bgp.ASN
	for asn := range seen {
		asns = append(asns, asn)
	}
	shareVE := testWorld.Pop.ShareOf("VE", asns)
	if shareVE < 0.05 || shareVE > 0.09 {
		t.Errorf("VE US-IXP population share = %.3f, want ~0.07", shareVE)
	}
	// CANTV itself never peers in the US.
	if seen[ASCANTV] {
		t.Error("CANTV should not peer at US exchanges")
	}
}

func TestOffnetStoryFigure7(t *testing.T) {
	// Google and Akamai present in VE (including CANTV) before the
	// crisis; Facebook never in CANTV; Netflix in CANTV only from 2021.
	g2013 := testWorld.OffnetHosts("Google", "VE", 2013)
	if len(g2013) == 0 || g2013[0] != ASCANTV {
		t.Errorf("Google 2013 VE hosts = %v, want CANTV first", g2013)
	}
	for year := 2014; year <= 2021; year++ {
		for _, asn := range testWorld.OffnetHosts("Facebook", "VE", year) {
			if asn == ASCANTV {
				t.Errorf("Facebook in CANTV in %d", year)
			}
		}
	}
	inCANTV := func(hosts []bgp.ASN) bool {
		for _, h := range hosts {
			if h == ASCANTV {
				return true
			}
		}
		return false
	}
	if inCANTV(testWorld.OffnetHosts("Netflix", "VE", 2020)) {
		t.Error("Netflix in CANTV before 2021")
	}
	if !inCANTV(testWorld.OffnetHosts("Netflix", "VE", 2021)) {
		t.Error("Netflix should enter CANTV in 2021")
	}
	// The minor hypergiants never deploy in Venezuela.
	for _, hg := range []string{"Microsoft", "Cloudflare", "Amazon", "Limelight", "CDNetworks", "Alibaba"} {
		if hosts := testWorld.OffnetHosts(hg, "VE", 2021); len(hosts) != 0 {
			t.Errorf("%s hosts in VE = %v, want none", hg, hosts)
		}
	}
}

func TestOffnetScanDetection(t *testing.T) {
	// Round trip: detection over the generated scan recovers the hosts.
	scan := testWorld.OffnetScan(2021)
	detected := offnetDetect(scan)
	for _, provider := range []string{"Google", "Akamai", "Facebook", "Netflix"} {
		want := testWorld.OffnetHosts(provider, "VE", 2021)
		got := map[bgp.ASN]bool{}
		for _, asn := range detected[provider] {
			got[asn] = true
		}
		for _, asn := range want {
			if !got[asn] {
				t.Errorf("%s: host %d not detected", provider, asn)
			}
		}
	}
}

func TestPeeringDBSnapshotCarriesIXData(t *testing.T) {
	snap := testWorld.PeeringDBSnapshot(mm(2024, time.January))
	// The Fig 10 story is visible from the dump alone: no Venezuelan
	// exchange, and VE networks appear only at Equinix Bogota.
	ixID := map[string]int{}
	for _, ix := range snap.IXs {
		ixID[ix.Name] = ix.ID
		if ix.Country == "VE" {
			t.Errorf("VE exchange in dump: %v", ix)
		}
	}
	nets := map[int]peeringdb.Network{}
	for _, n := range snap.Networks {
		nets[n.ID] = n
	}
	members := map[int]map[int]bool{} // IX ID -> member network IDs
	for _, nl := range snap.NetIXLans {
		if members[nl.IXID] == nil {
			members[nl.IXID] = map[int]bool{}
		}
		members[nl.IXID][nl.NetID] = true
	}
	ar, ok := ixID["AR-IX"]
	if !ok {
		t.Fatal("AR-IX missing from the dump")
	}
	if len(members[ar]) < 3 {
		t.Errorf("AR-IX members = %d", len(members[ar]))
	}
	bog, ok := ixID["Equinix Bogota"]
	if !ok {
		t.Fatal("Equinix Bogota missing")
	}
	veNets := 0
	for id := range members[bog] {
		if nets[id].Country == "VE" {
			veNets++
		}
	}
	if veNets != 1 {
		t.Errorf("VE networks at Equinix Bogota = %d, want 1", veNets)
	}
	// Pre-2020 dumps omit IX coverage.
	early := testWorld.PeeringDBSnapshot(mm(2019, time.January))
	if len(early.IXs) != 0 {
		t.Errorf("2019 dump has %d exchanges, want 0", len(early.IXs))
	}
}

func TestRegistryCarriesASNAndIPv6(t *testing.T) {
	m := mm(2024, time.January)
	count := func(typ string, m months.Month) int {
		n := 0
		for _, r := range testWorld.Registry().Records() {
			if r.Type == typ && r.Country == "VE" && !r.Date.After(m) {
				n++
			}
		}
		return n
	}
	// One ASN delegation per prefix-originating network.
	if got := count("asn", m); got < 9 {
		t.Errorf("VE ASN delegations = %d, want >= 9", got)
	}
	// CANTV's single IPv6 block, delegated 2019.
	if got := count("ipv6", m); got != 1 {
		t.Errorf("VE IPv6 delegations = %d, want 1", got)
	}
	if got := count("ipv6", mm(2018, time.January)); got != 0 {
		t.Errorf("VE IPv6 before 2019 = %d, want 0", got)
	}
}

// Package integration drives the pipeline end to end through the disk
// formats: every archive is written in its native interchange format,
// parsed back, and the analyses re-run over the parsed data must agree
// with the in-memory results — proving the analyses would run unchanged
// against the real archives.
package integration

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"vzlens/internal/aspop"
	"vzlens/internal/atlas"
	"vzlens/internal/bgp"
	"vzlens/internal/ipv6"
	"vzlens/internal/months"
	"vzlens/internal/mrt"
	"vzlens/internal/peeringdb"
	"vzlens/internal/registry"
	"vzlens/internal/telegeo"
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

var testWorld = mustBuild(world.Config{Step: 6})

func mm(y int, mo time.Month) months.Month { return months.New(y, mo) }

// writeParse round-trips bytes through an actual file.
func writeParse(t *testing.T, name string, data []byte) *os.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestDelegationFileRoundTrip(t *testing.T) {
	reg := testWorld.Registry()
	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	f := writeParse(t, "delegated-lacnic-extended.txt", buf.Bytes())
	parsed, err := registry.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed.Records(), reg.Records()) {
		t.Error("delegation records differ after a write and parse")
	}
}

func TestASRelFileRoundTrip(t *testing.T) {
	m := mm(2013, time.January)
	g := testWorld.MonthTopology(m).Graph()
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	f := writeParse(t, "2013-01.as-rel.txt", buf.Bytes())
	parsed, err := bgp.ParseGraph(f)
	if err != nil {
		t.Fatal(err)
	}
	// The headline Figure 8 statistic survives the file format.
	if got := len(parsed.Providers(world.ASCANTV)); got != 11 {
		t.Errorf("CANTV providers from file = %d, want 11", got)
	}
	var again bytes.Buffer
	if _, err := parsed.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Error("AS-relationship file does not survive a parse and rewrite")
	}
}

func TestPfx2asFileRoundTrip(t *testing.T) {
	for _, m := range []months.Month{mm(2016, time.January), mm(2017, time.January)} {
		rib := testWorld.RIBArchive(m, m).Get(m)
		var buf bytes.Buffer
		if _, err := rib.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		f := writeParse(t, m.String()+".pfx2as.txt", buf.Bytes())
		parsed, err := bgp.ParseRIB(f)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := parsed.AnnouncedSpace(world.ASTelefonica), rib.AnnouncedSpace(world.ASTelefonica); got != want {
			t.Errorf("%v: Telefonica space = %d, want %d", m, got, want)
		}
	}
}

func TestPeeringDBDumpRoundTrip(t *testing.T) {
	m := mm(2024, time.January)
	snap := testWorld.PeeringDBSnapshot(m)
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	f := writeParse(t, "peeringdb_dump.json", buf.Bytes())
	parsed, err := peeringdb.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := parsed.FacilityCount()["VE"]; got != 4 {
		t.Errorf("VE facilities from dump = %d, want 4", got)
	}
	cirion, ok := parsed.FacilityByName("Cirion La Urbina")
	if !ok {
		t.Fatal("Cirion missing from dump")
	}
	if got := len(parsed.NetworksAt(cirion.ID)); got != 11 {
		t.Errorf("Cirion members from dump = %d, want 11", got)
	}
}

func TestCableMapRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if _, err := testWorld.Cables.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	f := writeParse(t, "cables.csv", buf.Bytes())
	parsed, err := telegeo.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.RegionTotal(2000) != 13 || parsed.RegionTotal(2024) != 54 {
		t.Errorf("region totals from file = %d/%d", parsed.RegionTotal(2000), parsed.RegionTotal(2024))
	}
	added := parsed.AddedBetween("VE", 2000, 2024)
	if len(added) != 1 || added[0].Name != "ALBA-1" {
		t.Errorf("VE additions from file = %v", added)
	}
}

func TestIPv6DatasetRoundTrip(t *testing.T) {
	ds := ipv6.Collect(ipv6.CoveredCountries(), mm(2018, time.January), mm(2023, time.June))
	var buf bytes.Buffer
	if _, err := ds.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	f := writeParse(t, "ipv6.csv", buf.Bytes())
	parsed, err := ipv6.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	m := mm(2023, time.June)
	if got, want := parsed.At("VE", m), ds.At("VE", m); got < want-0.01 || got > want+0.01 {
		t.Errorf("VE adoption from file = %v, want %v", got, want)
	}
}

func TestPopulationTableRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if _, err := testWorld.Pop.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	f := writeParse(t, "aspop.txt", buf.Bytes())
	parsed, err := aspop.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := parsed.Share(8048), testWorld.Pop.Share(8048); got != want {
		t.Errorf("CANTV share from file = %v, want %v", got, want)
	}
	if parsed.Len() != testWorld.Pop.Len() {
		t.Errorf("entries = %d, want %d", parsed.Len(), testWorld.Pop.Len())
	}
}

func TestOrgMapRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if _, err := testWorld.Orgs.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	f := writeParse(t, "as2org.txt", buf.Bytes())
	parsed, err := bgp.ParseOrgMap(f)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Org(world.ASMovilnet) != "ORG-CANV" {
		t.Error("state org mapping lost")
	}
	if parsed.Len() != testWorld.Orgs.Len() {
		t.Errorf("entries = %d, want %d", parsed.Len(), testWorld.Orgs.Len())
	}
}

func TestAtlasResultsRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation")
	}
	// A one-month world keeps this fast.
	w := mustBuild(world.Config{
		TraceStart: mm(2023, time.July), TraceEnd: mm(2023, time.July),
		ChaosStart: mm(2023, time.July), ChaosEnd: mm(2023, time.July),
	})
	trace := w.TraceCampaign()
	chaos := w.ChaosCampaign()

	var buf bytes.Buffer
	if err := atlas.WriteTraceJSON(&buf, trace.Samples()); err != nil {
		t.Fatal(err)
	}
	if err := atlas.WriteChaosJSON(&buf, chaos.Results()); err != nil {
		t.Fatal(err)
	}
	f := writeParse(t, "atlas-results.jsonl", buf.Bytes())
	chaos2, trace2, err := atlas.ParseResultsJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	m := mm(2023, time.July)
	want, ok1 := trace.CountryMedian("VE", m)
	got, ok2 := trace2.CountryMedian("VE", m)
	if !ok1 || !ok2 || want != got {
		t.Errorf("VE median through JSON = %v (%v), want %v (%v)", got, ok2, want, ok1)
	}
	if got, want := chaos2.SitesByCountry(m, "")["BR"], chaos.SitesByCountry(m, "")["BR"]; got != want {
		t.Errorf("BR replicas through JSON = %d, want %d", got, want)
	}
}

func TestMRTDumpRoundTrip(t *testing.T) {
	m := mm(2024, time.January)
	rib := testWorld.RIBArchive(m, m).Get(m)
	var buf bytes.Buffer
	if err := mrt.WriteRIB(&buf, rib, 6762, m.Time().Unix()); err != nil {
		t.Fatal(err)
	}
	f := writeParse(t, "rib.mrt", buf.Bytes())
	parsed, err := mrt.ParseRIB(f)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Len() != rib.Len() {
		t.Fatalf("MRT round trip = %d prefixes, want %d", parsed.Len(), rib.Len())
	}
	// The pfx2as derivation agrees with the direct table.
	for _, asn := range []bgp.ASN{world.ASCANTV, world.ASTelefonica} {
		if got, want := parsed.AnnouncedSpace(asn), rib.AnnouncedSpace(asn); got != want {
			t.Errorf("AS%d space via MRT = %d, want %d", asn, got, want)
		}
	}
}

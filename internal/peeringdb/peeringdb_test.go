package peeringdb

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"vzlens/internal/months"
)

func sample() *Snapshot {
	return &Snapshot{
		Facilities: []Facility{
			{1, "Cirion La Urbina", "Caracas", "VE"},
			{2, "Daycohost - Caracas", "Caracas", "VE"},
			{3, "Equinix SP1", "Sao Paulo", "BR"},
		},
		Networks: []Network{
			{10, 8053, "IFX Venezuela", "VE"},
			{11, 265641, "CIX BROADBAND", "VE"},
			{12, 26615, "Tim Brasil", "BR"},
		},
		IXs: []IX{
			{20, "IX.br (SP)", "Sao Paulo", "BR"},
		},
		NetFacs: []NetFac{
			{10, 1}, {11, 1}, {10, 2},
		},
		NetIXLans: []NetIXLan{
			{12, 20},
		},
	}
}

func TestFacilitiesIn(t *testing.T) {
	s := sample()
	counts := s.FacilityCount()
	if counts["VE"] != 2 || counts["BR"] != 1 || counts["ZZ"] != 0 {
		t.Errorf("FacilityCount = %v", counts)
	}
}

func TestNetworksAt(t *testing.T) {
	s := sample()
	at1 := s.NetworksAt(1)
	if len(at1) != 2 {
		t.Fatalf("NetworksAt(1) = %v", at1)
	}
	if at1[0].ASN != 8053 || at1[1].ASN != 265641 {
		t.Errorf("NetworksAt not ASN-sorted: %v", at1)
	}
	if got := s.NetworksAt(99); len(got) != 0 {
		t.Errorf("NetworksAt(99) = %v", got)
	}
}

func TestLookups(t *testing.T) {
	s := sample()
	if f, ok := s.FacilityByName("Daycohost - Caracas"); !ok || f.ID != 2 {
		t.Errorf("FacilityByName = %v %v", f, ok)
	}
	if _, ok := s.FacilityByName("nope"); ok {
		t.Error("unknown facility resolved")
	}
}

func TestJSONRoundTripUsesDumpEnvelope(t *testing.T) {
	s := sample()
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	js := buf.String()
	for _, key := range []string{`"fac"`, `"net"`, `"netfac"`, `"netixlan"`, `"data"`} {
		if !strings.Contains(js, key) {
			t.Errorf("dump envelope missing %s: %s", key, js)
		}
	}
	parsed, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Facilities) != 3 || len(parsed.NetFacs) != 3 {
		t.Errorf("round trip = %+v", parsed)
	}
	if parsed.Facilities[0].Name != "Cirion La Urbina" {
		t.Errorf("facility name lost: %v", parsed.Facilities[0])
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("{")); err == nil {
		t.Error("want decode error")
	}
}

func TestArchiveSeries(t *testing.T) {
	a := NewArchive()
	m1 := months.New(2018, time.April)
	m2 := months.New(2021, time.November)

	s1 := &Snapshot{Facilities: []Facility{{3, "Equinix SP1", "Sao Paulo", "BR"}}}
	a.Put(m1, s1)
	a.Put(m2, sample())

	ms := a.Months()
	if len(ms) != 2 || ms[0] != m1 || ms[1] != m2 {
		t.Errorf("Months = %v", ms)
	}
	if got := a.Get(m2); got == nil || len(got.Facilities) != 3 {
		t.Error("Get broken")
	}
	if a.Get(months.New(2000, time.January)) != nil {
		t.Error("missing month should be nil")
	}
}

func TestMembershipSeries(t *testing.T) {
	a := NewArchive()
	m1 := months.New(2021, time.November)
	m2 := months.New(2023, time.November)
	a.Put(m1, sample())

	grown := sample()
	grown.NetFacs = append(grown.NetFacs, NetFac{12, 1})
	a.Put(m2, grown)

	ms := a.MembershipSeries("Cirion La Urbina")
	if ms[m1] != 2 || ms[m2] != 3 {
		t.Errorf("MembershipSeries = %v", ms)
	}
	if got := a.MembershipSeries("nope"); len(got) != 0 {
		t.Errorf("missing facility series = %v", got)
	}
}

func TestZeroValueArchive(t *testing.T) {
	var a Archive
	a.Put(months.New(2020, time.January), sample())
	if len(a.Months()) != 1 {
		t.Error("zero-value Archive unusable")
	}
}

// Property: arbitrary snapshots survive the JSON dump envelope.
func TestQuickSnapshotRoundTrip(t *testing.T) {
	f := func(facs, nets uint8) bool {
		s := &Snapshot{}
		for i := 0; i < int(facs)%20; i++ {
			s.Facilities = append(s.Facilities, Facility{ID: i + 1, Name: "F", Country: "VE"})
		}
		for i := 0; i < int(nets)%20; i++ {
			s.Networks = append(s.Networks, Network{ID: 100 + i, ASN: uint32(8000 + i), Name: "N", Country: "BR"})
			if len(s.Facilities) > 0 {
				s.NetFacs = append(s.NetFacs, NetFac{NetID: 100 + i, FacID: 1})
			}
		}
		var buf bytes.Buffer
		if err := s.Write(&buf); err != nil {
			return false
		}
		parsed, err := Read(&buf)
		if err != nil {
			return false
		}
		return len(parsed.Facilities) == len(s.Facilities) &&
			len(parsed.Networks) == len(s.Networks) &&
			len(parsed.NetFacs) == len(s.NetFacs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

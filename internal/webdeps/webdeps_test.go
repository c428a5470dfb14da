package webdeps

import (
	"math"
	"testing"
)

func TestUniquenessFilter(t *testing.T) {
	s := NewSnapshot()
	s.SetList("VE", []Site{
		{Host: "local.ve.example"},
		{Host: "shared.example.com"},
	})
	s.SetList("CO", []Site{
		{Host: "local.co.example"},
		{Host: "shared.example.com"},
	})
	ve := s.UniqueSites("VE")
	if len(ve) != 1 || ve[0].Host != "local.ve.example" {
		t.Errorf("UniqueSites(VE) = %v", ve)
	}
}

func TestUniquenessFilterHandlesDuplicatesWithinList(t *testing.T) {
	s := NewSnapshot()
	s.SetList("VE", []Site{
		{Host: "twice.ve.example"},
		{Host: "twice.ve.example"},
	})
	s.SetList("CO", []Site{{Host: "other.co.example"}})
	// Appearing twice in the same country's list is still unique to it.
	if got := s.UniqueSites("VE"); len(got) != 2 {
		t.Errorf("duplicates within one list = %v", got)
	}
}

func TestAdoptionRates(t *testing.T) {
	s := NewSnapshot()
	s.SetList("VE", []Site{
		{Host: "a.ve", ThirdDNS: true, HTTPS: true},
		{Host: "b.ve", ThirdCA: true, ThirdCDN: true},
		{Host: "c.ve", HTTPS: true},
		{Host: "d.ve"},
	})
	r, ok := s.Adoption("VE")
	if !ok {
		t.Fatal("no adoption")
	}
	if r.DNS != 0.25 || r.CA != 0.25 || r.CDN != 0.25 || r.HTTPS != 0.5 || r.Sites != 4 {
		t.Errorf("rates = %+v", r)
	}
	if _, ok := s.Adoption("ZZ"); ok {
		t.Error("missing country should not report rates")
	}
}

func TestGeneratedSnapshotMatchesFigure19(t *testing.T) {
	s := GenerateSnapshot(1000)
	ve, ok := s.Adoption("VE")
	if !ok {
		t.Fatal("no VE adoption")
	}
	check := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 0.005 {
			t.Errorf("VE %s = %.3f, want %.3f", name, got, want)
		}
	}
	check("DNS", ve.DNS, 0.29)
	check("CA", ve.CA, 0.22)
	check("CDN", ve.CDN, 0.37)
	check("HTTPS", ve.HTTPS, 0.58)

	means := s.RegionalMeans()
	check("mean DNS", means.DNS, 0.32)
	check("mean CA", means.CA, 0.26)
	check("mean CDN", means.CDN, 0.46)
	check("mean HTTPS", means.HTTPS, 0.60)
}

func TestVenezuelaOnlyAheadOfBolivia(t *testing.T) {
	s := GenerateSnapshot(1000)
	ve, _ := s.Adoption("VE")
	for cc := range calibratedRates {
		if cc == "VE" || cc == "BO" {
			continue
		}
		r, _ := s.Adoption(cc)
		if r.DNS < ve.DNS {
			t.Errorf("%s DNS %.2f below VE — VE should be ahead of only BO", cc, r.DNS)
		}
		if r.CA < ve.CA && cc != "PY" && cc != "UY" && cc != "AR" { // CA ordering per Figure 19
			t.Errorf("%s CA %.2f below VE unexpectedly", cc, r.CA)
		}
	}
	bo, _ := s.Adoption("BO")
	if bo.DNS >= ve.DNS || bo.CA >= ve.CA || bo.CDN >= ve.CDN {
		t.Error("BO should trail VE on all three infrastructure dimensions")
	}
	// HTTPS is the exception: VE sits slightly below the mean but not last.
	if ve.HTTPS <= bo.HTTPS {
		t.Error("VE HTTPS should exceed BO's")
	}
}

func TestSharedSitesExcluded(t *testing.T) {
	s := GenerateSnapshot(100)
	// Every country's unique-site count must equal the requested size:
	// the 40 shared (fully third-party) sites must all be filtered out.
	for _, cc := range s.Countries() {
		r, _ := s.Adoption(cc)
		if r.Sites != 100 {
			t.Errorf("%s unique sites = %d, want 100", cc, r.Sites)
		}
	}
}

func TestRegionalMeansEmpty(t *testing.T) {
	s := NewSnapshot()
	if got := s.RegionalMeans(); got.DNS != 0 || got.Sites != 0 {
		t.Errorf("empty means = %+v", got)
	}
}

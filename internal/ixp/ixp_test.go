package ixp

import (
	"slices"
	"testing"

	"vzlens/internal/aspop"
)

func pop() *aspop.Estimates {
	e := aspop.New()
	e.Add(aspop.Estimate{ASN: 100, Name: "AR Eyeball 1", Country: "AR", Users: 6000})
	e.Add(aspop.Estimate{ASN: 101, Name: "AR Eyeball 2", Country: "AR", Users: 4000})
	e.Add(aspop.Estimate{ASN: 200, Name: "UY Eyeball", Country: "UY", Users: 1000})
	e.Add(aspop.Estimate{ASN: 300, Name: "VE Eyeball", Country: "VE", Users: 500})
	e.Add(aspop.Estimate{ASN: 301, Name: "VE Other", Country: "VE", Users: 9500})
	return e
}

func TestMembershipBasics(t *testing.T) {
	m := NewMembership()
	m.Join("AR-IX", 100)
	m.Join("AR-IX", 100) // duplicate ignored
	m.Join("AR-IX", 200)
	if got := m.Members("AR-IX"); len(got) != 2 || got[0] != 100 {
		t.Errorf("Members = %v", got)
	}
	if members := m.Members("AR-IX"); !slices.Contains(members, 100) || slices.Contains(members, 999) {
		t.Error("membership broken")
	}
	if got := m.Members("nope"); len(got) != 0 {
		t.Errorf("empty exchange = %v", got)
	}
	if ex := m.Exchanges(); len(ex) != 1 || ex[0] != "AR-IX" {
		t.Errorf("Exchanges = %v", ex)
	}
}

func TestHeatmap(t *testing.T) {
	m := NewMembership()
	m.Join("AR-IX", 100) // 60% of AR
	m.Join("AR-IX", 200) // UY network abroad
	exchanges := []Exchange{{"AR-IX", "AR", "Buenos Aires"}, {"IXpy", "PY", "Asuncion"}}

	hm := Heatmap(m, pop(), exchanges, []string{"AR", "UY", "VE"})
	row, ok := hm["AR-IX"]
	if !ok {
		t.Fatal("AR-IX row missing")
	}
	if c := row["AR"]; c.Share != 0.6 || c.Networks != 1 {
		t.Errorf("AR cell = %+v", c)
	}
	if c := row["UY"]; c.Share != 1.0 || c.Networks != 1 {
		t.Errorf("UY cell = %+v", c)
	}
	if _, ok := row["VE"]; ok {
		t.Error("VE should be absent from the heatmap")
	}
	if _, ok := hm["IXpy"]; ok {
		t.Error("memberless exchange should be omitted")
	}
}

func TestCountryPresenceDeduplicatesAcrossIXPs(t *testing.T) {
	m := NewMembership()
	m.Join("FL-IX", 300)
	m.Join("Equinix Miami", 300) // same network at two exchanges
	exchanges := []Exchange{{"FL-IX", "US", "Miami"}, {"Equinix Miami", "US", "Miami"}}
	c := CountryPresence(m, pop(), exchanges, "VE")
	if c.Networks != 1 {
		t.Errorf("networks = %d, want 1 (deduplicated)", c.Networks)
	}
	if c.Share != 0.05 {
		t.Errorf("share = %v, want 0.05", c.Share)
	}
}

func TestCountryPresenceEmpty(t *testing.T) {
	m := NewMembership()
	c := CountryPresence(m, pop(), USExchanges(), "VE")
	if c.Networks != 0 || c.Share != 0 {
		t.Errorf("empty presence = %+v", c)
	}
}

func TestDirectories(t *testing.T) {
	latam := LatAmExchanges()
	if len(latam) != 19 {
		t.Errorf("LatAm exchanges = %d, want 19 (18 largest + Equinix Bogota)", len(latam))
	}
	names := map[string]string{}
	for _, ex := range latam {
		names[ex.Name] = ex.Country
	}
	for name, cc := range map[string]string{
		"AR-IX": "AR", "IX.br (SP)": "BR", "PIT Chile (SCL)": "CL",
		"AMS-IX (CW)": "CW", "Equinix Bogota": "CO",
	} {
		if names[name] != cc {
			t.Errorf("%s country = %q, want %q", name, names[name], cc)
		}
	}
	// Venezuela and Uruguay host no IXP (paper).
	for _, ex := range latam {
		if ex.Country == "VE" || ex.Country == "UY" {
			t.Errorf("%s should not exist: %s hosts no IXP", ex.Name, ex.Country)
		}
	}
	us := USExchanges()
	if len(us) < 8 {
		t.Errorf("US exchanges = %d, want >= 8", len(us))
	}
	for _, ex := range us {
		if ex.Country != "US" {
			t.Errorf("%s in %s, want US", ex.Name, ex.Country)
		}
	}
}

package offnet

import (
	"testing"

	"vzlens/internal/aspop"
	"vzlens/internal/bgp"
)

func TestMatches(t *testing.T) {
	cases := []struct {
		name, fp string
		want     bool
	}{
		{"cache.google.com", "*.google.com", true},
		{"google.com", "*.google.com", true}, // wildcard matches apex too
		{"notgoogle.com", "*.google.com", false},
		{"dns.google", "dns.google", true},
		{"DNS.GOOGLE", "dns.google", true},
		{"evil-google.com", "*.google.com", false},
		{"*.edge.google.com", "*.google.com", true}, // wildcard cert name
		{"a248.e.akamai.net", "a248.e.akamai.net", true},
		{"x.a248.e.akamai.net", "a248.e.akamai.net", false},
	}
	for _, c := range cases {
		if got := matches(c.name, c.fp); got != c.want {
			t.Errorf("matches(%q, %q) = %v, want %v", c.name, c.fp, got, c.want)
		}
	}
}

func TestDetectOffnets(t *testing.T) {
	s := NewScan()
	// CANTV serves a Google cache cert: off-net.
	s.Add(CertRecord{8048, []string{"cache.google.com"}})
	// Google's own AS serves its cert: on-net, not counted.
	s.Add(CertRecord{15169, []string{"www.google.com"}})
	// Telemic serves both Google and Netflix.
	s.Add(CertRecord{21826, []string{"edge.nflxvideo.net", "video.google.com"}})
	// Unrelated bank cert.
	s.Add(CertRecord{26617, []string{"banco.example.ve"}})

	got := DetectOffnets(s, Hypergiants())
	if g := got["Google"]; len(g) != 2 || g[0] != 8048 || g[1] != 21826 {
		t.Errorf("Google off-nets = %v", g)
	}
	if n := got["Netflix"]; len(n) != 1 || n[0] != 21826 {
		t.Errorf("Netflix off-nets = %v", n)
	}
	if _, ok := got["Akamai"]; ok {
		t.Error("Akamai should have no off-nets")
	}
}

func TestDetectDeduplicates(t *testing.T) {
	s := NewScan()
	s.Add(CertRecord{8048, []string{"a.google.com"}})
	s.Add(CertRecord{8048, []string{"b.google.com"}})
	got := DetectOffnets(s, Hypergiants())
	if g := got["Google"]; len(g) != 1 {
		t.Errorf("duplicate AS counted: %v", g)
	}
}

func popTable() *aspop.Estimates {
	e := aspop.New()
	e.Add(aspop.Estimate{ASN: 8048, Name: "CANTV", Country: "VE", Users: 4000})
	e.Add(aspop.Estimate{ASN: 27889, Name: "MOVILNET", Country: "VE", Users: 1000})
	e.Add(aspop.Estimate{ASN: 21826, Name: "Telemic", Country: "VE", Users: 2500})
	e.Add(aspop.Estimate{ASN: 6306, Name: "Telefonica VE", Country: "VE", Users: 2500})
	return e
}

func TestCoveragePerAS(t *testing.T) {
	pop := popTable()
	cov := Coverage("VE", []bgp.ASN{8048}, pop, nil)
	if cov != 0.4 {
		t.Errorf("coverage = %v, want 0.4", cov)
	}
	if got := Coverage("VE", nil, pop, nil); got != 0 {
		t.Errorf("empty hosts coverage = %v", got)
	}
}

func TestCoverageOrgExpansion(t *testing.T) {
	pop := popTable()
	orgs := bgp.NewOrgMap()
	orgs.Add(bgp.ASInfo{ASN: 8048, Name: "CANTV", Country: "VE", Org: "ORG-CANV"})
	orgs.Add(bgp.ASInfo{ASN: 27889, Name: "MOVILNET", Country: "VE", Org: "ORG-CANV"})
	// An off-net in CANTV covers the whole state org including MOVILNET.
	cov := Coverage("VE", []bgp.ASN{8048}, pop, orgs)
	if cov != 0.5 {
		t.Errorf("org coverage = %v, want 0.5", cov)
	}
	// Unmapped AS still counts itself.
	cov2 := Coverage("VE", []bgp.ASN{21826}, pop, orgs)
	if cov2 != 0.25 {
		t.Errorf("unmapped coverage = %v, want 0.25", cov2)
	}
	// Org expansion never yields less than per-AS accounting.
	if cov < Coverage("VE", []bgp.ASN{8048}, pop, nil) {
		t.Error("org expansion reduced coverage")
	}
}

func TestHypergiantDirectory(t *testing.T) {
	hgs := Hypergiants()
	if len(hgs) != 10 {
		t.Fatalf("hypergiants = %d, want 10 (Figure 18)", len(hgs))
	}
	seen := map[string]bool{}
	for _, hg := range hgs {
		if hg.ASN == 0 || len(hg.Domains) == 0 {
			t.Errorf("%s underspecified", hg.Name)
		}
		seen[hg.Name] = true
	}
	for _, want := range []string{"Google", "Akamai", "Facebook", "Netflix", "Cloudflare", "Microsoft", "Amazon", "Limelight", "CDNetworks", "Alibaba"} {
		if !seen[want] {
			t.Errorf("missing hypergiant %s", want)
		}
	}
}

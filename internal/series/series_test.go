package series

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"vzlens/internal/months"
)

func m(s string) months.Month { return months.MustParse(s) }

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSetGetAdd(t *testing.T) {
	s := New()
	s.Set(m("2020-01"), 5)
	s.Add(m("2020-01"), 2)
	if v, ok := s.Get(m("2020-01")); !ok || !almost(v, 7) {
		t.Errorf("Get = %v,%v", v, ok)
	}
	if v := s.At(m("2020-02")); v != 0 {
		t.Errorf("At missing = %v", v)
	}
	if len(s.points) != 1 {
		t.Errorf("Len = %d", len(s.points))
	}
}

func TestZeroValueUsable(t *testing.T) {
	var s Series
	s.Set(m("2020-01"), 1)
	s.Add(m("2020-02"), 2)
	if len(s.points) != 2 {
		t.Errorf("zero-value Series unusable: len=%d", len(s.points))
	}
	var s2 Series
	s2.Add(m("2020-01"), 3)
	if s2.At(m("2020-01")) != 3 {
		t.Error("zero-value Add broken")
	}
}

func TestPointsOrdered(t *testing.T) {
	s := New()
	s.Set(m("2021-05"), 3)
	s.Set(m("2019-01"), 1)
	s.Set(m("2020-06"), 2)
	pts := s.Points()
	for i := 1; i < len(pts); i++ {
		if pts[i].Month < pts[i-1].Month {
			t.Fatalf("Points not ordered: %v", pts)
		}
	}
}

func TestSpanFirstLast(t *testing.T) {
	s := New()
	if _, _, ok := s.Span(); ok {
		t.Error("empty Span ok")
	}
	s.Set(m("2015-03"), 10)
	s.Set(m("2018-09"), 20)
	lo, hi, ok := s.Span()
	if !ok || lo != m("2015-03") || hi != m("2018-09") {
		t.Errorf("Span = %v %v %v", lo, hi, ok)
	}
	f, _ := s.First()
	l, _ := s.Last()
	if f.Value != 10 || l.Value != 20 {
		t.Errorf("First/Last = %v %v", f, l)
	}
}

func TestMaxPointAndNormalize(t *testing.T) {
	s := New()
	s.Set(m("2010-01"), 2)
	s.Set(m("2012-01"), 8)
	s.Set(m("2014-01"), 4)
	mp, ok := s.MaxPoint()
	if !ok || mp.Value != 8 || mp.Month != m("2012-01") {
		t.Errorf("MaxPoint = %v %v", mp, ok)
	}
}

func TestPanelRegionalAggregates(t *testing.T) {
	p := NewPanel()
	p.Country("VE").Set(m("2020-01"), 1)
	p.Country("BR").Set(m("2020-01"), 3)
	p.Country("AR").Set(m("2020-01"), 2)
	p.Country("BR").Set(m("2020-02"), 5)

	tot := p.RegionalTotal()
	if !almost(tot.At(m("2020-01")), 6) {
		t.Errorf("total = %v", tot.At(m("2020-01")))
	}
	mean := p.RegionalMean()
	if !almost(mean.At(m("2020-01")), 2) {
		t.Errorf("mean = %v", mean.At(m("2020-01")))
	}
	if !almost(mean.At(m("2020-02")), 5) {
		t.Errorf("mean single-country month = %v", mean.At(m("2020-02")))
	}
}

func TestPanelNormalizeAgainst(t *testing.T) {
	p := NewPanel()
	p.Country("VE").Set(m("2020-01"), 1)
	p.Country("VE").Set(m("2020-02"), 2)
	ref := New()
	ref.Set(m("2020-01"), 4)
	// 2020-02 missing from ref: skipped
	n := p.NormalizeAgainst("VE", ref)
	if !almost(n.At(m("2020-01")), 0.25) {
		t.Errorf("normalized = %v", n.At(m("2020-01")))
	}
	if _, ok := n.Get(m("2020-02")); ok {
		t.Error("month without ref should be skipped")
	}
	if len(p.NormalizeAgainst("XX", ref).points) != 0 {
		t.Error("missing country should normalize to empty")
	}
}

func TestPanelRankAt(t *testing.T) {
	p := NewPanel()
	p.Country("VE").Set(m("1980-01"), 9000)
	p.Country("AR").Set(m("1980-01"), 9500)
	p.Country("BO").Set(m("1980-01"), 1000)
	rank, of, ok := p.RankAt("VE", m("1980-01"))
	if !ok || rank != 2 || of != 3 {
		t.Errorf("RankAt = %d/%d %v", rank, of, ok)
	}
	if _, _, ok := p.RankAt("VE", m("1990-01")); ok {
		t.Error("RankAt missing month should not be ok")
	}
	if _, _, ok := p.RankAt("ZZ", m("1980-01")); ok {
		t.Error("RankAt missing country should not be ok")
	}
}

func TestPanelCSV(t *testing.T) {
	p := NewPanel()
	p.Country("BR").Set(m("2020-01"), 3)
	p.Country("AR").Set(m("2020-02"), 2)
	csv := p.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "month,AR,BR" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 3 {
		t.Fatalf("lines = %d: %q", len(lines), csv)
	}
	if lines[1] != "2020-01,,3" {
		t.Errorf("row1 = %q", lines[1])
	}
	if lines[2] != "2020-02,2," {
		t.Errorf("row2 = %q", lines[2])
	}
}

// Property: RegionalTotal equals the sum of country values month-wise.
func TestQuickRegionalTotal(t *testing.T) {
	f := func(a, b, c uint8) bool {
		p := NewPanel()
		p.Country("A").Set(m("2020-01"), float64(a))
		p.Country("B").Set(m("2020-01"), float64(b))
		p.Country("C").Set(m("2020-01"), float64(c))
		return almost(p.RegionalTotal().At(m("2020-01")), float64(a)+float64(b)+float64(c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package months

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestNewRoundTrip(t *testing.T) {
	cases := []struct {
		y int
		m time.Month
	}{
		{1998, time.January}, {2013, time.June}, {2024, time.December},
		{2000, time.February}, {2024, time.January},
	}
	for _, c := range cases {
		mo := New(c.y, c.m)
		if mo.Year() != c.y || mo.Month() != c.m {
			t.Errorf("New(%d,%v) round trip = (%d,%v)", c.y, c.m, mo.Year(), mo.Month())
		}
	}
}

func TestParseString(t *testing.T) {
	m, err := Parse("2013-06")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.String(); got != "2013-06" {
		t.Errorf("String = %q, want 2013-06", got)
	}
	if m.Year() != 2013 || m.Month() != time.June {
		t.Errorf("Parse(2013-06) = %d-%v", m.Year(), m.Month())
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"", "banana", "2020-13", "2020-00"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): want error", s)
		}
	}
}

func TestAddCrossesYears(t *testing.T) {
	m := New(2019, time.November)
	if got := m.Add(3); got.String() != "2020-02" {
		t.Errorf("Nov 2019 + 3 = %v, want 2020-02", got)
	}
	if got := m.Add(-11); got.String() != "2018-12" {
		t.Errorf("Nov 2019 - 11 = %v, want 2018-12", got)
	}
}

func TestSub(t *testing.T) {
	a := MustParse("2024-03")
	b := MustParse("2013-03")
	if d := a.Sub(b); d != 132 {
		t.Errorf("Sub = %d, want 132", d)
	}
}

func TestRange(t *testing.T) {
	r := Range(MustParse("2023-11"), MustParse("2024-02"))
	want := []string{"2023-11", "2023-12", "2024-01", "2024-02"}
	if len(r) != len(want) {
		t.Fatalf("len = %d, want %d", len(r), len(want))
	}
	for i, m := range r {
		if m.String() != want[i] {
			t.Errorf("Range[%d] = %v, want %v", i, m, want[i])
		}
	}
	if got := Range(MustParse("2024-02"), MustParse("2023-11")); got != nil {
		t.Errorf("reversed Range = %v, want nil", got)
	}
}

func TestFromTime(t *testing.T) {
	ts := time.Date(2021, time.July, 31, 23, 59, 0, 0, time.UTC)
	if m := FromTime(ts); m.String() != "2021-07" {
		t.Errorf("FromTime = %v", m)
	}
}

// Property: Add is the inverse of Sub for any in-range pair.
func TestQuickAddSubInverse(t *testing.T) {
	f := func(a, b uint16) bool {
		// Constrain to plausible calendar range.
		ma := New(1900+int(a)%300, time.Month(int(b)%12+1))
		n := int(b)%500 - 250
		return ma.Add(n).Sub(ma) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: String/Parse round-trips.
func TestQuickStringParse(t *testing.T) {
	f := func(a, b uint16) bool {
		m := New(1800+int(a)%500, time.Month(int(b)%12+1))
		p, err := Parse(m.String())
		return err == nil && p == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOrdering(t *testing.T) {
	a, b := MustParse("2013-01"), MustParse("2013-02")
	if !a.Before(b) || b.Before(a) || !b.After(a) {
		t.Error("ordering broken")
	}
	if a.IsZero() {
		t.Error("valid month reported zero")
	}
	var z Month
	if !z.IsZero() {
		t.Error("zero month not reported zero")
	}
}

// TestStringMatchesSprintf checks String against the fmt formatting it
// replaced for every Month whose year runs from -1 to 10000, the zero
// Month and the negative month fields of years -1 and 0 included, and
// at the ends of the int range.
func TestStringMatchesSprintf(t *testing.T) {
	check := func(m Month) {
		if got, want := m.String(), fmt.Sprintf("%04d-%02d", m.Year(), int(m.Month())); got != want {
			t.Fatalf("Month(%d).String() = %q, want %q", int(m), got, want)
		}
	}
	n := 0
	for m := Month(-22); m.Year() <= 10000; m++ {
		check(m)
		n++
	}
	// Year() truncates toward zero, so year 0 spans the 23 values -10
	// through 12.
	if want := 12 + 23 + 12*10000; n != want {
		t.Fatalf("checked %d months, want %d", n, want)
	}
	for _, m := range []Month{0, math.MinInt, math.MinInt + 1, math.MaxInt} {
		check(m)
	}
}

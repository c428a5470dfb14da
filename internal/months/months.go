// Package months provides a compact calendar-month type used as the
// temporal resolution of every longitudinal dataset in vzlens.
//
// The paper's analyses are all month-grained (PeeringDB monthly snapshots,
// M-Lab month-country aggregation, Atlas 5-day windows at the start of each
// month), so a dedicated integer-backed Month type keeps joins across
// datasets allocation-free and usable as a map key.
package months

import (
	"fmt"
	"strconv"
	"time"
)

// Month identifies a calendar month. The zero value is the invalid month;
// valid values encode year*12 + (month-1) + 1 so that arithmetic on the
// underlying integer walks the calendar.
type Month int

// New returns the Month for the given year and calendar month (1-12).
func New(year int, month time.Month) Month {
	return Month(year*12 + int(month-1) + 1)
}

// FromTime returns the Month containing t (in UTC).
func FromTime(t time.Time) Month {
	u := t.UTC()
	return New(u.Year(), u.Month())
}

// Parse parses "YYYY-MM". It is the inverse of String.
func Parse(s string) (Month, error) {
	var y, m int
	if _, err := fmt.Sscanf(s, "%d-%d", &y, &m); err != nil {
		return 0, fmt.Errorf("months: parse %q: %w", s, err)
	}
	if m < 1 || m > 12 {
		return 0, fmt.Errorf("months: parse %q: month out of range", s)
	}
	return New(y, time.Month(m)), nil
}

// MustParse is Parse that panics on error; for tests and constants.
func MustParse(s string) Month {
	m, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return m
}

// Year returns the calendar year.
func (m Month) Year() int { return int(m-1) / 12 }

// Month returns the calendar month (January = 1).
func (m Month) Month() time.Month { return time.Month(int(m-1)%12 + 1) }

// Time returns midnight UTC on the first day of the month.
func (m Month) Time() time.Time {
	return time.Date(m.Year(), m.Month(), 1, 0, 0, 0, 0, time.UTC)
}

// String formats as "YYYY-MM": fmt's "%04d-%02d" of the year and the
// month, without fmt's reflection.
func (m Month) String() string {
	var buf [24]byte
	b := appendPadded(buf[:0], m.Year(), 4)
	b = append(b, '-')
	return string(appendPadded(b, int(m.Month()), 2))
}

// appendPadded appends v in decimal, zero-padded to width bytes with
// the sign counted in the width, as fmt's %0<width>d does.
func appendPadded(b []byte, v, width int) []byte {
	u := uint64(v)
	if v < 0 {
		b = append(b, '-')
		width--
		u = uint64(-v) // two's complement: exact for math.MinInt too
	}
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], u, 10)
	for i := len(d); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, d...)
}

// Add returns the month n calendar months after m (n may be negative).
func (m Month) Add(n int) Month { return m + Month(n) }

// Sub returns the number of calendar months from b to m.
func (m Month) Sub(b Month) int { return int(m - b) }

// Before reports whether m is strictly earlier than b.
func (m Month) Before(b Month) bool { return m < b }

// After reports whether m is strictly later than b.
func (m Month) After(b Month) bool { return m > b }

// IsZero reports whether m is the invalid zero Month.
func (m Month) IsZero() bool { return m == 0 }

// Range returns every month from lo to hi inclusive. It returns nil when
// hi is before lo.
func Range(lo, hi Month) []Month {
	if hi < lo {
		return nil
	}
	out := make([]Month, 0, hi-lo+1)
	for m := lo; m <= hi; m++ {
		out = append(out, m)
	}
	return out
}

// Window is the half-open validity window [From, To) of a time-varying
// fact — a transit relationship, a root replica, an Atlas probe, a
// what-if edit: the SCD type-2 test valid_from <= T AND (valid_to IS
// NULL OR valid_to > T). A zero bound is an open end: a zero From has
// always held, a zero To still holds. A struct embedding a Window
// serializes its bounds under the SCD2 keys valid_from and valid_to.
type Window struct {
	From Month `json:"valid_from"`
	To   Month `json:"valid_to"`
}

// Contains reports whether the window covers month m. Every valid
// month is after the zero Month, so a zero From needs no test of its
// own.
func (w Window) Contains(m Month) bool {
	return !m.Before(w.From) && (w.To.IsZero() || m.Before(w.To))
}

// Overlaps reports whether some month lies in both w and o: the later
// of the two starts comes before each window's end.
func (w Window) Overlaps(o Window) bool {
	from := max(w.From, o.From)
	return (w.To.IsZero() || from.Before(w.To)) && (o.To.IsZero() || from.Before(o.To))
}

// ParseWindow parses a window's "YYYY-MM" bounds, until exclusive; an
// empty string is an open end. A window whose from is not before its
// until is rejected as inverted.
func ParseWindow(from, until string) (Window, error) {
	var w Window
	var err error
	if from != "" {
		if w.From, err = Parse(from); err != nil {
			return Window{}, fmt.Errorf("bad from %q: %w", from, err)
		}
	}
	if until != "" {
		if w.To, err = Parse(until); err != nil {
			return Window{}, fmt.Errorf("bad until %q: %w", until, err)
		}
	}
	if !w.From.IsZero() && !w.To.IsZero() && !w.From.Before(w.To) {
		return Window{}, fmt.Errorf("window inverted: from %s not before until %s", from, until)
	}
	return w, nil
}

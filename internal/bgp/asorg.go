package bgp

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ASInfo describes one autonomous system: its registered name, country,
// and owning organization. Org aggregation follows as2org+, which the
// paper uses to suppress per-AS deployment fluctuations inside a single
// organization (Section 5.5).
type ASInfo struct {
	ASN     ASN
	Name    string
	Country string // ISO code
	Org     string // organization identifier
}

// OrgMap is an AS-to-organization directory.
type OrgMap struct {
	byASN map[ASN]ASInfo
}

// NewOrgMap returns an empty OrgMap.
func NewOrgMap() *OrgMap { return &OrgMap{byASN: map[ASN]ASInfo{}} }

// Add registers info, replacing any previous entry for the ASN.
func (o *OrgMap) Add(info ASInfo) {
	if o.byASN == nil {
		o.byASN = map[ASN]ASInfo{}
	}
	o.byASN[info.ASN] = info
}

// Lookup returns the info for asn.
func (o *OrgMap) Lookup(asn ASN) (ASInfo, bool) {
	i, ok := o.byASN[asn]
	return i, ok
}

// Org returns the organization of asn, or "AS<asn>" when unknown, so that
// unmapped ASes aggregate to themselves.
func (o *OrgMap) Org(asn ASN) string {
	if i, ok := o.byASN[asn]; ok && i.Org != "" {
		return i.Org
	}
	return "AS" + asn.String()
}

// Len returns the number of registered ASes.
func (o *OrgMap) Len() int { return len(o.byASN) }

// ASNsOf returns the ASes belonging to org, sorted.
func (o *OrgMap) ASNsOf(org string) []ASN {
	var out []ASN
	for asn, i := range o.byASN {
		if i.Org == org {
			out = append(out, asn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// All returns every registered ASInfo sorted by ASN.
func (o *OrgMap) All() []ASInfo {
	out := make([]ASInfo, 0, len(o.byASN))
	for _, i := range o.byASN {
		out = append(out, i)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}

// WriteTo writes the directory as "asn|name|cc|org" lines, implementing
// io.WriterTo.
func (o *OrgMap) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, i := range o.All() {
		k, err := fmt.Fprintf(w, "%d|%s|%s|%s\n", i.ASN, i.Name, i.Country, i.Org)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// ParseOrgMap reads "asn|name|cc|org" lines with '#' comments.
func ParseOrgMap(r io.Reader) (*OrgMap, error) {
	o := NewOrgMap()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, "|")
		if len(parts) < 4 {
			return nil, fmt.Errorf("bgp: asorg line %d: malformed %q", lineNo, line)
		}
		asn, err := strconv.ParseUint(parts[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bgp: asorg line %d: bad ASN %q", lineNo, parts[0])
		}
		o.Add(ASInfo{ASN(asn), parts[1], strings.ToUpper(parts[2]), parts[3]})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bgp: read: %w", err)
	}
	return o, nil
}

// Package bgp implements the BGP-derived datasets the paper's interdomain
// analyses consume: CAIDA-style AS relationship files (serial-1 format),
// RouteViews prefix-to-AS mappings, and AS-to-organization mappings in the
// spirit of as2org+. It provides both the file codecs and the monthly
// archive containers with the queries Sections 4 and 6 run (upstream and
// downstream counts over time, announced address space per origin, prefix
// visibility heatmaps).
package bgp

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"vzlens/internal/months"
)

// ASN is an autonomous system number.
type ASN uint32

// String formats as the bare number, matching file formats.
func (a ASN) String() string { return strconv.FormatUint(uint64(a), 10) }

// RelKind is the business relationship between two ASes.
type RelKind int8

// Relationship kinds use CAIDA serial-1 encoding values.
const (
	ProviderCustomer RelKind = -1 // first AS is provider of second
	PeerPeer         RelKind = 0
)

// Rel is one relationship edge.
type Rel struct {
	A, B ASN
	Kind RelKind
}

// String renders the edge in serial-1 syntax.
func (r Rel) String() string {
	return fmt.Sprintf("%d|%d|%d", r.A, r.B, int(r.Kind))
}

// Graph is the AS-level relationship graph for one month.
type Graph struct {
	providers map[ASN][]ASN // customer -> providers
	customers map[ASN][]ASN // provider -> customers
	peers     map[ASN][]ASN
}

// NewGraph returns an empty Graph.
func NewGraph() *Graph {
	return &Graph{
		providers: map[ASN][]ASN{},
		customers: map[ASN][]ASN{},
		peers:     map[ASN][]ASN{},
	}
}

// AddRel inserts a relationship edge. Duplicate edges are ignored.
func (g *Graph) AddRel(r Rel) {
	switch r.Kind {
	case ProviderCustomer:
		if containsASN(g.customers[r.A], r.B) {
			return
		}
		g.customers[r.A] = append(g.customers[r.A], r.B)
		g.providers[r.B] = append(g.providers[r.B], r.A)
	case PeerPeer:
		if containsASN(g.peers[r.A], r.B) {
			return
		}
		g.peers[r.A] = append(g.peers[r.A], r.B)
		g.peers[r.B] = append(g.peers[r.B], r.A)
	}
}

func containsASN(xs []ASN, a ASN) bool {
	for _, x := range xs {
		if x == a {
			return true
		}
	}
	return false
}

// Providers returns the upstream providers of asn, sorted.
func (g *Graph) Providers(asn ASN) []ASN { return sortedCopy(g.providers[asn]) }

// Customers returns the downstream customers of asn, sorted.
func (g *Graph) Customers(asn ASN) []ASN { return sortedCopy(g.customers[asn]) }

// Peers returns the settlement-free peers of asn, sorted.
func (g *Graph) Peers(asn ASN) []ASN { return sortedCopy(g.peers[asn]) }

// HasProvider reports whether p is a provider of asn.
func (g *Graph) HasProvider(asn, p ASN) bool { return containsASN(g.providers[asn], p) }

// AppendProviders appends asn's providers to dst and returns the
// extended slice, in insertion order (unsorted). It exists so bulk
// consumers — the dense CSR build walks every AS three times — can
// reuse one scratch buffer instead of paying Providers' per-call
// sorted copy.
func (g *Graph) AppendProviders(dst []ASN, asn ASN) []ASN { return append(dst, g.providers[asn]...) }

// AppendCustomers is AppendProviders for customer edges.
func (g *Graph) AppendCustomers(dst []ASN, asn ASN) []ASN { return append(dst, g.customers[asn]...) }

// AppendPeers is AppendProviders for peer edges.
func (g *Graph) AppendPeers(dst []ASN, asn ASN) []ASN { return append(dst, g.peers[asn]...) }

// Degree returns asn's provider, customer, and peer edge counts
// without copying adjacency.
func (g *Graph) Degree(asn ASN) (prov, cust, peer int) {
	return len(g.providers[asn]), len(g.customers[asn]), len(g.peers[asn])
}

func sortedCopy(xs []ASN) []ASN {
	out := make([]ASN, len(xs))
	copy(out, xs)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ASes returns every ASN that appears in the graph, sorted.
func (g *Graph) ASes() []ASN {
	seen := map[ASN]bool{}
	for a, bs := range g.customers {
		seen[a] = true
		for _, b := range bs {
			seen[b] = true
		}
	}
	for a, bs := range g.peers {
		seen[a] = true
		for _, b := range bs {
			seen[b] = true
		}
	}
	out := make([]ASN, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ParseGraph reads a serial-1 relationship file: lines of
// "<as0>|<as1>|<rel>" with '#' comments.
func ParseGraph(r io.Reader) (*Graph, error) {
	g := NewGraph()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rel, err := parseRelLine(line)
		if err != nil {
			return nil, fmt.Errorf("bgp: line %d: %w", lineNo, err)
		}
		g.AddRel(rel)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bgp: read: %w", err)
	}
	return g, nil
}

func parseRelLine(line string) (Rel, error) {
	parts := strings.Split(line, "|")
	if len(parts) < 3 {
		return Rel{}, fmt.Errorf("malformed relationship %q", line)
	}
	a, err := strconv.ParseUint(parts[0], 10, 32)
	if err != nil {
		return Rel{}, fmt.Errorf("bad ASN %q: %w", parts[0], err)
	}
	b, err := strconv.ParseUint(parts[1], 10, 32)
	if err != nil {
		return Rel{}, fmt.Errorf("bad ASN %q: %w", parts[1], err)
	}
	k, err := strconv.Atoi(parts[2])
	if err != nil {
		return Rel{}, fmt.Errorf("bad relationship kind %q: %w", parts[2], err)
	}
	if k != int(ProviderCustomer) && k != int(PeerPeer) {
		return Rel{}, fmt.Errorf("unknown relationship kind %d", k)
	}
	return Rel{ASN(a), ASN(b), RelKind(k)}, nil
}

// WriteTo writes the graph in serial-1 syntax with a provenance comment,
// implementing io.WriterTo. Edges are emitted deterministically.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	var n int64
	write := func(s string) error {
		k, err := io.WriteString(w, s)
		n += int64(k)
		return err
	}
	if err := write("# vzlens serial-1 AS relationships\n"); err != nil {
		return n, err
	}
	var rels []Rel
	for p, cs := range g.customers {
		for _, c := range cs {
			rels = append(rels, Rel{p, c, ProviderCustomer})
		}
	}
	for a, bs := range g.peers {
		for _, b := range bs {
			if a < b { // each peer edge stored twice; emit once
				rels = append(rels, Rel{a, b, PeerPeer})
			}
		}
	}
	sort.Slice(rels, func(i, j int) bool {
		if rels[i].A != rels[j].A {
			return rels[i].A < rels[j].A
		}
		if rels[i].B != rels[j].B {
			return rels[i].B < rels[j].B
		}
		return rels[i].Kind < rels[j].Kind
	})
	for _, r := range rels {
		if err := write(r.String() + "\n"); err != nil {
			return n, err
		}
	}
	return n, nil
}

// Archive stores one relationship graph per month, like the dated CAIDA
// as-rel files the paper downloads back to 1998.
type Archive struct {
	byMonth map[months.Month]*Graph
}

// NewArchive returns an empty Archive.
func NewArchive() *Archive { return &Archive{byMonth: map[months.Month]*Graph{}} }

// Put stores the graph for month m.
func (a *Archive) Put(m months.Month, g *Graph) {
	if a.byMonth == nil {
		a.byMonth = map[months.Month]*Graph{}
	}
	a.byMonth[m] = g
}

// Get returns the graph for m, or nil.
func (a *Archive) Get(m months.Month) *Graph { return a.byMonth[m] }

// Months returns the archived months, sorted.
func (a *Archive) Months() []months.Month {
	out := make([]months.Month, 0, len(a.byMonth))
	for m := range a.byMonth {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// UpstreamSeries returns, per archived month, the number of providers of
// asn (the paper's Figure 8 top panel).
func (a *Archive) UpstreamSeries(asn ASN) map[months.Month]int {
	out := make(map[months.Month]int, len(a.byMonth))
	for m, g := range a.byMonth {
		out[m] = len(g.Providers(asn))
	}
	return out
}

// DownstreamSeries returns, per archived month, the number of customers of
// asn (Figure 8 bottom panel).
func (a *Archive) DownstreamSeries(asn ASN) map[months.Month]int {
	out := make(map[months.Month]int, len(a.byMonth))
	for m, g := range a.byMonth {
		out[m] = len(g.Customers(asn))
	}
	return out
}

// ProviderHistory returns, for each AS that has ever been a provider of
// asn for at least minMonths archived months, the set of months it was
// active — the data behind the Figure 9 heatmap.
func (a *Archive) ProviderHistory(asn ASN, minMonths int) map[ASN][]months.Month {
	active := map[ASN][]months.Month{}
	for m, g := range a.byMonth {
		for _, p := range g.Providers(asn) {
			active[p] = append(active[p], m)
		}
	}
	for p, ms := range active {
		if len(ms) < minMonths {
			delete(active, p)
			continue
		}
		sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	}
	return active
}

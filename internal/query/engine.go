package query

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"vzlens/internal/atlas"
	"vzlens/internal/facts"
	"vzlens/internal/months"
	"vzlens/internal/stats"
)

// ErrNotReady reports a query against a lake with no committed
// generation; the HTTP layer maps it onto 503 and triggers a build.
var ErrNotReady = errors.New("query: fact lake not built")

// Engine executes validated query plans over a fact lake.
type Engine struct {
	lake *facts.Lake
}

// New returns an Engine over lake.
func New(lake *facts.Lake) *Engine { return &Engine{lake: lake} }

// Result is the JSON document GET /api/query serves.
type Result struct {
	Metric     string  `json:"metric"`
	From       string  `json:"from"`
	To         string  `json:"to"`
	Percentile float64 `json:"percentile,omitempty"`
	GroupBy    string  `json:"group_by"`
	Country    string  `json:"country,omitempty"`
	Letter     string  `json:"letter,omitempty"`
	// Partitions is how many in-window partitions the query consulted —
	// also an upper bound on how many it could possibly have decoded,
	// which is what the pruning tests assert with the lake's decode
	// counter.
	Partitions int     `json:"partitions"`
	Groups     []Group `json:"groups"`
}

// Group is one group-by key's monthly series.
type Group struct {
	Key    string  `json:"key"`
	Points []Point `json:"points"`
}

// Point is one month's aggregate for one group.
type Point struct {
	Month string  `json:"month"`
	Value float64 `json:"value"`
	// N is the population behind Value: probes for the trace metrics,
	// answers for catchment share.
	N int `json:"n"`
}

// Run executes p. Only partitions whose month falls inside [From, To]
// are touched; everything else is pruned by construction.
func (e *Engine) Run(p Params) (*Result, error) {
	if !e.lake.Ready() {
		return nil, ErrNotReady
	}
	res := &Result{
		Metric:  p.Metric,
		From:    p.From.String(),
		To:      p.To.String(),
		GroupBy: p.GroupBy,
		Country: p.Country,
	}
	if p.Metric == MetricMedianRTT || p.Metric == MetricHopCount {
		res.Percentile = p.Percentile
	}
	if p.Letter != 0 {
		res.Letter = string(rune(p.Letter))
	}
	agg := newAggregator(p)
	var err error
	switch p.Metric {
	case MetricCatchmentShare:
		err = e.runChaos(p, agg, res)
	default:
		err = e.runTrace(p, agg, res)
	}
	if err != nil {
		return nil, err
	}
	res.Groups = agg.finish()
	return res, nil
}

// aggregator accumulates per-group monthly series in first-appearance
// order, sorted by key at finish.
type aggregator struct {
	byKey map[string]*Group
	order []*Group
	// vals buffers one month's per-probe minimums per group for the
	// percentile metrics; drained (and reused) every month.
	vals map[string][]float64
}

func newAggregator(Params) *aggregator {
	return &aggregator{byKey: map[string]*Group{}, vals: map[string][]float64{}}
}

func (a *aggregator) group(key string) *Group {
	g, ok := a.byKey[key]
	if !ok {
		g = &Group{Key: key}
		a.byKey[key] = g
		a.order = append(a.order, g)
	}
	return g
}

func (a *aggregator) point(key string, m months.Month, value float64, n int) {
	g := a.group(key)
	g.Points = append(g.Points, Point{Month: m.String(), Value: value, N: n})
}

func (a *aggregator) finish() []Group {
	sort.Slice(a.order, func(i, j int) bool { return a.order[i].Key < a.order[j].Key })
	out := make([]Group, 0, len(a.order))
	for _, g := range a.order {
		if len(g.Points) > 0 {
			out = append(out, *g)
		}
	}
	return out
}

// runTrace executes the traceroute-backed metrics over each
// partition's per-probe minima.
func (e *Engine) runTrace(p Params, agg *aggregator, res *Result) error {
	dims := e.lake.Dims()
	for _, m := range e.lake.TraceMonths() {
		if m.Before(p.From) || m.After(p.To) {
			continue
		}
		part, err := e.lake.TracePart(m)
		if err != nil {
			return fmt.Errorf("partition %s: %w", m, err)
		}
		if part == nil {
			continue
		}
		res.Partitions++
		filterCode := countryFilter(p.Country, part.Dict)
		part.ProbeMinima(func(pm atlas.ProbeMinimum) {
			if filterCode != -2 && int(pm.CC) != filterCode {
				return
			}
			key := traceGroupKey(p.GroupBy, part.Dict[pm.CC], pm.ProbeID, dims)
			vals, seen := agg.vals[key]
			if !seen {
				agg.group(key) // preserve first-appearance discovery
			}
			v := pm.RTT // MetricMedianRTT
			switch p.Metric {
			case MetricHopCount:
				v = float64(pm.Hops)
			case MetricReachability:
				v = 1
			}
			agg.vals[key] = append(vals, v)
		})
		e.flushTraceMonth(p, agg, m, dims)
	}
	return nil
}

// countryFilter returns the country filter's code in a partition
// dictionary: -2 when there is no filter, -1 when it matches no rows.
func countryFilter(country string, dict []string) int {
	if country == "" {
		return -2
	}
	return slices.Index(dict, country)
}

// traceGroupKey resolves one probe's group key.
func traceGroupKey(groupBy, cc string, probe int32, dims *facts.Dimensions) string {
	switch groupBy {
	case GroupASN:
		asn, _ := dims.ProbeASN(probe)
		return "AS" + strconv.FormatUint(uint64(asn), 10)
	case GroupNone:
		return "all"
	default:
		return cc
	}
}

// flushTraceMonth turns the month's buffered per-probe values into one
// point per group and resets the buffers.
func (e *Engine) flushTraceMonth(p Params, agg *aggregator, m months.Month, dims *facts.Dimensions) {
	for key, vals := range agg.vals {
		if len(vals) == 0 {
			continue
		}
		switch p.Metric {
		case MetricReachability:
			denom := reachDenominator(p, key, m, dims)
			if denom > 0 {
				agg.point(key, m, float64(len(vals))/float64(denom), len(vals))
			}
		default:
			v, err := stats.Percentile(vals, p.Percentile)
			if err == nil {
				agg.point(key, m, v, len(vals))
			}
		}
		agg.vals[key] = vals[:0]
	}
}

// reachDenominator is the reachability metric's denominator: probes
// whose SCD2 membership window covers m, within the group and any
// country filter.
func reachDenominator(p Params, key string, m months.Month, dims *facts.Dimensions) int {
	cc, asn := p.Country, uint64(0)
	switch p.GroupBy {
	case GroupCountry:
		cc = key
	case GroupASN:
		asn, _ = strconv.ParseUint(key[2:], 10, 32)
	}
	return dims.ActiveProbes(m, cc, uint32(asn))
}

// runChaos executes catchment_share: the domestic fraction of CHAOS
// answers — site country equal to probe country, a single dictionary
// code comparison per row. A row is a (probe, answer) code pair, so
// the filters and group keys are resolved once per probe and once per
// answer before the rows are scanned, not once per row.
func (e *Engine) runChaos(p Params, agg *aggregator, res *Result) error {
	dims := e.lake.Dims()
	type cell struct{ domestic, total int }
	counts := map[string]*cell{}
	cellOf := func(key string) *cell {
		c, ok := counts[key]
		if !ok {
			c = &cell{}
			counts[key] = c
			agg.group(key)
		}
		return c
	}
	// A row counts toward its probe's cell, or its answer's when
	// grouping by letter; the other code's slot holds kept when its
	// filter passes. A nil slot drops the row.
	var kept cell
	var probeCell, answerCell []*cell
	for _, m := range e.lake.ChaosMonths() {
		if m.Before(p.From) || m.After(p.To) {
			continue
		}
		part, err := e.lake.ChaosPart(m)
		if err != nil {
			return fmt.Errorf("partition %s: %w", m, err)
		}
		if part == nil {
			continue
		}
		res.Partitions++
		filterCode := countryFilter(p.Country, part.Dict)
		probeCell = slices.Grow(probeCell[:0], len(part.Probes))
		for _, pr := range part.Probes {
			var c *cell
			if filterCode == -2 || int(pr.CC) == filterCode {
				switch p.GroupBy {
				case GroupASN:
					asn, _ := dims.ProbeASN(pr.ID)
					c = cellOf("AS" + strconv.FormatUint(uint64(asn), 10))
				case GroupLetter:
					c = &kept
				case GroupNone:
					c = cellOf("all")
				default:
					c = cellOf(part.Dict[pr.CC])
				}
			}
			probeCell = append(probeCell, c)
		}
		answerCell = slices.Grow(answerCell[:0], len(part.Answers))
		for _, an := range part.Answers {
			var c *cell
			if p.Letter == 0 || an.Letter == p.Letter {
				c = &kept
				if p.GroupBy == GroupLetter {
					c = cellOf(string(rune(an.Letter)))
				}
			}
			answerCell = append(answerCell, c)
		}
		for i, ac := range part.Answer {
			ca := answerCell[ac]
			if ca == nil {
				continue
			}
			pc := part.Probe[i]
			c := probeCell[pc]
			if c == nil {
				continue
			}
			if c == &kept {
				c = ca
			}
			c.total++
			if site := part.Answers[ac].SiteCC; site != atlas.DictNone && site == part.Probes[pc].CC {
				c.domestic++
			}
		}
		for key, c := range counts {
			if c.total > 0 {
				agg.point(key, m, float64(c.domestic)/float64(c.total), c.total)
			}
			c.domestic, c.total = 0, 0
		}
	}
	return nil
}

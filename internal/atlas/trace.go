package atlas

import (
	"cmp"
	"slices"
	"strings"

	"vzlens/internal/months"
	"vzlens/internal/series"
	"vzlens/internal/stats"
)

// TraceSample is one traceroute RTT sample toward the campaign target
// (Google Public DNS at 8.8.8.8 for measurement 1591).
type TraceSample struct {
	Month   months.Month
	ProbeID int
	ProbeCC string
	RTTms   float64
}

// TraceCampaign collects the platform-wide traceroute measurements over a
// five-day window at the start of each month, as one partition per month
// with samples. It is safe for concurrent reads; Add must not race
// anything.
type TraceCampaign struct {
	parts []*TracePartition // ascending by month, none empty
	// open holds the builders of the months Add has appended to. A
	// partition Add did not build may be shared (with the fact lake, or
	// with the baseline of a windowed scenario run), so Add copies it
	// into a builder before its first append.
	open map[months.Month]*traceBuilder
}

// NewTraceCampaign returns an empty campaign.
func NewTraceCampaign() *TraceCampaign { return &TraceCampaign{} }

// NewTraceCampaignOf returns the campaign whose months are parts, which
// must ascend by month without repeats; nil and empty partitions are
// dropped. The campaign takes ownership of the slice and shares the
// partitions, which nothing may modify afterwards.
func NewTraceCampaignOf(parts []*TracePartition) *TraceCampaign {
	kept := parts[:0]
	for _, p := range parts {
		if p == nil || p.Rows() == 0 {
			continue
		}
		if n := len(kept); n > 0 && p.Month <= kept[n-1].Month {
			panic("atlas: trace partitions out of month order")
		}
		kept = append(kept, p)
	}
	return &TraceCampaign{parts: kept}
}

// Add records a sample.
func (t *TraceCampaign) Add(s TraceSample) { t.builder(s.Month).add(s, 0) }

// builder returns the builder appending to month m, creating the
// month's partition or copying a shared one on first use.
func (t *TraceCampaign) builder(m months.Month) *traceBuilder {
	if b := t.open[m]; b != nil {
		return b
	}
	i, found := t.search(m)
	b := newTraceBuilder(m, 0, 0)
	if found {
		old := t.parts[i]
		for r := range old.Rows() {
			b.add(old.sample(r), old.Hops[r])
		}
		t.parts[i] = b.p
	} else {
		t.parts = slices.Insert(t.parts, i, b.p)
	}
	if t.open == nil {
		t.open = map[months.Month]*traceBuilder{}
	}
	t.open[m] = &b
	return &b
}

// search finds month m's position in the partition list.
func (t *TraceCampaign) search(m months.Month) (int, bool) {
	return slices.BinarySearchFunc(t.parts, m, func(p *TracePartition, m months.Month) int { return cmp.Compare(p.Month, m) })
}

// part returns month m's partition, or nil.
func (t *TraceCampaign) part(m months.Month) *TracePartition {
	if i, ok := t.search(m); ok {
		return t.parts[i]
	}
	return nil
}

// Partitions returns the campaign's month partitions, ascending by
// month. The slice and the partitions are shared: read only.
func (t *TraceCampaign) Partitions() []*TracePartition { return t.parts }

// Len returns the number of recorded samples.
func (t *TraceCampaign) Len() int {
	n := 0
	for _, p := range t.parts {
		n += p.Rows()
	}
	return n
}

// Months returns the months with samples, sorted.
func (t *TraceCampaign) Months() []months.Month {
	out := make([]months.Month, len(t.parts))
	for i, p := range t.parts {
		out[i] = p.Month
	}
	return out
}

// ProbeMinimum is one (probe, country) pair's minima over a trace
// partition's rows.
type ProbeMinimum struct {
	ProbeID int32
	CC      uint16  // probe country, dictionary code
	Hops    uint8   // minimum hop count
	RTT     float64 // minimum RTT sample in milliseconds
}

// ProbeMinima calls fn once per (probe, country) pair with rows in the
// partition, with that pair's minimum RTT and hop count: the per-probe
// step of the paper's estimator, which every trace analysis and the
// query engine take from here. Rows sorted by (probe, country), as the
// kernel emits them, reduce in one scan over runs that allocates
// nothing; rows in any other order (Add, an external ingest) are
// reduced over a sorted copy. The visiting order is unspecified.
func (p *TracePartition) ProbeMinima(fn func(ProbeMinimum)) {
	if !p.probeSorted() {
		p = p.sortedByProbe()
	}
	for i, n := 0, p.Rows(); i < n; {
		e := ProbeMinimum{ProbeID: p.ProbeID[i], CC: p.CC[i], Hops: p.Hops[i], RTT: p.RTT[i]}
		for i++; i < n && p.ProbeID[i] == e.ProbeID && p.CC[i] == e.CC; i++ {
			e.RTT = min(e.RTT, p.RTT[i])
			e.Hops = min(e.Hops, p.Hops[i])
		}
		fn(e)
	}
}

// probeSorted reports whether the rows ascend by (probe, country).
func (p *TracePartition) probeSorted() bool {
	for i := 1; i < len(p.ProbeID); i++ {
		if id, prev := p.ProbeID[i], p.ProbeID[i-1]; id < prev || id == prev && p.CC[i] < p.CC[i-1] {
			return false
		}
	}
	return true
}

// sortedByProbe returns a copy of the partition, sharing its
// dictionary, with the rows stably sorted by (probe, country).
func (p *TracePartition) sortedByProbe() *TracePartition {
	rows := make([]int, p.Rows())
	for i := range rows {
		rows[i] = i
	}
	slices.SortStableFunc(rows, func(a, b int) int {
		return cmp.Or(cmp.Compare(p.ProbeID[a], p.ProbeID[b]), cmp.Compare(p.CC[a], p.CC[b]))
	})
	q := &TracePartition{Month: p.Month, Dict: p.Dict}
	for _, r := range rows {
		q.RTT, q.ProbeID = append(q.RTT, p.RTT[r]), append(q.ProbeID, p.ProbeID[r])
		q.CC, q.Hops = append(q.CC, p.CC[r]), append(q.Hops, p.Hops[r])
	}
	return q
}

// CountryRTT is one probe country's aggregate over a trace partition:
// how many probes reported from it, and the median of their minimum
// RTTs — the paper's estimator for one (country, month).
type CountryRTT struct {
	CC        string
	Probes    int
	MedianRTT float64
}

// CountryRTTs returns the partition's per-country aggregates, sorted by
// country, from one ProbeMinima pass.
func (p *TracePartition) CountryRTTs() []CountryRTT {
	var mins []ProbeMinimum
	p.ProbeMinima(func(e ProbeMinimum) { mins = append(mins, e) })
	slices.SortFunc(mins, func(a, b ProbeMinimum) int { return cmp.Compare(a.CC, b.CC) })
	rtts := make([]float64, len(mins))
	var out []CountryRTT
	for i := 0; i < len(mins); {
		j := i
		for ; j < len(mins) && mins[j].CC == mins[i].CC; j++ {
			rtts[j] = mins[j].RTT
		}
		slices.Sort(rtts[i:j])
		med, _ := stats.MedianSorted(rtts[i:j]) // a run is never empty
		out = append(out, CountryRTT{CC: p.Dict[mins[i].CC], Probes: j - i, MedianRTT: med})
		i = j
	}
	slices.SortFunc(out, func(a, b CountryRTT) int { return strings.Compare(a.CC, b.CC) })
	return out
}

// ProbeMin returns, for each probe with samples in (m, cc), the minimum
// RTT across its samples that month. Taking the per-probe minimum first
// removes transient congestion noise — the paper's estimator.
func (t *TraceCampaign) ProbeMin(cc string, m months.Month) map[int]float64 {
	mins := map[int]float64{}
	t.countryMinima(cc, m, func(e ProbeMinimum) { mins[int(e.ProbeID)] = e.RTT })
	return mins
}

// countryMinima calls fn with the ProbeMinima entries of probes in
// (m, cc).
func (t *TraceCampaign) countryMinima(cc string, m months.Month, fn func(ProbeMinimum)) {
	if p := t.part(m); p != nil {
		if code := slices.Index(p.Dict, cc); code >= 0 {
			p.ProbeMinima(func(e ProbeMinimum) {
				if int(e.CC) == code {
					fn(e)
				}
			})
		}
	}
}

// CountryMedian returns the median of per-probe minimum RTTs for country
// cc in month m; ok is false when the country has no samples.
func (t *TraceCampaign) CountryMedian(cc string, m months.Month) (float64, bool) {
	var rtts []float64
	t.countryMinima(cc, m, func(e ProbeMinimum) { rtts = append(rtts, e.RTT) })
	med, err := stats.Median(rtts)
	return med, err == nil
}

// CountryMeanNaive returns the plain mean of all raw samples for (cc, m)
// without the per-probe minimum step — the estimator the ablation
// benchmarks compare against.
func (t *TraceCampaign) CountryMeanNaive(cc string, m months.Month) (float64, bool) {
	var vals []float64
	if p := t.part(m); p != nil {
		if code := slices.Index(p.Dict, cc); code >= 0 {
			for i, c := range p.CC {
				if int(c) == code {
					vals = append(vals, p.RTT[i])
				}
			}
		}
	}
	mean, err := stats.Mean(vals)
	return mean, err == nil
}

// MedianPanel returns the per-country monthly median-RTT panel — the data
// behind Figure 12.
func (t *TraceCampaign) MedianPanel() *series.Panel {
	panel := series.NewPanel()
	for _, p := range t.parts {
		for _, c := range p.CountryRTTs() {
			panel.Country(c.CC).Set(p.Month, c.MedianRTT)
		}
	}
	return panel
}

// ProbeMinsWithLocation returns each probe's minimum RTT in month m for
// country cc, keyed by probe ID — the per-vantage-point view behind
// Figure 20's map of RTT against geography.
func (t *TraceCampaign) ProbeMinsWithLocation(f *Fleet, cc string, m months.Month) map[int]ProbeRTT {
	out := map[int]ProbeRTT{}
	for id, min := range t.ProbeMin(cc, m) {
		p, ok := f.Probe(id)
		if !ok {
			continue
		}
		out[id] = ProbeRTT{Probe: p, MinRTTms: min}
	}
	return out
}

// ProbeRTT pairs a probe with its minimum observed RTT.
type ProbeRTT struct {
	Probe    Probe
	MinRTTms float64
}

// Samples returns a copy of all recorded samples as rows, month
// ascending and in insertion order within a month. That is the order
// the kernel emits and the fact lake stores; a campaign built by Add
// with out-of-order months comes back grouped by month.
func (t *TraceCampaign) Samples() []TraceSample {
	out := make([]TraceSample, 0, t.Len())
	for _, p := range t.parts {
		for i := range p.Rows() {
			out = append(out, p.sample(i))
		}
	}
	return out
}

package atlas

import (
	"cmp"
	"slices"

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

// ProbeMin returns, for each probe with samples in (m, cc), the minimum
// RTT across its samples that month. Taking the per-probe minimum first
// removes transient congestion noise — the paper's estimator.
func (t *TraceCampaign) ProbeMin(cc string, m months.Month) map[int]float64 {
	mins := map[int]float64{}
	p := t.part(m)
	if p == nil {
		return mins
	}
	code, ok := dictCode(p.Dict, cc)
	if !ok {
		return mins
	}
	for i, c := range p.CC {
		if c != code {
			continue
		}
		id, rtt := int(p.ProbeID[i]), p.RTT[i]
		if cur, ok := mins[id]; !ok || rtt < cur {
			mins[id] = rtt
		}
	}
	return mins
}

// CountryMedian returns the median of per-probe minimum RTTs for country
// cc in month m; ok is false when the country has no samples.
func (t *TraceCampaign) CountryMedian(cc string, m months.Month) (float64, bool) {
	mins := t.ProbeMin(cc, m)
	if len(mins) == 0 {
		return 0, false
	}
	vals := make([]float64, 0, len(mins))
	for _, v := range mins {
		vals = append(vals, v)
	}
	med, err := stats.Median(vals)
	return med, err == nil
}

// CountryMeanNaive returns the plain mean of all raw samples for (cc, m)
// without the per-probe minimum step — the estimator the ablation
// benchmarks compare against.
func (t *TraceCampaign) CountryMeanNaive(cc string, m months.Month) (float64, bool) {
	var vals []float64
	if p := t.part(m); p != nil {
		if code, ok := dictCode(p.Dict, cc); ok {
			for i, c := range p.CC {
				if c == code {
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
		for _, cc := range p.Dict {
			if med, ok := t.CountryMedian(cc, p.Month); ok {
				panel.Country(cc).Set(p.Month, med)
			}
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

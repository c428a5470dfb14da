package atlas

import (
	"cmp"
	"slices"

	"vzlens/internal/dnsroot"
	"vzlens/internal/months"
)

// ChaosResult is one CHAOS TXT hostname.bind answer observed by a probe
// querying one root letter during a monthly snapshot window.
type ChaosResult struct {
	Month   months.Month
	ProbeID int
	ProbeCC string
	Letter  dnsroot.Letter
	TXT     string
}

// ChaosCampaign collects the built-in root CHAOS measurements, as one
// partition per month with results. It is safe for concurrent reads;
// Add must not race anything.
type ChaosCampaign struct {
	parts []*ChaosPartition // ascending by month, none empty
	open  map[months.Month]*ChaosBuilder
}

// NewChaosCampaign returns an empty campaign.
func NewChaosCampaign() *ChaosCampaign { return &ChaosCampaign{} }

// NewChaosCampaignOf is NewTraceCampaignOf for CHAOS partitions.
func NewChaosCampaignOf(parts []*ChaosPartition) *ChaosCampaign {
	kept := parts[:0]
	for _, p := range parts {
		if p == nil || p.Rows() == 0 {
			continue
		}
		if n := len(kept); n > 0 && p.Month <= kept[n-1].Month {
			panic("atlas: chaos partitions out of month order")
		}
		kept = append(kept, p)
	}
	return &ChaosCampaign{parts: kept}
}

// Add records a result.
func (c *ChaosCampaign) Add(r ChaosResult) { c.builder(r.Month).Add(r) }

// builder is TraceCampaign.builder for CHAOS partitions.
func (c *ChaosCampaign) builder(m months.Month) *ChaosBuilder {
	if b := c.open[m]; b != nil {
		return b
	}
	i, found := c.search(m)
	b := NewChaosBuilder(m, 0)
	if found {
		old := c.parts[i]
		for r := range old.Rows() {
			b.Add(old.result(r))
		}
		c.parts[i] = b.p
	} else {
		c.parts = slices.Insert(c.parts, i, b.p)
	}
	if c.open == nil {
		c.open = map[months.Month]*ChaosBuilder{}
	}
	c.open[m] = b
	return b
}

// search finds month m's position in the partition list.
func (c *ChaosCampaign) search(m months.Month) (int, bool) {
	return slices.BinarySearchFunc(c.parts, m, func(p *ChaosPartition, m months.Month) int { return cmp.Compare(p.Month, m) })
}

// part returns month m's partition, or nil.
func (c *ChaosCampaign) part(m months.Month) *ChaosPartition {
	if i, ok := c.search(m); ok {
		return c.parts[i]
	}
	return nil
}

// Partitions returns the campaign's month partitions, ascending by
// month. The slice and the partitions are shared: read only.
func (c *ChaosCampaign) Partitions() []*ChaosPartition { return c.parts }

// Len returns the number of recorded results.
func (c *ChaosCampaign) Len() int {
	n := 0
	for _, p := range c.parts {
		n += p.Rows()
	}
	return n
}

// Months returns the months with results, sorted.
func (c *ChaosCampaign) Months() []months.Month {
	out := make([]months.Month, len(c.parts))
	for i, p := range c.parts {
		out[i] = p.Month
	}
	return out
}

// SitesByCountry maps the distinct CHAOS strings observed in month m to
// countries: each unique response that parses under its operator's
// convention counts as one root replica in the country of its location
// tag. Responses that fail to parse are skipped, mirroring the paper's
// regular-expression extraction. When onlyProbeCC is non-empty, only
// results from probes in that country are considered (the Figure 16 /
// Appendix E view from Venezuela).
func (c *ChaosCampaign) SitesByCountry(m months.Month, onlyProbeCC string) map[string]int {
	if p := c.part(m); p != nil {
		return p.sitesByCountry(onlyProbeCC)
	}
	return map[string]int{}
}

// sitesByCountry counts one month's distinct answers per site country,
// reading the answer table, which resolved each answer's site country
// once. Answers that differ only by case or padding are one instance.
func (p *ChaosPartition) sitesByCountry(onlyProbeCC string) map[string]int {
	out := map[string]int{}
	var heard []bool // per answer: a probe in onlyProbeCC received it
	if onlyProbeCC != "" {
		code := slices.Index(p.Dict, onlyProbeCC)
		if code < 0 {
			return out
		}
		heard = make([]bool, len(p.Answers))
		for i, pc := range p.Probe {
			if int(p.Probes[pc].CC) == code {
				heard[p.Answer[i]] = true
			}
		}
	}
	seen := map[siteKey]string{}
	for a, an := range p.Answers {
		if an.SiteCC == DictNone || heard != nil && !heard[a] {
			continue
		}
		seen[siteKey{dnsroot.Letter(an.Letter), normalizeTXT(p.Dict[an.TXT])}] = p.Dict[an.SiteCC]
	}
	for _, cc := range seen {
		out[cc]++
	}
	return out
}

// CountrySeries returns, per month, the number of distinct root replicas
// mapped to country cc across all probes — Figure 6's estimator.
func (c *ChaosCampaign) CountrySeries(cc string) map[months.Month]int {
	out := make(map[months.Month]int, len(c.parts))
	for _, p := range c.parts {
		out[p.Month] = p.sitesByCountry("")[cc]
	}
	return out
}

// ProbesSeen returns the distinct probes contributing results in month m,
// per probe country. The paper uses this to argue Venezuela's replica
// regression is not a coverage artifact (Appendix F).
func (c *ChaosCampaign) ProbesSeen(m months.Month) map[string]int {
	probes := map[int32]uint16{} // probe ID -> country code of its last row
	p := c.part(m)
	if p != nil {
		for _, pc := range p.Probe {
			pr := p.Probes[pc]
			probes[pr.ID] = pr.CC
		}
	}
	out := map[string]int{}
	for _, cc := range probes {
		out[p.Dict[cc]]++
	}
	return out
}

// Results returns a copy of all recorded results as rows, month
// ascending and in insertion order within a month (see
// TraceCampaign.Samples).
func (c *ChaosCampaign) Results() []ChaosResult {
	out := make([]ChaosResult, 0, c.Len())
	for _, p := range c.parts {
		for i := range p.Rows() {
			out = append(out, p.result(i))
		}
	}
	return out
}

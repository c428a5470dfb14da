package query

import (
	"sort"
	"strconv"

	"vzlens/internal/atlas"
	"vzlens/internal/dnsroot"
	"vzlens/internal/facts"
	"vzlens/internal/months"
	"vzlens/internal/stats"
)

// naiveRun is the property test's oracle: a deliberately simple
// full-scan implementation over the reconstructed row-oriented
// campaigns — maps instead of the partition reduction, per-row month
// filters instead of partition pruning, string keys instead of
// dictionary codes. Any divergence from Engine.Run is a bug in one of them.
// hops is the per-sample hop count aligned with tc.Samples() (a
// TraceSample carries no hop field; the fixture reads the column back
// out of the lake's partitions in month order).
func naiveRun(tc *atlas.TraceCampaign, cc *atlas.ChaosCampaign, dims *facts.Dimensions, hops []uint8, p Params) []Group {
	switch p.Metric {
	case MetricCatchmentShare:
		return naiveChaos(cc, dims, p)
	default:
		return naiveTrace(tc, dims, hops, p)
	}
}

func naiveGroupKey(p Params, probeCC string, probeID int, letter byte, dims *facts.Dimensions) string {
	switch p.GroupBy {
	case GroupASN:
		asn, _ := dims.ProbeASN(int32(probeID))
		return "AS" + strconv.FormatUint(uint64(asn), 10)
	case GroupLetter:
		return string(rune(letter))
	case GroupNone:
		return "all"
	default:
		return probeCC
	}
}

func naiveTrace(tc *atlas.TraceCampaign, dims *facts.Dimensions, hops []uint8, p Params) []Group {
	type probeKey struct {
		m     months.Month
		probe int
		cc    string
	}
	// Pass 1: per-probe minimums per month and probe country, full scan
	// with row filters.
	minRTT := map[probeKey]float64{}
	minHops := map[probeKey]uint8{}
	meta := map[probeKey]string{} // group key per probe-month
	for i, s := range tc.Samples() {
		if s.Month.Before(p.From) || s.Month.After(p.To) {
			continue
		}
		if p.Country != "" && s.ProbeCC != p.Country {
			continue
		}
		k := probeKey{s.Month, s.ProbeID, s.ProbeCC}
		if cur, ok := minRTT[k]; !ok || s.RTTms < cur {
			minRTT[k] = s.RTTms
		}
		if cur, ok := minHops[k]; !ok || hops[i] < cur {
			minHops[k] = hops[i]
		}
		meta[k] = naiveGroupKey(p, s.ProbeCC, s.ProbeID, 0, dims)
	}
	// Pass 2: percentile (or count) across probes per (group, month).
	type gm struct {
		key string
		m   months.Month
	}
	vals := map[gm][]float64{}
	for k, key := range meta {
		v := minRTT[k]
		if p.Metric == MetricHopCount {
			v = float64(minHops[k])
		}
		vals[gm{key, k.m}] = append(vals[gm{key, k.m}], v)
	}
	points := map[string][]Point{}
	for g, vs := range vals {
		switch p.Metric {
		case MetricReachability:
			cc, asn := p.Country, uint32(0)
			if p.GroupBy == GroupCountry {
				cc = g.key
			}
			if p.GroupBy == GroupASN {
				a, _ := strconv.ParseUint(g.key[2:], 10, 32)
				asn = uint32(a)
			}
			denom := dims.ActiveProbes(g.m, cc, asn)
			if denom > 0 {
				points[g.key] = append(points[g.key], Point{Month: g.m.String(), Value: float64(len(vs)) / float64(denom), N: len(vs)})
			}
		default:
			v, err := stats.Percentile(vs, p.Percentile)
			if err == nil {
				points[g.key] = append(points[g.key], Point{Month: g.m.String(), Value: v, N: len(vs)})
			}
		}
	}
	return sortGroups(points)
}

func naiveChaos(cc *atlas.ChaosCampaign, dims *facts.Dimensions, p Params) []Group {
	type gm struct {
		key string
		m   months.Month
	}
	domestic := map[gm]int{}
	total := map[gm]int{}
	for _, r := range cc.Results() {
		if r.Month.Before(p.From) || r.Month.After(p.To) {
			continue
		}
		if p.Country != "" && r.ProbeCC != p.Country {
			continue
		}
		if p.Letter != 0 && byte(r.Letter) != p.Letter {
			continue
		}
		key := naiveGroupKey(p, r.ProbeCC, r.ProbeID, byte(r.Letter), dims)
		g := gm{key, r.Month}
		total[g]++
		if site, err := dnsroot.ParseInstance(r.Letter, r.TXT); err == nil && site.Country == r.ProbeCC {
			domestic[g]++
		}
	}
	points := map[string][]Point{}
	for g, t := range total {
		if t > 0 {
			points[g.key] = append(points[g.key], Point{Month: g.m.String(), Value: float64(domestic[g]) / float64(t), N: t})
		}
	}
	return sortGroups(points)
}

func sortGroups(points map[string][]Point) []Group {
	keys := make([]string, 0, len(points))
	for k := range points {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Group, 0, len(keys))
	for _, k := range keys {
		ps := points[k]
		sort.Slice(ps, func(i, j int) bool { return ps[i].Month < ps[j].Month })
		out = append(out, Group{Key: k, Points: ps})
	}
	return out
}

package scenario

import (
	"cmp"
	"math"
	"slices"

	"vzlens/internal/atlas"
	"vzlens/internal/core"
	"vzlens/internal/months"
)

// Diff is the baseline-vs-scenario comparison the engine emits: the
// quantities the paper tracks (country RTT medians, probe reachability,
// root catchment) plus row-level diffs of the experiment tables. Every
// slice is sorted (month, then country / experiment ID), every float is
// rounded to fixed precision, and nothing depends on map iteration or
// scheduling — the same spec against the same world always serializes
// to the same bytes, which is what lets the serving layer store a diff
// once and replay it verbatim across restarts.
type Diff struct {
	Scenario    string `json:"scenario"`
	Key         string `json:"key"`
	Name        string `json:"name,omitempty"`
	Description string `json:"description,omitempty"`

	// Trace holds per-month, per-country median RTT deltas for every
	// country-month where the scenario moved the median (plus all VE
	// rows, changed or not — the paper's subject country is always
	// reported).
	Trace []TraceDelta `json:"trace"`

	// Reach holds probe-reachability changes: country-months where the
	// number of probes obtaining any RTT sample differs between
	// baseline and scenario (a probe whose AS lost all valley-free
	// paths to every anycast site disappears from the campaign).
	Reach []ReachDelta `json:"reach,omitempty"`

	// Catchment holds root-catchment shifts for Venezuelan probes: the
	// distinct root sites they reach per month, baseline vs scenario.
	Catchment []CatchmentDelta `json:"catchment,omitempty"`

	// Tables summarizes row-level changes in each experiment table.
	Tables []TableDelta `json:"tables"`
}

// TraceDelta is one changed country-month median.
type TraceDelta struct {
	Month      string  `json:"month"`
	CC         string  `json:"cc"`
	BaselineMs float64 `json:"baseline_ms"`
	ScenarioMs float64 `json:"scenario_ms"`
	DeltaMs    float64 `json:"delta_ms"`
}

// ReachDelta is one country-month where probe reachability changed.
type ReachDelta struct {
	Month          string `json:"month"`
	CC             string `json:"cc"`
	BaselineProbes int    `json:"baseline_probes"`
	ScenarioProbes int    `json:"scenario_probes"`
}

// CatchmentDelta is one month where Venezuelan probes' distinct root
// site count shifted.
type CatchmentDelta struct {
	Month         string `json:"month"`
	BaselineSites int    `json:"baseline_sites"`
	ScenarioSites int    `json:"scenario_sites"`
}

// TableDelta summarizes how one experiment table changed. Changes is
// capped (changedRowCap) to keep diffs of heavily-shifted tables
// bounded; ChangedRows is always the true total.
type TableDelta struct {
	Experiment  string      `json:"experiment"`
	ChangedRows int         `json:"changed_rows"`
	TotalRows   int         `json:"total_rows"`
	Changes     []RowChange `json:"changes,omitempty"`
}

// RowChange is one changed table row, keyed by its first cell.
type RowChange struct {
	Row      string   `json:"row"` // first cell of the row (month, CC, ...)
	Baseline []string `json:"baseline,omitempty"`
	Scenario []string `json:"scenario,omitempty"`
}

// changedRowCap bounds per-table row listings in a diff.
const changedRowCap = 24

// round2 quantizes to two decimals so diffs don't carry float noise.
func round2(v float64) float64 { return math.Round(v*100) / 100 }

// subjectCC is the country always included in trace diffs.
const subjectCC = "VE"

// diffTrace compares the two trace campaigns month by month: country
// RTT medians (the Trace rows) and probes per country (the Reach rows,
// changed counts only), both from one CountryRTTs pass over each
// side's month partition. A month whose partition both campaigns share
// (one a windowed replay left untouched) is aggregated once and can
// change nothing, so it yields only the subject country's row.
func diffTrace(base, scen *atlas.TraceCampaign) (trace []TraceDelta, reach []ReachDelta) {
	month := func(p *atlas.TracePartition) months.Month { return p.Month }
	zip(base.Partitions(), scen.Partitions(), month, func(b, s *atlas.TracePartition) {
		var bs, ss []atlas.CountryRTT
		if b != nil {
			bs = b.CountryRTTs()
		}
		if s == b {
			ss = bs
		} else if s != nil {
			ss = s.CountryRTTs()
		}
		m := cmp.Or(b, s).Month.String()
		country := func(c atlas.CountryRTT) string { return c.CC }
		zip(bs, ss, country, func(bc, sc atlas.CountryRTT) {
			cc := cmp.Or(bc.CC, sc.CC)
			bv, sv := round2(bc.MedianRTT), round2(sc.MedianRTT)
			if cc == subjectCC || bc.Probes == 0 || sc.Probes == 0 || bv != sv {
				trace = append(trace, TraceDelta{Month: m, CC: cc, BaselineMs: bv, ScenarioMs: sv,
					DeltaMs: round2(sc.MedianRTT - bc.MedianRTT)})
			}
			if bc.Probes != sc.Probes {
				reach = append(reach, ReachDelta{Month: m, CC: cc, BaselineProbes: bc.Probes, ScenarioProbes: sc.Probes})
			}
		})
	})
	return trace, reach
}

// diffCatchment compares the distinct root sites Venezuelan probes
// reach per month, keeping only changed months; a month whose
// partition both campaigns share is skipped.
func diffCatchment(base, scen *atlas.ChaosCampaign) []CatchmentDelta {
	var out []CatchmentDelta
	month := func(p *atlas.ChaosPartition) months.Month { return p.Month }
	zip(base.Partitions(), scen.Partitions(), month, func(bp, sp *atlas.ChaosPartition) {
		if bp == sp {
			return
		}
		m := cmp.Or(bp, sp).Month
		b := len(base.SitesByCountry(m, subjectCC))
		s := len(scen.SitesByCountry(m, subjectCC))
		if b != s {
			out = append(out, CatchmentDelta{Month: m.String(), BaselineSites: b, ScenarioSites: s})
		}
	})
	return out
}

// zip walks two lists ascending by key in step, calling fn once per key
// with each list's element under it, or the zero value where a list
// lacks the key.
func zip[T any, K cmp.Ordered](a, b []T, key func(T) K, fn func(a, b T)) {
	for len(a) > 0 || len(b) > 0 {
		var x, y T
		switch {
		case len(b) == 0 || len(a) > 0 && key(a[0]) < key(b[0]):
			x, a = a[0], a[1:]
		case len(a) == 0 || key(b[0]) < key(a[0]):
			y, b = b[0], b[1:]
		default:
			x, y, a, b = a[0], b[0], a[1:], b[1:]
		}
		fn(x, y)
	}
}

// diffTable compares two renderings of one experiment table row by row,
// keying rows on their first cell (every experiment table's first
// column is its natural key: a month, a country, an AS).
func diffTable(id string, base, scen *core.Table) TableDelta {
	d := TableDelta{Experiment: id}
	key := func(row []string) string {
		if len(row) == 0 {
			return ""
		}
		return row[0]
	}
	baseBy := map[string][]string{}
	var order []string
	for _, row := range base.Rows {
		k := key(row)
		if _, ok := baseBy[k]; !ok {
			order = append(order, k)
		}
		baseBy[k] = row
	}
	scenBy := map[string][]string{}
	for _, row := range scen.Rows {
		k := key(row)
		scenBy[k] = row
		if _, ok := baseBy[k]; !ok {
			order = append(order, k) // scenario-only row, after base order
		}
	}
	d.TotalRows = max(len(base.Rows), len(scen.Rows))
	for _, k := range order {
		b, s := baseBy[k], scenBy[k]
		if slices.Equal(b, s) {
			continue
		}
		d.ChangedRows++
		if len(d.Changes) < changedRowCap {
			d.Changes = append(d.Changes, RowChange{Row: k, Baseline: b, Scenario: s})
		}
	}
	return d
}

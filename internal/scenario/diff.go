package scenario

import (
	"math"
	"sort"

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

// diffTrace compares country RTT medians month by month. Months and
// countries come from the union of both campaigns, visited in sorted
// order.
func diffTrace(base, scen *atlas.TraceCampaign) []TraceDelta {
	ms := unionMonths(base.Months(), scen.Months())
	byMonth := countriesByMonth(base, scen)
	var out []TraceDelta
	for _, m := range ms {
		for _, cc := range byMonth[m] {
			bv, bok := base.CountryMedian(cc, m)
			sv, sok := scen.CountryMedian(cc, m)
			if !bok && !sok {
				continue
			}
			changed := bok != sok || round2(bv) != round2(sv)
			if !changed && cc != subjectCC {
				continue
			}
			out = append(out, TraceDelta{
				Month:      m.String(),
				CC:         cc,
				BaselineMs: round2(bv),
				ScenarioMs: round2(sv),
				DeltaMs:    round2(sv - bv),
			})
		}
	}
	return out
}

// diffReach compares per-country probe counts (probes with at least one
// sample) month by month, keeping only changed rows.
func diffReach(base, scen *atlas.TraceCampaign) []ReachDelta {
	ms := unionMonths(base.Months(), scen.Months())
	byMonth := countriesByMonth(base, scen)
	var out []ReachDelta
	for _, m := range ms {
		for _, cc := range byMonth[m] {
			b := len(base.ProbeMin(cc, m))
			s := len(scen.ProbeMin(cc, m))
			if b != s {
				out = append(out, ReachDelta{
					Month: m.String(), CC: cc,
					BaselineProbes: b, ScenarioProbes: s,
				})
			}
		}
	}
	return out
}

// diffCatchment compares the distinct root sites Venezuelan probes
// reach per month, keeping only changed months.
func diffCatchment(base, scen *atlas.ChaosCampaign) []CatchmentDelta {
	ms := unionMonths(base.Months(), scen.Months())
	var out []CatchmentDelta
	for _, m := range ms {
		b := len(base.SitesByCountry(m, subjectCC))
		s := len(scen.SitesByCountry(m, subjectCC))
		if b != s {
			out = append(out, CatchmentDelta{
				Month: m.String(), BaselineSites: b, ScenarioSites: s,
			})
		}
	}
	return out
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
	if len(base.Rows) > len(scen.Rows) {
		d.TotalRows = len(base.Rows)
	} else {
		d.TotalRows = len(scen.Rows)
	}
	for _, k := range order {
		b, s := baseBy[k], scenBy[k]
		if equalRow(b, s) {
			continue
		}
		d.ChangedRows++
		if len(d.Changes) < changedRowCap {
			d.Changes = append(d.Changes, RowChange{Row: k, Baseline: b, Scenario: s})
		}
	}
	return d
}

func equalRow(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// unionMonths merges two sorted month lists.
func unionMonths(a, b []months.Month) []months.Month {
	seen := map[months.Month]bool{}
	var out []months.Month
	for _, m := range a {
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	for _, m := range b {
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// countriesByMonth indexes the union of both campaigns' probe
// countries into sorted per-month country sets, reading each month
// partition's CC column and dictionary rather than copying rows.
func countriesByMonth(base, scen *atlas.TraceCampaign) map[months.Month][]string {
	seen := map[months.Month]map[string]bool{}
	for _, tc := range []*atlas.TraceCampaign{base, scen} {
		for _, p := range tc.Partitions() {
			set, ok := seen[p.Month]
			if !ok {
				set = map[string]bool{}
				seen[p.Month] = set
			}
			used := make([]bool, len(p.Dict))
			for _, c := range p.CC {
				used[c] = true
			}
			for c, cc := range p.Dict {
				if used[c] {
					set[cc] = true
				}
			}
		}
	}
	out := make(map[months.Month][]string, len(seen))
	for m, set := range seen {
		ccs := make([]string, 0, len(set))
		for cc := range set {
			ccs = append(ccs, cc)
		}
		sort.Strings(ccs)
		out[m] = ccs
	}
	return out
}

package golden

import (
	"net/url"
	"reflect"
	"testing"

	"vzlens/internal/core"
	"vzlens/internal/facts"
	"vzlens/internal/query"
)

// TestExperimentTablesFromFacts is the fact lake's differential pin:
// every registry experiment table, rebuilt from campaigns reconstructed
// out of the columnar fact lake, must be byte-equal to the same golden
// snapshots TestExperimentTables checks against fresh simulation. This
// is the contract that lets the serving layer answer experiments,
// scenario baselines, and ad-hoc queries from the lake without any
// possibility of drift: if a kernel's emission order, the VZFC codec,
// or the reconstruction ever disagrees with simulation, a pinned table
// changes here.
func TestExperimentTablesFromFacts(t *testing.T) {
	lake, err := facts.Open(t.TempDir(), testWorld.Config.Scope())
	if err != nil {
		t.Fatal(err)
	}
	if err := lake.BuildFrom(testWorld, testWorld.TraceCampaign(), testWorld.ChaosCampaign()); err != nil {
		t.Fatal(err)
	}
	// Reopen cold: the build's generation holds the simulated
	// partitions, and this pin is about the ones decoded from disk.
	if lake, err = facts.Open(lake.Dir(), testWorld.Config.Scope()); err != nil {
		t.Fatal(err)
	}
	tc, err := lake.TraceCampaign()
	if err != nil {
		t.Fatal(err)
	}
	cc, err := lake.ChaosCampaign()
	if err != nil {
		t.Fatal(err)
	}
	// The reconstruction is row-for-row identical to the simulation the
	// package pinned at init — checked directly before the tables, so a
	// codec bug reads as "campaign differs", not 22 table diffs.
	if !reflect.DeepEqual(tc.Samples(), testTrace.Samples()) {
		t.Fatal("lake-reconstructed trace campaign differs from simulation")
	}
	if !reflect.DeepEqual(cc.Results(), testChaos.Results()) {
		t.Fatal("lake-reconstructed chaos campaign differs from simulation")
	}
	for _, e := range core.Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			tbl := e.Run(testWorld, tc, cc)
			check(t, e.ID, encode(t, tableDoc{
				Caption: tbl.Caption,
				Header:  tbl.Header,
				Rows:    tbl.Rows,
			}))
		})
	}

	// Representative /api/query responses pin the ad-hoc layer's exact
	// JSON: one per metric, covering percentile, group-by, and filter
	// variants the README documents.
	eng := query.New(lake)
	queries := []struct {
		name string
		raw  string
	}{
		{"query_median_rtt_ve", "metric=median_rtt&from=2013-06&to=2023-06&country=VE&group_by=none"},
		{"query_hop_count_p90", "metric=hop_count&from=2018-01&to=2021-01&percentile=90&group_by=asn&country=VE"},
		{"query_reachability", "metric=reachability&from=2013-06&to=2023-06&country=VE&group_by=none"},
		{"query_catchment_letters", "metric=catchment_share&from=2013-06&to=2023-06&country=VE&group_by=letter"},
	}
	for _, q := range queries {
		t.Run(q.name, func(t *testing.T) {
			vals, err := url.ParseQuery(q.raw)
			if err != nil {
				t.Fatal(err)
			}
			p, err := query.ParseParams(vals)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			check(t, q.name, encode(t, res))
		})
	}
}

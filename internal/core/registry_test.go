package core

import (
	"reflect"
	"testing"
)

// TestRegistryIsComplete checks every entry carries what the report,
// vzfigs and the campaign dispatch read from it.
func TestRegistryIsComplete(t *testing.T) {
	seen := map[string]bool{}
	var files []string
	for _, e := range Experiments() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %q", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Narrative == "" || e.Run == nil {
			t.Errorf("%s: title %q, narrative %q, Run set %v; want all three", e.ID, e.Title, e.Narrative, e.Run != nil)
		}
		switch e.Campaign {
		case "", "trace", "chaos":
		default:
			t.Errorf("%s: unknown campaign %q", e.ID, e.Campaign)
		}
		if (e.Series == nil) != (e.SeriesFile == "") {
			t.Errorf("%s: Series set %v but SeriesFile %q", e.ID, e.Series != nil, e.SeriesFile)
		}
		if e.SeriesFile != "" {
			files = append(files, e.SeriesFile)
		}
	}
	want := []string{
		"fig3_facilities.csv", "fig5_ipv6.csv", "fig6_rootdns.csv",
		"fig11_bandwidth.csv", "fig12_gpdns_rtt.csv", "fig13_gdp.csv",
		"fig16_root_origins.csv", "fig17_probes.csv", "fig20_probe_geo.csv",
	}
	if !reflect.DeepEqual(files, want) {
		t.Errorf("series files %q, want %q", files, want)
	}
}

// TestExperimentIDsPinned pins the ID set: the HTTP routes, the golden
// snapshot names and the benchmark's request deck are built from it.
func TestExperimentIDsPinned(t *testing.T) {
	want := []string{
		"fig1", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"fig17", "fig18", "fig19", "fig2", "fig20", "fig21", "fig3", "fig4",
		"fig5", "fig6", "fig7", "fig8", "fig9", "table1",
	}
	if got := ExperimentIDs(); !reflect.DeepEqual(got, want) {
		t.Errorf("ExperimentIDs() = %q, want %q", got, want)
	}
}

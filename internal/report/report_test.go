package report

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"vzlens/internal/atlas"
	"vzlens/internal/core"
	"vzlens/internal/months"
	"vzlens/internal/world"
)

// mustBuild is the test-only panicking form of world.Build.
func mustBuild(cfg world.Config) *world.World {
	w, err := world.Build(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

// shortCampaigns is a quarterly world whose campaigns cover the last
// half of 2023 only, so a full report renders in well under a second.
func shortCampaigns() world.Config {
	return world.Config{
		TraceStart: months.New(2023, time.July), TraceEnd: months.New(2023, time.December),
		ChaosStart: months.New(2023, time.July), ChaosEnd: months.New(2023, time.December),
		Step: 3,
	}
}

func TestSelectWithoutCampaigns(t *testing.T) {
	w := mustBuild(world.Config{Step: 6})
	secs, err := Select(w, []string{"table1", "fig4", "fig1"})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	var buf strings.Builder
	for _, s := range secs {
		ids = append(ids, s.ID)
		if s.tc != nil || s.cc != nil {
			t.Errorf("%s: campaign simulated for a selection that reads none", s.ID)
		}
		writeSection(&buf, s)
	}
	if want := []string{"fig1", "fig4", "table1"}; !reflect.DeepEqual(ids, want) {
		t.Errorf("selection order %v, want registry order %v", ids, want)
	}
	doc := buf.String()
	for _, want := range []string{
		"## The crisis in macro numbers (Figure 1)",
		"## Submarine connectivity (Figure 4)",
		"ALBA-1",
		"## The eyeball market (Table 1)",
		"4,330,868",
		"| --- |",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("document missing %q", want)
		}
	}
}

func TestSelectRunsOnlyTheCampaignsItReads(t *testing.T) {
	w := mustBuild(shortCampaigns())
	for _, tc := range []struct {
		ids          []string
		trace, chaos bool
	}{
		{[]string{"fig12"}, true, false},
		{[]string{"fig16"}, false, true},
		{[]string{"signatures"}, false, true},
		{[]string{"fig20", "fig6"}, true, true},
	} {
		secs, err := Select(w, tc.ids)
		if err != nil {
			t.Fatal(err)
		}
		if got := secs[0].tc != nil; got != tc.trace {
			t.Errorf("%v: trace campaign simulated = %v, want %v", tc.ids, got, tc.trace)
		}
		if got := secs[0].cc != nil; got != tc.chaos {
			t.Errorf("%v: CHAOS campaign simulated = %v, want %v", tc.ids, got, tc.chaos)
		}
	}
}

func TestSelectRejectsUnknownID(t *testing.T) {
	w := mustBuild(world.Config{Step: 6})
	if _, err := Select(w, []string{"fig1", "fig99"}); err == nil || !strings.Contains(err.Error(), `"fig99"`) {
		t.Errorf("Select(fig99) error = %v, want unknown experiment \"fig99\"", err)
	}
}

func TestGenerateWithCampaigns(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation")
	}
	w := mustBuild(shortCampaigns())
	doc, err := Generate(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"## Latency to Google Public DNS (Figure 12)",
		"## Root origins serving Venezuela (Figure 16)",
		"VE / region",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("document missing %q", want)
		}
	}
}

// TestGenerateHasOneSectionPerExperiment pins the report to the
// registry: one section per registered experiment, in registry order,
// then the crisis signatures.
func TestGenerateHasOneSectionPerExperiment(t *testing.T) {
	w := mustBuild(shortCampaigns())
	doc, err := Generate(w)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(doc, "\n") {
		if title, ok := strings.CutPrefix(line, "## "); ok {
			got = append(got, title)
		}
	}
	var want []string
	for _, e := range core.Experiments() {
		want = append(want, e.Title)
	}
	want = append(want, signatures.Title)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("section titles\n got %q\nwant %q", got, want)
	}
}

// TestSignaturesSelectionMatchesReport pins `vzreport -only signatures`
// to the report's closing table: both read the CHAOS campaign, so both
// carry the root-replica disappearance.
func TestSignaturesSelectionMatchesReport(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation")
	}
	w := mustBuild(world.Config{Step: 3})
	secs, err := Select(w, []string{"signatures"})
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) != 1 {
		t.Fatalf("selected %d sections, want 1", len(secs))
	}
	var only strings.Builder
	writeSection(&only, secs[0])
	if !strings.Contains(only.String(), "| dnsroot/replicas |") {
		t.Errorf("signatures table lacks the dnsroot/replicas row:\n%s", only.String())
	}
	doc, err := Generate(w)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(doc, only.String()) {
		t.Errorf("report's closing section differs from the signatures selection:\n%s", only.String())
	}
}

func TestMarkdownTableEscapesPipes(t *testing.T) {
	sec := Section{Experiment: core.Experiment{
		Title: "T", Narrative: "N",
		Run: func(*world.World, *atlas.TraceCampaign, *atlas.ChaosCampaign) *core.Table {
			return &core.Table{Header: []string{"a|b", "c"}, Rows: [][]string{{"x", "y|z"}}}
		},
	}}
	var b strings.Builder
	writeSection(&b, sec)
	want := "## T\n\nN\n\n| a\\|b | c |\n| --- | --- |\n| x | y\\|z |\n\n"
	if b.String() != want {
		t.Errorf("section\n%q\nwant\n%q", b.String(), want)
	}
	// Every table line of the full report has balanced pipes.
	doc, err := Generate(mustBuild(shortCampaigns()))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "|") && !strings.HasSuffix(line, "|") {
			t.Errorf("unbalanced table row: %q", line)
		}
	}
}

// TestReportUpToDate regenerates the committed REPORT.md from the world
// `vzreport -md` builds and fails when the two differ.
func TestReportUpToDate(t *testing.T) {
	want, err := os.ReadFile("../../REPORT.md")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Generate(mustBuild(world.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("REPORT.md is stale; regenerate it with `go run ./cmd/vzreport -md REPORT.md`")
	}
}

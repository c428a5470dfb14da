package atlas_test

import (
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"vzlens/internal/atlas"
	"vzlens/internal/dnsroot"
	"vzlens/internal/facts"
	"vzlens/internal/geo"
	"vzlens/internal/months"
	"vzlens/internal/series"
	"vzlens/internal/stats"
	"vzlens/internal/world"
)

// The reference below is the row-scan implementation the campaign
// analysis methods had when a campaign was a flat row slice, kept
// verbatim (receivers aside) as the oracle for the partitioned
// methods: same maps, same floats, same panels.

type refTrace struct{ samples []atlas.TraceSample }

func (t *refTrace) Months() []months.Month {
	seen := map[months.Month]bool{}
	for _, s := range t.samples {
		seen[s.Month] = true
	}
	out := make([]months.Month, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (t *refTrace) ProbeMin(cc string, m months.Month) map[int]float64 {
	mins := map[int]float64{}
	for _, s := range t.samples {
		if s.Month != m || s.ProbeCC != cc {
			continue
		}
		if cur, ok := mins[s.ProbeID]; !ok || s.RTTms < cur {
			mins[s.ProbeID] = s.RTTms
		}
	}
	return mins
}

func (t *refTrace) CountryMedian(cc string, m months.Month) (float64, bool) {
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

func (t *refTrace) CountryMeanNaive(cc string, m months.Month) (float64, bool) {
	var vals []float64
	for _, s := range t.samples {
		if s.Month == m && s.ProbeCC == cc {
			vals = append(vals, s.RTTms)
		}
	}
	mean, err := stats.Mean(vals)
	return mean, err == nil
}

func (t *refTrace) MedianPanel() *series.Panel {
	countries := map[string]bool{}
	for _, s := range t.samples {
		countries[s.ProbeCC] = true
	}
	p := series.NewPanel()
	for cc := range countries {
		dst := p.Country(cc)
		for _, m := range t.Months() {
			if med, ok := t.CountryMedian(cc, m); ok {
				dst.Set(m, med)
			}
		}
	}
	return p
}

func (t *refTrace) ProbeMinsWithLocation(f *atlas.Fleet, cc string, m months.Month) map[int]atlas.ProbeRTT {
	out := map[int]atlas.ProbeRTT{}
	for id, min := range t.ProbeMin(cc, m) {
		p, ok := f.Probe(id)
		if !ok {
			continue
		}
		out[id] = atlas.ProbeRTT{Probe: p, MinRTTms: min}
	}
	return out
}

type refChaos struct{ results []atlas.ChaosResult }

func (c *refChaos) Months() []months.Month {
	seen := map[months.Month]bool{}
	for _, r := range c.results {
		seen[r.Month] = true
	}
	out := make([]months.Month, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

type refSiteKey struct {
	letter dnsroot.Letter
	txt    string
}

func (c *refChaos) SitesByCountry(m months.Month, onlyProbeCC string) map[string]int {
	seen := map[refSiteKey]string{}
	for _, r := range c.results {
		if r.Month != m {
			continue
		}
		if onlyProbeCC != "" && r.ProbeCC != onlyProbeCC {
			continue
		}
		site, err := dnsroot.ParseInstance(r.Letter, r.TXT)
		if err != nil {
			continue
		}
		seen[refSiteKey{r.Letter, strings.ToLower(strings.TrimSpace(r.TXT))}] = site.Country
	}
	out := map[string]int{}
	for _, cc := range seen {
		out[cc]++
	}
	return out
}

func (c *refChaos) CountrySeries(cc string) map[months.Month]int {
	out := map[months.Month]int{}
	for _, m := range c.Months() {
		out[m] = c.SitesByCountry(m, "")[cc]
	}
	return out
}

func (c *refChaos) ProbesSeen(m months.Month) map[string]int {
	probes := map[int]string{}
	for _, r := range c.results {
		if r.Month == m {
			probes[r.ProbeID] = r.ProbeCC
		}
	}
	out := map[string]int{}
	for _, cc := range probes {
		out[cc]++
	}
	return out
}

// samePanel compares two panels point for point.
func samePanel(a, b *series.Panel) bool {
	if !slices.Equal(a.Countries(), b.Countries()) {
		return false
	}
	for _, cc := range a.Countries() {
		if !slices.Equal(a.Country(cc).Points(), b.Country(cc).Points()) {
			return false
		}
	}
	return true
}

// checkTrace compares every trace analysis method against the reference
// for every (country, month) the rows hold, plus a country and a month
// they do not.
func checkTrace(t *testing.T, name string, tc *atlas.TraceCampaign, rows []atlas.TraceSample, fleet *atlas.Fleet) {
	t.Helper()
	ref := &refTrace{rows}
	ms := ref.Months()
	if got := tc.Months(); !slices.Equal(got, ms) {
		t.Fatalf("%s: Months = %v, want %v", name, got, ms)
	}
	ccs := []string{"ZZ"}
	for _, s := range rows {
		if !slices.Contains(ccs, s.ProbeCC) {
			ccs = append(ccs, s.ProbeCC)
		}
	}
	for _, m := range append(ms, months.MustParse("1999-01")) {
		for _, cc := range ccs {
			if got, want := tc.ProbeMin(cc, m), ref.ProbeMin(cc, m); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: ProbeMin(%s, %s) = %v, want %v", name, cc, m, got, want)
			}
			gv, gok := tc.CountryMedian(cc, m)
			wv, wok := ref.CountryMedian(cc, m)
			if gv != wv || gok != wok {
				t.Errorf("%s: CountryMedian(%s, %s) = %v %v, want %v %v", name, cc, m, gv, gok, wv, wok)
			}
			gv, gok = tc.CountryMeanNaive(cc, m)
			wv, wok = ref.CountryMeanNaive(cc, m)
			if gv != wv || gok != wok {
				t.Errorf("%s: CountryMeanNaive(%s, %s) = %v %v, want %v %v", name, cc, m, gv, gok, wv, wok)
			}
			if got, want := tc.ProbeMinsWithLocation(fleet, cc, m), ref.ProbeMinsWithLocation(fleet, cc, m); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: ProbeMinsWithLocation(%s, %s) differs", name, cc, m)
			}
		}
	}
	if !samePanel(tc.MedianPanel(), ref.MedianPanel()) {
		t.Errorf("%s: MedianPanel differs", name)
	}
}

// checkChaos is checkTrace for the CHAOS analysis methods. CountrySeries
// is compared for seriesCCs, or for every probe country when nil: each
// reference call re-parses every answer of every month, and
// SitesByCountry already covers each (country, month) count it reads.
func checkChaos(t *testing.T, name string, cc *atlas.ChaosCampaign, rows []atlas.ChaosResult, seriesCCs []string) {
	t.Helper()
	ref := &refChaos{rows}
	ms := ref.Months()
	if got := cc.Months(); !slices.Equal(got, ms) {
		t.Fatalf("%s: Months = %v, want %v", name, got, ms)
	}
	ccs := []string{"ZZ"}
	for _, r := range rows {
		if !slices.Contains(ccs, r.ProbeCC) {
			ccs = append(ccs, r.ProbeCC)
		}
	}
	for _, m := range append(ms, months.MustParse("1999-01")) {
		for _, only := range []string{"", "VE", "ZZ"} {
			if got, want := cc.SitesByCountry(m, only), ref.SitesByCountry(m, only); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: SitesByCountry(%s, %q) = %v, want %v", name, m, only, got, want)
			}
		}
		if got, want := cc.ProbesSeen(m), ref.ProbesSeen(m); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ProbesSeen(%s) = %v, want %v", name, m, got, want)
		}
	}
	if seriesCCs == nil {
		seriesCCs = ccs
	}
	for _, c := range seriesCCs {
		if got, want := cc.CountrySeries(c), ref.CountrySeries(c); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: CountrySeries(%s) = %v, want %v", name, c, got, want)
		}
	}
}

// TestAnalysisMatchesRowScan is the partitioned analysis methods'
// differential test: on the Step-3 campaigns vzserve serves, built by
// the kernel and reloaded from a fact lake, every method answers
// exactly as the row-scan reference does over the same rows.
func TestAnalysisMatchesRowScan(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates both Step-3 campaigns and builds a fact lake")
	}
	w, err := world.Build(world.Config{Step: 3})
	if err != nil {
		t.Fatal(err)
	}
	lake, err := facts.Open(t.TempDir(), w.Config.Scope())
	if err != nil {
		t.Fatal(err)
	}
	if err := lake.BuildFrom(w, w.TraceCampaign(), w.ChaosCampaign()); err != nil {
		t.Fatal(err)
	}
	// Reopen cold, so the lake's campaigns are decoded from disk.
	if lake, err = facts.Open(lake.Dir(), w.Config.Scope()); err != nil {
		t.Fatal(err)
	}
	lakeTC, err := lake.TraceCampaign()
	if err != nil {
		t.Fatal(err)
	}
	lakeCC, err := lake.ChaosCampaign()
	if err != nil {
		t.Fatal(err)
	}
	kernelTC, kernelCC := w.TraceCampaign(), w.ChaosCampaign()
	rowsT, rowsC := kernelTC.Samples(), kernelCC.Results()
	if !slices.Equal(lakeTC.Samples(), rowsT) || !slices.Equal(lakeCC.Results(), rowsC) {
		t.Fatal("lake-built campaign rows differ from the kernel's")
	}
	checkTrace(t, "kernel", kernelTC, rowsT, w.Fleet)
	checkTrace(t, "lake", lakeTC, rowsT, w.Fleet)
	seriesCCs := []string{"VE", "BR", "CO", "US", "ZZ"}
	checkChaos(t, "kernel", kernelCC, rowsC, seriesCCs)
	checkChaos(t, "lake", lakeCC, rowsC, seriesCCs)
}

// TestAnalysisMatchesRowScanHandBuilt covers what simulated campaigns
// never produce: months added out of order and revisited, TXT variants
// that differ only by case or padding, unparseable answers, and a
// probe reporting from two countries in one month.
func TestAnalysisMatchesRowScanHandBuilt(t *testing.T) {
	jan, feb, mar := months.MustParse("2020-01"), months.MustParse("2020-02"), months.MustParse("2020-03")
	lName := func(iata string) string {
		city, _ := geo.LookupIATA(iata)
		return dnsroot.InstanceName('L', city, 1, dnsroot.EraClassic)
	}
	ccs, gru := lName("CCS"), lName("GRU")

	trace := []atlas.TraceSample{
		{Month: mar, ProbeID: 1, ProbeCC: "VE", RTTms: 40},
		{Month: jan, ProbeID: 1, ProbeCC: "VE", RTTms: 30},
		{Month: jan, ProbeID: 2, ProbeCC: "CO", RTTms: 12},
		{Month: mar, ProbeID: 1, ProbeCC: "VE", RTTms: 35},
		{Month: jan, ProbeID: 1, ProbeCC: "CO", RTTms: 9}, // probe 1 seen in two countries
		{Month: feb, ProbeID: 3, ProbeCC: "BR", RTTms: 20},
		{Month: jan, ProbeID: 1, ProbeCC: "VE", RTTms: 25},
		{Month: mar, ProbeID: 4, ProbeCC: "VE", RTTms: 70},
		{Month: feb, ProbeID: 3, ProbeCC: "BR", RTTms: 0.1},
	}
	chaos := []atlas.ChaosResult{
		{Month: feb, ProbeID: 1, ProbeCC: "VE", Letter: 'L', TXT: ccs},
		{Month: jan, ProbeID: 1, ProbeCC: "VE", Letter: 'L', TXT: strings.ToUpper(ccs)},
		{Month: jan, ProbeID: 2, ProbeCC: "CO", Letter: 'L', TXT: "  " + ccs + " "},
		{Month: jan, ProbeID: 1, ProbeCC: "CO", Letter: 'L', TXT: gru}, // probe 1 seen in two countries
		{Month: jan, ProbeID: 3, ProbeCC: "BR", Letter: 'F', TXT: "not-a-real-response"},
		{Month: feb, ProbeID: 3, ProbeCC: "BR", Letter: 'L', TXT: gru},
		{Month: jan, ProbeID: 4, ProbeCC: "VE", Letter: 'F', TXT: ccs}, // L's name under F: no parse
		{Month: mar, ProbeID: 2, ProbeCC: "VE", Letter: 'L', TXT: strings.ToUpper(gru)},
		{Month: feb, ProbeID: 5, ProbeCC: "VE", Letter: 'L', TXT: " " + strings.ToUpper(ccs)},
	}
	tc, cc := atlas.NewTraceCampaign(), atlas.NewChaosCampaign()
	for _, s := range trace {
		tc.Add(s)
	}
	for _, r := range chaos {
		cc.Add(r)
	}

	f := atlas.NewFleet()
	sci, _ := geo.LookupIATA("SCI")
	f.Add(atlas.Probe{ID: 1, Country: "VE", City: sci, Connected: jan})
	f.Add(atlas.Probe{ID: 3, Country: "BR", City: sci, Connected: jan})
	checkTrace(t, "hand-built", tc, trace, f)
	checkChaos(t, "hand-built", cc, chaos, nil)

	// Rows come back grouped by month, in insertion order within one.
	byMonthT := slices.Clone(trace)
	sort.SliceStable(byMonthT, func(i, j int) bool { return byMonthT[i].Month < byMonthT[j].Month })
	if got := tc.Samples(); !slices.Equal(got, byMonthT) {
		t.Errorf("Samples = %v, want %v", got, byMonthT)
	}
	byMonthC := slices.Clone(chaos)
	sort.SliceStable(byMonthC, func(i, j int) bool { return byMonthC[i].Month < byMonthC[j].Month })
	if got := cc.Results(); !slices.Equal(got, byMonthC) {
		t.Errorf("Results = %v, want %v", got, byMonthC)
	}
	if tc.Len() != len(trace) || cc.Len() != len(chaos) {
		t.Errorf("Len = %d/%d, want %d/%d", tc.Len(), cc.Len(), len(trace), len(chaos))
	}
	if got := cc.SitesByCountry(jan, "")["VE"]; got != 1 {
		t.Errorf("case and padding variants of one answer count %d VE sites, want 1", got)
	}
}

// TestAddCopiesSharedPartition pins Add's copy on write: appending to a
// campaign built over shared partitions leaves those partitions as they
// were.
func TestAddCopiesSharedPartition(t *testing.T) {
	m := months.MustParse("2021-06")
	shared := atlas.NewTracePartition(m, []atlas.TraceSample{{Month: m, ProbeID: 1, ProbeCC: "VE", RTTms: 30}}, []uint8{4})
	tc := atlas.NewTraceCampaignOf([]*atlas.TracePartition{shared})
	tc.Add(atlas.TraceSample{Month: m, ProbeID: 2, ProbeCC: "BR", RTTms: 10})
	if shared.Rows() != 1 || len(shared.Dict) != 1 {
		t.Fatalf("Add modified a shared partition: %+v", shared)
	}
	p := tc.Partitions()[0]
	if p == shared || p.Rows() != 2 || p.Hops[0] != 4 || !slices.Equal(p.Dict, []string{"VE", "BR"}) {
		t.Fatalf("copied partition = %+v", p)
	}

	sharedC := atlas.NewChaosPartition(m, []atlas.ChaosResult{{Month: m, ProbeID: 1, ProbeCC: "VE", Letter: 'L', TXT: "x"}})
	cc := atlas.NewChaosCampaignOf([]*atlas.ChaosPartition{sharedC})
	cc.Add(atlas.ChaosResult{Month: m, ProbeID: 2, ProbeCC: "VE", Letter: 'L', TXT: "x"})
	if sharedC.Rows() != 1 || cc.Partitions()[0] == sharedC || cc.Len() != 2 {
		t.Fatalf("chaos Add did not copy the shared partition: %+v", sharedC)
	}
}

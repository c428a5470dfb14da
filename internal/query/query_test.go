package query

import (
	"errors"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"reflect"
	"slices"
	"sync"
	"testing"

	"vzlens/internal/atlas"
	"vzlens/internal/facts"
	"vzlens/internal/months"
	"vzlens/internal/world"
)

// testConfig mirrors the facts package fixture: a two-year window at a
// quarterly step is 8 trace and 8 chaos partitions.
func testConfig() world.Config {
	return world.Config{
		TraceStart: months.MustParse("2018-01"),
		TraceEnd:   months.MustParse("2019-10"),
		ChaosStart: months.MustParse("2018-01"),
		ChaosEnd:   months.MustParse("2019-10"),
		Step:       3,
		Workers:    4,
	}
}

// fixture is the package-shared built lake: world simulation and lake
// construction cost enough that every test reuses one generation. Tests
// that assert on decode counters open their own cold Lake over fix.dir.
var (
	fixOnce sync.Once
	fix     struct {
		dir  string
		w    *world.World
		lake *facts.Lake
		eng  *Engine
		tc   *atlas.TraceCampaign
		cc   *atlas.ChaosCampaign
		hops []uint8 // per-sample hop counts aligned with tc.Samples()
		err  error
	}
)

func fixtureErr() error {
	fixOnce.Do(func() {
		fix.dir, fix.err = os.MkdirTemp("", "vzlens-query-test-*")
		if fix.err != nil {
			return
		}
		fix.w, fix.err = world.Build(testConfig())
		if fix.err != nil {
			return
		}
		fix.lake, fix.err = facts.Open(fix.dir, fix.w.Config.Scope())
		if fix.err != nil {
			return
		}
		if fix.err = fix.lake.BuildFrom(fix.w, fix.w.TraceCampaign(), fix.w.ChaosCampaign()); fix.err != nil {
			return
		}
		// Reopen cold, so queries read partitions decoded from disk.
		if fix.lake, fix.err = facts.Open(fix.dir, fix.w.Config.Scope()); fix.err != nil {
			return
		}
		fix.eng = New(fix.lake)
		if fix.tc, fix.err = fix.lake.TraceCampaign(); fix.err != nil {
			return
		}
		if fix.cc, fix.err = fix.lake.ChaosCampaign(); fix.err != nil {
			return
		}
		// The oracle's hop column: partitions concatenated in month order
		// align with the reconstructed campaign row for row.
		for _, m := range fix.lake.TraceMonths() {
			part, err := fix.lake.TracePart(m)
			if err != nil {
				fix.err = err
				return
			}
			fix.hops = append(fix.hops, part.Hops...)
		}
		if len(fix.hops) != len(fix.tc.Samples()) {
			fix.err = fmt.Errorf("hop column misaligned: %d hops, %d samples", len(fix.hops), len(fix.tc.Samples()))
		}
	})
	return fix.err
}

func fixture(t testing.TB) *Engine {
	t.Helper()
	if err := fixtureErr(); err != nil {
		t.Fatalf("build fixture: %v", err)
	}
	return fix.eng
}

func TestMain(m *testing.M) {
	code := m.Run()
	if fix.dir != "" {
		os.RemoveAll(fix.dir)
	}
	os.Exit(code)
}

func mustParams(t testing.TB, raw string) Params {
	t.Helper()
	q, err := url.ParseQuery(raw)
	if err != nil {
		t.Fatalf("parse query %q: %v", raw, err)
	}
	p, err := ParseParams(q)
	if err != nil {
		t.Fatalf("ParseParams(%q): %v", raw, err)
	}
	return p
}

func TestParseParamsAccepts(t *testing.T) {
	cases := []struct {
		raw  string
		want Params
	}{
		{
			"metric=median_rtt&from=2018-01&to=2019-10",
			Params{Metric: MetricMedianRTT, From: months.MustParse("2018-01"), To: months.MustParse("2019-10"), Percentile: 50, GroupBy: GroupCountry},
		},
		{
			"metric=hop_count&from=2018-01&to=2018-01&percentile=95&group_by=asn&country=VE",
			Params{Metric: MetricHopCount, From: months.MustParse("2018-01"), To: months.MustParse("2018-01"), Percentile: 95, GroupBy: GroupASN, Country: "VE"},
		},
		{
			"metric=reachability&from=2013-06&to=2023-06&group_by=none",
			Params{Metric: MetricReachability, From: months.MustParse("2013-06"), To: months.MustParse("2023-06"), Percentile: 50, GroupBy: GroupNone},
		},
		{
			"metric=catchment_share&from=2018-01&to=2019-10&group_by=letter&letter=K&country=VE",
			Params{Metric: MetricCatchmentShare, From: months.MustParse("2018-01"), To: months.MustParse("2019-10"), Percentile: 50, GroupBy: GroupLetter, Country: "VE", Letter: 'K'},
		},
	}
	for _, tc := range cases {
		got := mustParams(t, tc.raw)
		if got != tc.want {
			t.Errorf("ParseParams(%q)\n got %+v\nwant %+v", tc.raw, got, tc.want)
		}
	}
}

func TestParseParamsRejects(t *testing.T) {
	cases := []string{
		"",                               // metric missing
		"metric=median_rtt",              // window missing
		"metric=median_rtt&from=2018-01", // to missing
		"metric=bogus&from=2018-01&to=2018-02",
		"metric=median_rtt&from=2018-1&to=2018-02",                   // non-canonical month
		"metric=median_rtt&from=2018-013&to=2018-02",                 // garbage month
		"metric=median_rtt&from=2019-01&to=2018-01",                  // inverted window
		"metric=median_rtt&from=2018-01&to=2018-02&percentile=0",     // out of range
		"metric=median_rtt&from=2018-01&to=2018-02&percentile=101",   // out of range
		"metric=median_rtt&from=2018-01&to=2018-02&percentile=NaN",   // not a number
		"metric=reachability&from=2018-01&to=2018-02&percentile=50",  // percentile on wrong metric
		"metric=median_rtt&from=2018-01&to=2018-02&group_by=letter",  // letter group on trace metric
		"metric=median_rtt&from=2018-01&to=2018-02&group_by=city",    // unknown group
		"metric=median_rtt&from=2018-01&to=2018-02&country=ve",       // lower case
		"metric=median_rtt&from=2018-01&to=2018-02&country=VEN",      // three letters
		"metric=median_rtt&from=2018-01&to=2018-02&letter=K",         // letter on trace metric
		"metric=catchment_share&from=2018-01&to=2018-02&letter=Z",    // not a root letter
		"metric=catchment_share&from=2018-01&to=2018-02&letter=KK",   // too long
		"metric=median_rtt&from=2018-01&to=2018-02&frm=2018-01",      // unknown key
		"metric=median_rtt&metric=hop_count&from=2018-01&to=2018-02", // repeated key
	}
	for _, raw := range cases {
		q, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatalf("parse query %q: %v", raw, err)
		}
		if _, err := ParseParams(q); !errors.Is(err, ErrBadParams) {
			t.Errorf("ParseParams(%q) = %v, want ErrBadParams", raw, err)
		}
	}
}

func TestNotReady(t *testing.T) {
	lake, err := facts.Open(t.TempDir(), "empty-scope")
	if err != nil {
		t.Fatal(err)
	}
	eng := New(lake)
	_, err = eng.Run(mustParams(t, "metric=median_rtt&from=2018-01&to=2019-10"))
	if !errors.Is(err, ErrNotReady) {
		t.Fatalf("Run on empty lake = %v, want ErrNotReady", err)
	}
}

// TestEngineMatchesOracle pins every metric × group-by combination over
// the full window against the naive full-scan oracle.
func TestEngineMatchesOracle(t *testing.T) {
	eng := fixture(t)
	cases := []string{
		"metric=median_rtt&from=2018-01&to=2019-10",
		"metric=median_rtt&from=2018-01&to=2019-10&percentile=90&group_by=asn",
		"metric=median_rtt&from=2018-01&to=2019-10&group_by=none&country=VE",
		"metric=hop_count&from=2018-01&to=2019-10",
		"metric=hop_count&from=2018-01&to=2019-10&percentile=25&group_by=none",
		"metric=reachability&from=2018-01&to=2019-10",
		"metric=reachability&from=2018-01&to=2019-10&group_by=asn&country=VE",
		"metric=reachability&from=2018-01&to=2019-10&group_by=none",
		"metric=catchment_share&from=2018-01&to=2019-10",
		"metric=catchment_share&from=2018-01&to=2019-10&group_by=letter",
		"metric=catchment_share&from=2018-01&to=2019-10&group_by=letter&country=VE",
		"metric=catchment_share&from=2018-01&to=2019-10&letter=K",
		"metric=catchment_share&from=2018-01&to=2019-10&group_by=none",
	}
	for _, raw := range cases {
		p := mustParams(t, raw)
		got, err := eng.Run(p)
		if err != nil {
			t.Fatalf("Run(%q): %v", raw, err)
		}
		want := naiveRun(fix.tc, fix.cc, fix.lake.Dims(), fix.hops, p)
		if !reflect.DeepEqual(got.Groups, want) {
			t.Errorf("Run(%q) diverges from oracle:\n got %+v\nwant %+v", raw, got.Groups, want)
		}
		if len(got.Groups) == 0 {
			t.Errorf("Run(%q) returned no groups — fixture too small to exercise the metric", raw)
		}
	}
}

// TestQueryMatchesAtlasOnIngestedRows pins the query engine to the
// campaign analysis on rows outside kernel order: a lake built from an
// Add-built campaign whose probes interleave, one probe reporting from
// two countries in a month. For every (country, month), median_rtt is
// CountryMedian, and median_rtt and reachability count len(ProbeMin)
// probes.
func TestQueryMatchesAtlasOnIngestedRows(t *testing.T) {
	if err := fixtureErr(); err != nil {
		t.Fatal(err)
	}
	jan, feb, mar, apr := months.MustParse("2020-01"), months.MustParse("2020-02"), months.MustParse("2020-03"), months.MustParse("2020-04")
	rows := []atlas.TraceSample{
		{Month: mar, ProbeID: 1, ProbeCC: "VE", RTTms: 40},
		{Month: jan, ProbeID: 1, ProbeCC: "VE", RTTms: 30},
		{Month: jan, ProbeID: 2, ProbeCC: "CO", RTTms: 12},
		{Month: mar, ProbeID: 1, ProbeCC: "VE", RTTms: 35},
		{Month: jan, ProbeID: 1, ProbeCC: "CO", RTTms: 9}, // probe 1 seen in two countries
		{Month: feb, ProbeID: 3, ProbeCC: "BR", RTTms: 20},
		{Month: jan, ProbeID: 1, ProbeCC: "VE", RTTms: 25},
		{Month: mar, ProbeID: 4, ProbeCC: "VE", RTTms: 70},
		{Month: feb, ProbeID: 3, ProbeCC: "BR", RTTms: 0.1},
		// Probe 1's rows interleave with probe 2's: two probes, median 30.
		{Month: apr, ProbeID: 1, ProbeCC: "VE", RTTms: 10},
		{Month: apr, ProbeID: 2, ProbeCC: "VE", RTTms: 50},
		{Month: apr, ProbeID: 1, ProbeCC: "VE", RTTms: 90},
	}
	tc := atlas.NewTraceCampaign()
	for _, r := range rows {
		tc.Add(r)
	}
	lake, err := facts.Open(t.TempDir(), fix.w.Config.Scope())
	if err != nil {
		t.Fatal(err)
	}
	if err := lake.BuildFrom(fix.w, tc, atlas.NewChaosCampaign()); err != nil {
		t.Fatal(err)
	}
	eng := New(lake)
	type cell struct {
		cc string
		m  months.Month
	}
	seen := map[cell]bool{}
	for _, r := range rows {
		c := cell{r.ProbeCC, r.Month}
		if seen[c] {
			continue
		}
		seen[c] = true
		point := func(metric string) Point {
			t.Helper()
			res, err := eng.Run(mustParams(t, fmt.Sprintf("metric=%s&country=%s&from=%s&to=%s", metric, c.cc, c.m, c.m)))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Groups) != 1 || len(res.Groups[0].Points) != 1 {
				t.Fatalf("%s %s %s: groups %+v, want one point", metric, c.cc, c.m, res.Groups)
			}
			return res.Groups[0].Points[0]
		}
		wantMed, ok := tc.CountryMedian(c.cc, c.m)
		if !ok {
			t.Fatalf("CountryMedian(%s, %s) has no value", c.cc, c.m)
		}
		wantN := len(tc.ProbeMin(c.cc, c.m))
		if got := point(MetricMedianRTT); got.Value != wantMed || got.N != wantN {
			t.Errorf("median_rtt %s %s = %v over %d probes, atlas says %v over %d", c.cc, c.m, got.Value, got.N, wantMed, wantN)
		}
		if got := point(MetricReachability); got.N != wantN {
			t.Errorf("reachability %s %s counts %d probes, atlas says %d", c.cc, c.m, got.N, wantN)
		}
	}
}

// TestResultEnvelope pins the response metadata the HTTP layer serves.
func TestResultEnvelope(t *testing.T) {
	eng := fixture(t)
	res, err := eng.Run(mustParams(t, "metric=catchment_share&from=2018-04&to=2019-01&letter=K&country=VE"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metric != MetricCatchmentShare || res.From != "2018-04" || res.To != "2019-01" {
		t.Errorf("envelope window: %+v", res)
	}
	if res.Letter != "K" || res.Country != "VE" || res.GroupBy != GroupCountry {
		t.Errorf("envelope filters: %+v", res)
	}
	if res.Percentile != 0 {
		t.Errorf("percentile leaked into a share metric: %+v", res)
	}
	// 2018-04, 2018-07, 2018-10, 2019-01 are inside the window.
	if res.Partitions != 4 {
		t.Errorf("Partitions = %d, want 4", res.Partitions)
	}
}

// TestPartitionPruning proves the structural claim: a month-window
// query against a cold lake decodes exactly the in-window partitions,
// and a warm repeat decodes nothing.
func TestPartitionPruning(t *testing.T) {
	if err := fixtureErr(); err != nil {
		t.Fatal(err)
	}
	// A second Lake over the same directory starts cold: no cells
	// decoded, counter at zero.
	cold, err := facts.Open(fix.dir, fix.w.Config.Scope())
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Ready() {
		t.Fatal("reopened lake not ready")
	}
	eng := New(cold)

	res, err := eng.Run(mustParams(t, "metric=median_rtt&from=2018-04&to=2018-10"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitions != 3 {
		t.Fatalf("Partitions = %d, want 3 (2018-04, 2018-07, 2018-10)", res.Partitions)
	}
	if got := cold.Decodes(); got != 3 {
		t.Fatalf("cold window query decoded %d partitions, want exactly 3", got)
	}

	// Warm repeat: same window, zero new decodes.
	if _, err := eng.Run(mustParams(t, "metric=median_rtt&from=2018-04&to=2018-10")); err != nil {
		t.Fatal(err)
	}
	if got := cold.Decodes(); got != 3 {
		t.Fatalf("warm repeat decoded %d new partitions, want 0", got-3)
	}

	// Disjoint chaos window: only the chaos partitions inside it decode.
	if _, err := eng.Run(mustParams(t, "metric=catchment_share&from=2019-07&to=2019-10")); err != nil {
		t.Fatal(err)
	}
	if got := cold.Decodes(); got != 5 {
		t.Fatalf("decode counter = %d after chaos window, want 5 (3 trace + 2 chaos)", got)
	}

	// Window outside the campaign: nothing consulted, nothing decoded.
	res, err = eng.Run(mustParams(t, "metric=median_rtt&from=2025-01&to=2025-12"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitions != 0 || len(res.Groups) != 0 {
		t.Fatalf("out-of-campaign window touched data: %+v", res)
	}
	if got := cold.Decodes(); got != 5 {
		t.Fatalf("out-of-campaign window decoded %d partitions", got-5)
	}
}

// TestQueryProperty runs 200 random plans through both the engine and
// the naive oracle. On mismatch it shrinks the window to the smallest
// still-failing span before reporting, so the log shows a minimal
// reproduction rather than a two-year diff.
func TestQueryProperty(t *testing.T) {
	eng := fixture(t)
	rng := rand.New(rand.NewSource(0xFAC75))
	lo, hi := months.MustParse("2017-06"), months.MustParse("2020-06")
	span := hi.Sub(lo)
	var countries []string
	for _, p := range fix.lake.Dims().Probes {
		if !slices.Contains(countries, p.CC) {
			countries = append(countries, p.CC)
		}
	}
	slices.Sort(countries)
	countries = append([]string{""}, countries...)
	metrics := []string{MetricMedianRTT, MetricHopCount, MetricReachability, MetricCatchmentShare}
	percentiles := []float64{5, 25, 50, 75, 90, 95, 99, 100}

	randomPlan := func() Params {
		p := Params{Metric: metrics[rng.Intn(len(metrics))], Percentile: 50}
		a := lo.Add(rng.Intn(span + 1))
		b := lo.Add(rng.Intn(span + 1))
		if b.Before(a) {
			a, b = b, a
		}
		p.From, p.To = a, b
		groups := []string{GroupCountry, GroupASN, GroupNone}
		if p.Metric == MetricCatchmentShare {
			groups = append(groups, GroupLetter)
			if rng.Intn(3) == 0 {
				p.Letter = byte('A' + rng.Intn(13))
			}
		}
		p.GroupBy = groups[rng.Intn(len(groups))]
		if p.Metric == MetricMedianRTT || p.Metric == MetricHopCount {
			p.Percentile = percentiles[rng.Intn(len(percentiles))]
		}
		p.Country = countries[rng.Intn(len(countries))]
		return p
	}

	check := func(p Params) (engineGroups, oracleGroups []Group, ok bool) {
		res, err := eng.Run(p)
		if err != nil {
			t.Fatalf("Run(%+v): %v", p, err)
		}
		want := naiveRun(fix.tc, fix.cc, fix.lake.Dims(), fix.hops, p)
		return res.Groups, want, reflect.DeepEqual(res.Groups, want)
	}

	for i := 0; i < 200; i++ {
		p := randomPlan()
		got, want, ok := check(p)
		if ok {
			continue
		}
		// Shrink: narrow the window one month at a time from each end
		// while the mismatch persists.
		min := p
		for min.From.Before(min.To) {
			narrowed := min
			narrowed.From = narrowed.From.Add(1)
			if _, _, ok := check(narrowed); !ok {
				min = narrowed
				continue
			}
			narrowed = min
			narrowed.To = narrowed.To.Add(-1)
			if _, _, ok := check(narrowed); !ok {
				min = narrowed
				continue
			}
			break
		}
		sg, sw, _ := check(min)
		t.Fatalf("query #%d diverges from oracle\noriginal plan: %+v\nshrunk plan:   %+v\nengine (shrunk): %+v\noracle (shrunk): %+v\nengine (full):   %+v\noracle (full):   %+v",
			i, p, min, sg, sw, got, want)
	}
}

// TestWarmQueryAllocs pins the steady-state allocation budget of a warm
// window query. The partitions are decoded and cached, so a query is
// pure in-memory aggregation; the pin catches regressions that start
// copying columns or building per-row garbage.
func TestWarmQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates AllocsPerRun")
	}
	eng := fixture(t)
	p := mustParams(t, "metric=median_rtt&from=2018-01&to=2019-10")
	if _, err := eng.Run(p); err != nil { // warm the partition cache
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := eng.Run(p); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: aggregator maps, one Group per country, one Point per
	// (group, month), the result envelope — and nothing proportional to
	// row count. Measured ~380 on the 8-partition fixture; 900 leaves
	// headroom for map growth jitter without masking a per-row leak
	// (which would cost tens of thousands).
	if avg > 900 {
		t.Fatalf("warm query allocates %.0f objects per run, budget 900", avg)
	}
}

// TestQueryRebuildSoak races warm queries against full lake rebuilds —
// the serving pattern under -race: generation swaps must never tear a
// running query. Each round serves a cold reopen of the lake, so its
// queries decode partitions from disk while the rebuild writes a new
// generation, swaps it in and deletes the segments they read (the
// quarantine-heal path).
func TestQueryRebuildSoak(t *testing.T) {
	if err := fixtureErr(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	scope := fix.w.Config.Scope()
	tc, cc := fix.w.TraceCampaign(), fix.w.ChaosCampaign()
	built, err := facts.Open(dir, scope)
	if err != nil {
		t.Fatal(err)
	}
	if err := built.BuildFrom(fix.w, tc, cc); err != nil {
		t.Fatal(err)
	}

	const rebuilds = 3
	plans := []Params{
		mustParams(t, "metric=median_rtt&from=2018-01&to=2019-10"),
		mustParams(t, "metric=reachability&from=2018-04&to=2019-04&group_by=asn"),
		mustParams(t, "metric=catchment_share&from=2018-01&to=2019-10&group_by=letter"),
	}
	queryErrs := make(chan error, 4*rebuilds)
	var decodes uint64
	for i := 0; i < rebuilds; i++ {
		lake, err := facts.Open(dir, scope)
		if err != nil {
			t.Fatal(err)
		}
		eng := New(lake)
		done := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Every goroutine runs at least one query, the first
				// of which decodes cold.
				for j := 0; ; j++ {
					if _, err := eng.Run(plans[(g+j)%len(plans)]); err != nil {
						queryErrs <- fmt.Errorf("rebuild %d goroutine %d iter %d: %w", i, g, j, err)
						return
					}
					select {
					case <-done:
						return
					default:
					}
				}
			}(g)
		}
		if err := lake.BuildFrom(fix.w, tc, cc); err != nil {
			t.Errorf("rebuild %d: %v", i, err)
		}
		close(done)
		wg.Wait()
		decodes += lake.Decodes()
	}
	t.Logf("%d rebuilds raced %d cold partition decodes", rebuilds, decodes)
	close(queryErrs)
	for err := range queryErrs {
		t.Error(err)
	}
}

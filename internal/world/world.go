package world

import (
	"fmt"
	"sync"
	"time"

	"vzlens/internal/aspop"
	"vzlens/internal/atlas"
	"vzlens/internal/bgp"
	"vzlens/internal/dnsroot"
	"vzlens/internal/mlab"
	"vzlens/internal/months"
	"vzlens/internal/netsim"
	"vzlens/internal/peeringdb"
	"vzlens/internal/registry"
	"vzlens/internal/telegeo"
)

// Config parameterizes world construction. Zero fields take defaults.
type Config struct {
	Seed            int64        // RNG seed for measurement noise
	TraceStart      months.Month // traceroute campaign start (default 2014-03)
	TraceEnd        months.Month // campaign end (default 2024-01)
	ChaosStart      months.Month // CHAOS campaign start (default 2016-01)
	ChaosEnd        months.Month // campaign end (default 2024-01)
	Step            int          // months between snapshots (default 1)
	SamplesPerProbe int          // traceroute samples per probe-month (default 3)
	// Policy selects the anycast catchment model for both campaigns;
	// the default (PolicyBGP) is how anycast actually routes, PolicyGeo
	// is the naive baseline the ablation benchmarks compare against.
	Policy netsim.CatchmentPolicy
	// FleetScale multiplies every country's probe counts (default 1).
	// Values below 1 implement the Section 8 coverage-bias sensitivity
	// experiment: fewer vantage points see fewer anycast instances.
	FleetScale float64
	// Workers bounds the worker pool the campaign simulations fan
	// monthly snapshots out over. Zero means GOMAXPROCS. Results are
	// bit-identical for any worker count: every probe-month derives its
	// jitter RNG by hashing (Seed, month, probe), independent of
	// schedule.
	Workers int
	// Scenario, when non-nil, runs both campaigns under a counterfactual
	// topology overlay (see ScenarioPlan). Scenario campaigns always
	// simulate — ingested external campaigns answer only the baseline —
	// and keep the engine's determinism guarantees.
	Scenario *ScenarioPlan
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 20240804 // the paper's presentation date at SIGCOMM
	}
	if c.TraceStart.IsZero() {
		c.TraceStart = mm(2014, time.March)
	}
	if c.TraceEnd.IsZero() {
		c.TraceEnd = mm(2024, time.January)
	}
	if c.ChaosStart.IsZero() {
		c.ChaosStart = mm(2016, time.January)
	}
	if c.ChaosEnd.IsZero() {
		c.ChaosEnd = mm(2024, time.January)
	}
	if c.Step <= 0 {
		c.Step = 1
	}
	if c.SamplesPerProbe <= 0 {
		c.SamplesPerProbe = 3
	}
	if c.FleetScale <= 0 {
		c.FleetScale = 1
	}
	return c
}

// World is one coherent synthetic Latin-American Internet.
type World struct {
	Config Config

	Nets   map[string]CountryNet
	Pop    *aspop.Estimates
	Orgs   *bgp.OrgMap
	Roots  *dnsroot.Deployment
	Fleet  *atlas.Fleet
	Cables *telegeo.Map

	// ext holds externally ingested archives loaded by BuildWithSources;
	// nil fields fall back to the synthetic substitutes.
	ext struct {
		pdb   *peeringdb.Archive
		ribs  *bgp.RIBArchive
		reg   *registry.Table
		mlab  *mlab.Archive
		chaos *atlas.ChaosCampaign
		trace *atlas.TraceCampaign
	}
	axes []AxisStatus

	// Campaign-kernel state (see kernel.go and views.go): the resolver
	// over the static base topology (with the distance table, built
	// once under kernelBaseOnce), one cell per Venezuelan wiring
	// signature holding its overlay resolver, which borrows the base
	// resolver's trees, and its faithful relationship graph (the
	// Fig 8/9 archive's), the per-month probe-class factorings (probe
	// ids and pointers into the world's interned class keys; no fleet
	// copy), the interned GPDNS/root site lists (root lists by (letter,
	// month) in front of the per-letter distinct active sets; no
	// deployment copy), and the interned CHAOS TXT strings. All of it
	// memoizes pure functions of the month (or list identity), so
	// concurrent fills are idempotent. Lock ordering: siteMu may wait
	// on kernelBaseOnce (lists are prepared against the kernel base),
	// kernelBaseOnce takes kernelMu to list the base resolver, and
	// kernelMu takes a resolver's own lock to drop its trees; nothing
	// else nests.
	kernelBaseOnce sync.Once
	kernelBase     *netsim.Resolver
	kernelMu       sync.Mutex
	sigCells       map[kernelSig]*sigCell
	classMu        sync.Mutex
	classCache     map[months.Month]*monthClasses
	classKeys      map[probeClassKey]*probeClassKey
	keySlab        []probeClassKey // backs classKeys, 64 keys per allocation
	siteMu         sync.Mutex
	gpdnsLists     map[uint32]*netsim.SiteList
	rootLists      map[rootListKey]*rootList
	rootSets       map[dnsroot.Letter][]*rootList
	txtMu          sync.Mutex
	txtIntern      map[txtKey]string

	// kernelResolvers lists the base resolver and every signature
	// resolver once built, and kernelPasses counts the baseline campaign
	// passes in flight; the first pass to begin opens catchMemo and the
	// last to end drops it and the resolvers' path trees. All three are
	// guarded by kernelMu.
	kernelResolvers []*netsim.Resolver
	kernelPasses    int
	catchMemo       *catchMemo

	// arenas pools campaignArena scratch across month shards, campaign
	// runs, and sweep specs. No New hook: misses are counted as builds
	// in acquireArena.
	arenas sync.Pool

	// met is the campaign engine's observability surface (see
	// Instrument); the zero value records nothing.
	met worldMetrics
}

// validate rejects configurations the pipeline cannot honor. It runs on
// the raw config so that explicitly negative knobs are surfaced rather
// than silently defaulted away.
func (c Config) validate() error {
	if c.Step < 0 {
		return fmt.Errorf("world: negative snapshot step %d", c.Step)
	}
	if c.SamplesPerProbe < 0 {
		return fmt.Errorf("world: negative samples per probe %d", c.SamplesPerProbe)
	}
	if c.FleetScale < 0 {
		return fmt.Errorf("world: negative fleet scale %v", c.FleetScale)
	}
	if c.Workers < 0 {
		return fmt.Errorf("world: negative worker count %d", c.Workers)
	}
	d := c.withDefaults()
	if d.TraceEnd.Before(d.TraceStart) {
		return fmt.Errorf("world: trace window inverted (%v after %v)", d.TraceStart, d.TraceEnd)
	}
	if d.ChaosEnd.Before(d.ChaosStart) {
		return fmt.Errorf("world: chaos window inverted (%v after %v)", d.ChaosStart, d.ChaosEnd)
	}
	return nil
}

// validateTables checks every static placement table against the geo
// database, so the topology code below can assume all IATA codes and
// country references resolve — the errors earlier versions deferred to
// panics deep inside the topology builder surface here, at build time.
func validateTables(nets map[string]CountryNet) error {
	check := func(table, iata string) error {
		if _, err := lookupCity(iata); err != nil {
			return fmt.Errorf("%w (in %s)", err, table)
		}
		return nil
	}
	for _, iata := range []string{"MIA", "CCS"} {
		if err := check("core anchors", iata); err != nil {
			return err
		}
	}
	for _, iata := range tier1Locations {
		if err := check("tier1Locations", iata); err != nil {
			return err
		}
	}
	for _, iata := range veBorderASes {
		if err := check("veBorderASes", iata); err != nil {
			return err
		}
	}
	for _, s := range gpdnsRollout {
		if err := check("gpdnsRollout", s.iata); err != nil {
			return err
		}
		if s.since.IsZero() {
			return fmt.Errorf("world: gpdnsRollout %s: zero month", s.iata)
		}
		if s.host != "google" {
			if _, ok := nets[s.host]; !ok {
				return fmt.Errorf("world: gpdnsRollout %s: unknown host country %q", s.iata, s.host)
			}
		}
	}
	for _, spec := range veProbeSpec {
		if err := check("veProbeSpec", spec.iata); err != nil {
			return err
		}
	}
	for cc, via := range regionalUpstreams {
		if _, ok := nets[cc]; !ok {
			return fmt.Errorf("world: regionalUpstreams: unknown country %q", cc)
		}
		if _, ok := nets[via]; !ok {
			return fmt.Errorf("world: regionalUpstreams[%s]: unknown upstream %q", cc, via)
		}
	}
	return nil
}

// Build assembles a World from the synthetic substitutes. It validates
// the configuration and every static placement table up front and
// returns an error — earlier versions panicked from deep inside the
// topology code instead.
func Build(cfg Config) (*World, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	nets := buildNets()
	if err := validateTables(nets); err != nil {
		return nil, err
	}
	pop := buildPopulations(nets)
	w := &World{
		Config: cfg,
		Nets:   nets,
		Pop:    pop,
		Orgs:   buildOrgs(nets, pop),
		Roots:  dnsroot.DefaultDeployment(),
		Cables: telegeo.LatinAmerica(),
	}
	w.Fleet = buildFleet(nets, cfg.FleetScale)
	return w, nil
}

// fleetAnchors drives non-Venezuelan probe counts, calibrated to
// Appendix F (Figure 17): the region grows from roughly 300 to 450+
// probes, led by Brazil.
var fleetAnchors = map[string][4]int{ // counts at 2014, 2016, 2022, 2024
	"BR": {100, 120, 150, 170}, "AR": {35, 40, 60, 70}, "CL": {25, 30, 42, 50},
	"MX": {20, 25, 38, 45}, "CO": {15, 20, 32, 40}, "UY": {6, 8, 11, 12},
	"PE": {5, 6, 10, 12}, "EC": {4, 5, 8, 10}, "CR": {3, 4, 7, 8},
	"PA": {2, 3, 5, 6}, "PY": {2, 3, 5, 6}, "BO": {2, 2, 4, 5},
	"DO": {2, 2, 4, 5}, "GT": {1, 2, 3, 4}, "TT": {1, 2, 3, 4},
	"HN": {1, 1, 2, 2}, "NI": {1, 1, 2, 2}, "CU": {0, 0, 1, 1},
	"HT": {0, 0, 1, 1}, "SR": {1, 1, 2, 2}, "GY": {1, 1, 2, 2},
	"BZ": {0, 0, 1, 1}, "SV": {1, 1, 2, 2}, "CW": {1, 2, 3, 3},
	"GF": {1, 1, 1, 1}, "BQ": {0, 1, 1, 1}, "SX": {0, 1, 1, 1},
}

// veProbeSpec places Venezuela's probes explicitly: 30 by 2024, only 8 of
// them inside CANTV, with the low-latency vantage points in Airtek
// (Maracaibo) and Viginet (San Cristobal) networks near the Colombian
// border — the geography of Figure 20.
var veProbeSpec = []struct {
	asn   bgp.ASN
	iata  string
	since months.Month
}{
	{ASCANTV, "CCS", mm(2014, time.March)},
	{ASCANTV, "CCS", mm(2014, time.March)},
	{ASCANTV, "CCS", mm(2014, time.June)},
	{ASCANTV, "VLN", mm(2014, time.June)},
	{21826, "CCS", mm(2014, time.March)},
	{21826, "VLN", mm(2014, time.June)},
	{ASTelefonica, "CCS", mm(2014, time.June)},
	{11562, "CCS", mm(2014, time.September)},
	{ASMovilnet, "CCS", mm(2015, time.March)},
	{ASTelefonica, "CCS", mm(2015, time.June)},
	{61461, "MAR", mm(2018, time.January)},
	{263703, "SCI", mm(2019, time.January)},
	{ASCANTV, "CCS", mm(2020, time.January)},
	{11562, "VLN", mm(2020, time.June)},
	{21826, "VLN", mm(2021, time.June)},
	{ASCANTV, "CCS", mm(2022, time.January)},
	{ASCANTV, "MAR", mm(2022, time.January)},
	{264731, "CCS", mm(2022, time.March)},
	{264731, "CCS", mm(2022, time.March)},
	{264628, "CCS", mm(2022, time.June)},
	{264628, "CCS", mm(2022, time.June)},
	{61461, "MAR", mm(2022, time.June)},
	{61461, "MAR", mm(2022, time.September)},
	{61461, "SCI", mm(2023, time.January)},
	{263703, "SCI", mm(2023, time.January)},
	{263703, "MAR", mm(2023, time.March)},
	{264628, "MAR", mm(2023, time.March)},
	{272809, "CCS", mm(2023, time.June)},
	{272809, "CCS", mm(2023, time.June)},
	{ASCANTV, "VLN", mm(2023, time.June)},
}

// buildFleet materializes the regional probe fleet, scaling every
// country's counts by scale (Venezuela's explicit probes are sampled
// proportionally, keeping their AS and city mix).
func buildFleet(nets map[string]CountryNet, scale float64) *atlas.Fleet {
	scaled := func(n int) int {
		v := int(float64(n)*scale + 0.5)
		if n > 0 && v < 1 {
			v = 1
		}
		return v
	}
	var plans []atlas.CountryPlan
	for _, cc := range sortedCountries(nets) {
		if cc == "VE" {
			continue
		}
		counts, ok := fleetAnchors[cc]
		if !ok {
			continue
		}
		net := nets[cc]
		plans = append(plans, atlas.CountryPlan{
			CC: cc,
			Anchors: []atlas.CountAnchor{
				{Month: mm(2014, time.March), Count: scaled(counts[0])},
				{Month: mm(2016, time.January), Count: scaled(counts[1])},
				{Month: mm(2022, time.January), Count: scaled(counts[2])},
				{Month: mm(2024, time.January), Count: scaled(counts[3])},
			},
			ASNs: append([]bgp.ASN{net.Transit}, net.Eyeballs...),
		})
	}
	f := atlas.BuildFleet(plans)
	id := 1
	keep := scaled(len(veProbeSpec))
	stride := float64(len(veProbeSpec)) / float64(keep)
	for k := 0; k < keep; k++ {
		spec := veProbeSpec[int(float64(k)*stride)]
		f.Add(atlas.Probe{
			ID:        id,
			Country:   "VE",
			City:      cityAt(spec.iata),
			ASN:       spec.asn,
			Connected: spec.since,
		})
		id++
	}
	return f
}

// campaignMonths expands a [lo, hi] window with the configured step.
func (w *World) campaignMonths(lo, hi months.Month) []months.Month {
	var out []months.Month
	for m := lo; !m.After(hi); m = m.Add(w.Config.Step) {
		out = append(out, m)
	}
	return out
}

// ASRelArchive exports the monthly AS relationship files over [lo, hi]
// (stepped), mirroring the CAIDA serial-1 archive back to 1998. Each
// month's graph equals MonthTopology(m)'s, but it comes from the
// kernel's per-signature cells, so months that wire CANTV alike share
// one *bgp.Graph, across archives too, and no month keeps AS
// locations. The graphs are shared and read-only: callers must not add
// relationships to them.
func (w *World) ASRelArchive(lo, hi months.Month) *bgp.Archive {
	a := bgp.NewArchive()
	for m := lo; !m.After(hi); m = m.Add(w.Config.Step) {
		a.Put(m, w.relGraphAt(m))
	}
	return a
}

// RIBArchive exports monthly Venezuelan prefix-to-AS snapshots over
// [lo, hi] (stepped), mirroring the RouteViews pfx2as archive. When an
// external RouteViews archive was ingested, it is served as-is.
func (w *World) RIBArchive(lo, hi months.Month) *bgp.RIBArchive {
	if w.ext.ribs != nil {
		return w.ext.ribs
	}
	a := bgp.NewRIBArchive()
	for m := lo; !m.After(hi); m = m.Add(w.Config.Step) {
		a.Put(m, buildVERIB(m))
	}
	return a
}

// Registry exports the LACNIC delegation table for Venezuela.
func (w *World) Registry() *registry.Table {
	if w.ext.reg != nil {
		return w.ext.reg
	}
	return buildVERegistry()
}

// MedianSpeed returns the NDT median download speed for country cc at
// month m, preferring an ingested M-Lab archive over the synthetic
// trajectory model.
func (w *World) MedianSpeed(cc string, m months.Month) float64 {
	if w.ext.mlab != nil {
		if v, ok := w.ext.mlab.Median(cc, m); ok {
			return v
		}
	}
	return mlab.MedianSpeed(cc, m)
}

package world

import (
	"sync"
	"testing"
	"time"

	"vzlens/internal/atlas"
	"vzlens/internal/bgp"
)

// TestParallelCampaignsDeterministic guards the parallel engine's core
// promise: for one Config.Seed, campaign output is bit-identical sample
// for sample regardless of worker count, because every probe-month
// derives its own RNG from (Seed, month, probe) rather than sharing a
// sequential stream.
func TestParallelCampaignsDeterministic(t *testing.T) {
	base := Config{
		TraceStart: mm(2022, time.January), TraceEnd: mm(2023, time.June),
		ChaosStart: mm(2022, time.January), ChaosEnd: mm(2023, time.June),
		Step: 3,
	}
	seq := base
	seq.Workers = 1
	par := base
	par.Workers = 8

	ws, wp := mustBuild(seq), mustBuild(par)

	s1, s2 := ws.TraceCampaign().Samples(), wp.TraceCampaign().Samples()
	if len(s1) != len(s2) {
		t.Fatalf("trace sample counts differ: sequential %d, parallel %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("trace sample %d differs: sequential %+v, parallel %+v", i, s1[i], s2[i])
		}
	}

	c1, c2 := ws.ChaosCampaign().Results(), wp.ChaosCampaign().Results()
	if len(c1) != len(c2) {
		t.Fatalf("chaos result counts differ: sequential %d, parallel %d", len(c1), len(c2))
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("chaos result %d differs: sequential %+v, parallel %+v", i, c1[i], c2[i])
		}
	}
}

// TestCampaignRerunIdentical: repeated simulations on one World (warm
// caches, pooled scratch buffers) must reproduce the first run exactly.
func TestCampaignRerunIdentical(t *testing.T) {
	w := mustBuild(Config{
		TraceStart: mm(2023, time.January), TraceEnd: mm(2023, time.June),
		Step: 3,
	})
	first := w.TraceCampaign().Samples()
	second := w.TraceCampaign().Samples()
	if len(first) != len(second) {
		t.Fatalf("rerun sample counts differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("rerun sample %d differs", i)
		}
	}
}

// TestConcurrentCampaignsRace exercises the shared per-month and
// per-signature caches the way concurrent API requests do: both
// campaigns, relationship archives (Fig 8/9) and direct kernel
// resolvers for the archived months on one World, all racing, so each
// signature cell fills its resolver and its graph from both halves.
// Every archive must hand out the same shared graphs. Run under -race
// in CI.
func TestConcurrentCampaignsRace(t *testing.T) {
	w := mustBuild(Config{
		TraceStart: mm(2023, time.January), TraceEnd: mm(2023, time.December),
		ChaosStart: mm(2023, time.January), ChaosEnd: mm(2023, time.December),
		Step: 3, Workers: 4,
	})
	lo, hi := mm(1998, time.January), mm(2024, time.January)
	archives := make([]*bgp.Archive, 4)
	var wg sync.WaitGroup
	for i := range archives {
		wg.Add(1)
		go func() {
			defer wg.Done()
			archives[i] = w.ASRelArchive(lo, hi)
			if len(archives[i].UpstreamSeries(ASCANTV)) == 0 {
				t.Error("empty relationship archive")
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			if w.TraceCampaign().Len() == 0 {
				t.Error("empty trace campaign")
			}
		}()
		go func() {
			defer wg.Done()
			if w.ChaosCampaign().Len() == 0 {
				t.Error("empty chaos campaign")
			}
		}()
		go func() {
			defer wg.Done()
			for _, m := range w.campaignMonths(lo, hi) {
				if w.kernelTopologyAt(m) == nil {
					t.Error("nil resolver")
				}
			}
		}()
	}
	wg.Wait()
	for _, a := range archives[1:] {
		for _, m := range a.Months() {
			if a.Get(m) != archives[0].Get(m) {
				t.Fatalf("%s: concurrent archives built distinct graphs", m)
			}
		}
	}
}

// TestSampleSeedDistinct: neighboring probe-months must land in distinct
// RNG streams — a collision would correlate two probes' jitter.
func TestSampleSeedDistinct(t *testing.T) {
	seen := map[int64][2]int{}
	for m := mm(2014, time.January); !m.After(mm(2024, time.January)); m = m.Add(1) {
		for id := 1; id <= 2000; id++ {
			s := sampleSeed(20240804, m, id)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: (%v,%d) and (%v,%d) → %d", m, id, prev[0], prev[1], s)
			}
			seen[s] = [2]int{int(m), id}
		}
	}
}

// TestLocalizeSitesSinglePass covers the single-pass rewrite over real
// campaign site lists: no domestic site → the input slice is returned
// untouched; a domestic site → only that entry's host is rewritten, on
// a copy.
func TestLocalizeSitesSinglePass(t *testing.T) {
	w := mustBuild(Config{})
	m := mm(2023, time.June)
	sites := w.GPDNSSitesAt(m)

	probeVE := w.Fleet.ActiveIn("VE", m)[0]
	out := localizeSites(sites, probeVE)
	// GPDNS never deployed in Venezuela: same backing array, no copy.
	if &out[0] != &sites[0] {
		t.Error("localizeSites copied although no site is domestic")
	}

	// Pick a Brazilian probe hosted outside the transit AS that hosts
	// the domestic GPDNS replicas, so a rewrite is actually needed (the
	// transit's own probes already match the site host and take the
	// no-copy path).
	var probeBR atlas.Probe
	for _, p := range w.Fleet.ActiveIn("BR", m) {
		if p.ASN != w.Nets["BR"].Transit {
			probeBR = p
			break
		}
	}
	if probeBR.ASN == 0 {
		t.Fatal("no non-transit Brazilian probe")
	}
	out = localizeSites(sites, probeBR)
	if &out[0] == &sites[0] {
		t.Fatal("localizeSites must copy before rewriting")
	}
	rewrote := 0
	for i, s := range out {
		if sites[i].City.Country == "BR" {
			if s.Host != probeBR.ASN {
				t.Errorf("domestic site %d not rewritten to probe AS", i)
			}
			rewrote++
		} else if s != sites[i] {
			t.Errorf("cross-border site %d modified", i)
		}
	}
	if rewrote == 0 {
		t.Fatal("expected at least one Brazilian GPDNS site in 2023")
	}
}

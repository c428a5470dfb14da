package core

import (
	"time"

	"vzlens/internal/anomaly"
	"vzlens/internal/atlas"
	"vzlens/internal/mlab"
	"vzlens/internal/months"
	"vzlens/internal/series"
	"vzlens/internal/world"
)

// Signature is one detected crisis signal with its provenance.
type Signature struct {
	Dataset string
	Event   anomaly.Event
}

// SignaturesResult is the output of the automated crisis detector: the
// paper's hand-curated observations, found by the anomaly detectors
// without being pointed at them.
type SignaturesResult struct {
	Signatures []Signature
}

// CrisisSignatures runs the anomaly detectors over the Venezuelan series
// of every dataset: bandwidth stagnation, upstream-provider contraction,
// Telefonica's address-space contraction, root-DNS disappearance, and
// the bandwidth divergence from the regional mean.
func CrisisSignatures(w *world.World, chaos *atlas.ChaosCampaign) SignaturesResult {
	var r SignaturesResult
	add := func(dataset string, events []anomaly.Event) {
		for _, e := range events {
			r.Signatures = append(r.Signatures, Signature{dataset, e})
		}
	}

	// Bandwidth stagnation and divergence (M-Lab curves).
	speeds := series.New()
	regional := series.New()
	for m := months.New(2008, time.January); !m.After(months.New(2024, time.January)); m = m.Add(1) {
		speeds.Set(m, mlab.MedianSpeed("VE", m))
		var sum float64
		var n int
		for _, cc := range mlab.Countries() {
			if v := mlab.MedianSpeed(cc, m); v > 0 {
				sum += v
				n++
			}
		}
		regional.Set(m, sum/float64(n))
	}
	add("mlab/bandwidth", anomaly.Stagnations(speeds, 60, 0.35))
	add("mlab/bandwidth", anomaly.Recoveries(speeds, 1.0))
	add("mlab/normalized", anomaly.Divergences(speeds, regional, 0.3, 24))

	// CANTV upstream contraction (AS relationships).
	ups := series.New()
	for m := months.New(1998, time.January); !m.After(months.New(2024, time.January)); m = m.Add(w.Config.Step) {
		ups.Set(m, float64(len(world.CANTVProvidersAt(m))))
	}
	add("bgp/upstreams", anomaly.Contractions(ups, 0.5))
	add("bgp/upstreams", anomaly.Recoveries(ups, 0.5))

	// Telefonica address-space contraction (pfx2as).
	tef := series.New()
	arch := w.RIBArchive(months.New(2008, time.January), months.New(2024, time.January))
	for _, m := range arch.Months() {
		tef.Set(m, float64(arch.Get(m).AnnouncedSpace(world.ASTelefonica)))
	}
	add("bgp/telefonica-space", anomaly.Contractions(tef, 0.25))

	// Root DNS disappearance (CHAOS campaign).
	if chaos != nil {
		roots := series.New()
		for m, n := range chaos.CountrySeries("VE") {
			roots.Set(m, float64(n))
		}
		add("dnsroot/replicas", anomaly.Disappearances(roots))
	}
	return r
}

// Table renders the detected signatures.
func (r SignaturesResult) Table() *Table {
	t := &Table{
		Caption: "Automated crisis signatures (anomaly detectors over the VE series)",
		Header:  []string{"dataset", "kind", "start", "end", "magnitude"},
	}
	for _, s := range r.Signatures {
		t.AddRow(s.Dataset, s.Event.Kind.String(), s.Event.Start.String(),
			s.Event.End.String(), f2(s.Event.Magnitude))
	}
	return t
}

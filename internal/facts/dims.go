package facts

import (
	"vzlens/internal/months"
	"vzlens/internal/world"
)

// The lake's dimension table is slowly-changing (SCD type 2): each row
// carries an attribute tuple plus a validity window, and point-in-time
// lookups select the rows whose window covers the queried month. Facts
// stay tiny integer columns; what is descriptive — which AS hosts a
// probe, which probes were connected — joins in through these windows.

// ProbeRow is one probe's fleet-membership window: attributes are
// immutable over a probe's life in the modeled fleet, so each probe
// contributes exactly one row, valid over its Window (a zero To means
// still connected). The window stays last: the manifest's format
// encodes its bounds as valid_from and valid_to after the row's
// attributes (TestProbeRowWireKeys).
type ProbeRow struct {
	ID   int    `json:"id"`
	CC   string `json:"cc"`
	ASN  uint32 `json:"asn"`
	City string `json:"city"`
	months.Window
}

// Dimensions is the lake's dimension store, serialized as JSON inside
// the manifest of the generation it belongs to.
type Dimensions struct {
	Probes []ProbeRow `json:"probes"`

	asnByID map[int32]uint32
}

// BuildDimensions derives the dimension tables from a built world: one
// probe row per fleet member.
func BuildDimensions(w *world.World) *Dimensions {
	d := &Dimensions{}
	for _, p := range w.Fleet.All() {
		d.Probes = append(d.Probes, ProbeRow{
			ID:     p.ID,
			CC:     p.Country,
			ASN:    uint32(p.ASN),
			City:   p.City.Name,
			Window: p.Window,
		})
	}
	d.index()
	return d
}

// index builds the point lookups the query engine joins through.
func (d *Dimensions) index() {
	d.asnByID = make(map[int32]uint32, len(d.Probes))
	for _, p := range d.Probes {
		d.asnByID[int32(p.ID)] = p.ASN
	}
}

// ProbeASN returns the hosting AS of a probe.
func (d *Dimensions) ProbeASN(id int32) (uint32, bool) {
	asn, ok := d.asnByID[id]
	return asn, ok
}

// ActiveProbes counts probes whose membership window covers m, filtered
// by country and/or hosting AS (zero values disable a filter) — the
// reachability metric's denominator.
func (d *Dimensions) ActiveProbes(m months.Month, cc string, asn uint32) int {
	n := 0
	for i := range d.Probes {
		p := &d.Probes[i]
		if !p.Contains(m) {
			continue
		}
		if cc != "" && p.CC != cc {
			continue
		}
		if asn != 0 && p.ASN != asn {
			continue
		}
		n++
	}
	return n
}

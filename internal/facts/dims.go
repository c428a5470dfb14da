package facts

import (
	"fmt"
	"slices"
	"strings"

	"vzlens/internal/months"
	"vzlens/internal/world"
)

// The lake's dimension tables are slowly-changing (SCD type 2): each
// row carries an attribute tuple plus a validity window, and
// point-in-time lookups select the row whose window covers the queried
// month. Facts stay tiny integer columns; everything descriptive —
// which AS hosts a probe, which transit providers CANTV had, how many
// anycast sites a letter ran — joins in through these windows.

// ProbeRow is one probe's fleet-membership window: attributes are
// immutable over a probe's life in the modeled fleet, so each probe
// contributes exactly one row, valid [ValidFrom, ValidTo).
type ProbeRow struct {
	ID        int          `json:"id"`
	CC        string       `json:"cc"`
	ASN       uint32       `json:"asn"`
	City      string       `json:"city"`
	ValidFrom months.Month `json:"valid_from"`
	// ValidTo is exclusive; zero means still connected.
	ValidTo months.Month `json:"valid_to"`
}

// ActiveAt reports whether the row's window covers m.
func (p ProbeRow) ActiveAt(m months.Month) bool {
	if m.Before(p.ValidFrom) {
		return false
	}
	return p.ValidTo.IsZero() || m.Before(p.ValidTo)
}

// EraRow is one validity window of a versioned world attribute: the
// topology wiring signature, the GPDNS site list, or a root letter's
// instance count. Consecutive campaign months sharing a signature
// collapse into one row, valid [ValidFrom, ValidTo] inclusive (eras are
// derived from the sampled months of both campaigns, so the window's
// ends are observed months, not calendar guesses).
type EraRow struct {
	Key       string       `json:"key"` // "topology", "gpdns", or "root-A".."root-M"
	Sig       string       `json:"sig"`
	ValidFrom months.Month `json:"valid_from"`
	ValidTo   months.Month `json:"valid_to"`
}

// Dimensions is the lake's dimension store, serialized as one JSON
// document inside a VZRS frame.
type Dimensions struct {
	Probes []ProbeRow `json:"probes"`
	Eras   []EraRow   `json:"eras"`

	asnByID map[int32]uint32
}

// BuildDimensions derives the dimension tables from a built world: the
// probe rows from fleet membership, the era rows by scanning every
// month either campaign samples and collapsing runs of equal
// signatures. The root eras take one deployment pass per month for all
// thirteen letters.
func BuildDimensions(w *world.World) *Dimensions {
	d := &Dimensions{}
	for _, p := range w.Fleet.All() {
		d.Probes = append(d.Probes, ProbeRow{
			ID:        p.ID,
			CC:        p.Country,
			ASN:       uint32(p.ASN),
			City:      p.City.Name,
			ValidFrom: p.Connected,
			ValidTo:   p.Disconnected,
		})
	}
	ms := eraMonths(w.Config)
	d.Eras = append(d.Eras, collapseEras("topology", ms, func(i int) string {
		return world.TopologySignatureAt(ms[i])
	})...)
	d.Eras = append(d.Eras, collapseEras("gpdns", ms, func(i int) string {
		sites := w.GPDNSSitesAt(ms[i])
		parts := make([]string, len(sites))
		for k, s := range sites {
			parts[k] = fmt.Sprintf("%s@AS%d", s.City.IATA, s.Host)
		}
		return strings.Join(parts, ",")
	})...)
	letters := rootLetters()
	counts := make([][13]int, len(ms))
	for i, m := range ms {
		for _, inst := range w.Roots.ActiveAt(m) {
			if k := int(inst.Letter) - 'A'; k >= 0 && k < len(letters) {
				counts[i][k]++
			}
		}
	}
	for k, letter := range letters {
		d.Eras = append(d.Eras, collapseEras("root-"+string(letter), ms, func(i int) string {
			return fmt.Sprintf("sites%d", counts[i][k])
		})...)
	}
	d.index()
	return d
}

// rootLetters avoids importing dnsroot just for the letter range.
func rootLetters() []byte {
	out := make([]byte, 13)
	for i := range out {
		out[i] = byte('A' + i)
	}
	return out
}

// eraMonths lists, ascending, every month either campaign samples —
// the months the era dimensions must describe. The two windows step
// from different starts, so their months need not coincide.
func eraMonths(c world.Config) []months.Month {
	step := max(c.Step, 1)
	var ms []months.Month
	for m := c.TraceStart; !m.After(c.TraceEnd); m = m.Add(step) {
		ms = append(ms, m)
	}
	for m := c.ChaosStart; !m.After(c.ChaosEnd); m = m.Add(step) {
		ms = append(ms, m)
	}
	slices.Sort(ms)
	return slices.Compact(ms)
}

// collapseEras walks ms and emits one row per run of equal signatures;
// sigAt(i) is the signature at ms[i].
func collapseEras(key string, ms []months.Month, sigAt func(i int) string) []EraRow {
	var out []EraRow
	for i, m := range ms {
		sig := sigAt(i)
		if n := len(out); n > 0 && out[n-1].Sig == sig {
			out[n-1].ValidTo = m
			continue
		}
		out = append(out, EraRow{Key: key, Sig: sig, ValidFrom: m, ValidTo: m})
	}
	return out
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
		if !p.ActiveAt(m) {
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

package atlas

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"vzlens/internal/bgp"
	"vzlens/internal/geo"
	"vzlens/internal/months"
)

// This file implements the RIPE Atlas v2 API probe-metadata format
// (one JSON object per probe, as /api/v2/probes delivers), which the
// paper joins against measurement results for the coverage analysis of
// Appendix F and the geography of Appendix J.

// wireProbe mirrors one probe document.
type wireProbe struct {
	ID             int           `json:"id"`
	CountryCode    string        `json:"country_code"`
	ASNv4          uint32        `json:"asn_v4"`
	FirstConnected int64         `json:"first_connected"`
	Geometry       *wireGeometry `json:"geometry,omitempty"`
	Status         wireStatus    `json:"status"`
	City           string        `json:"city,omitempty"` // vzlens extension
}

type wireGeometry struct {
	Type        string     `json:"type"`
	Coordinates [2]float64 `json:"coordinates"` // lon, lat
}

type wireStatus struct {
	Name string `json:"name"` // "Connected" or "Abandoned"
}

// WriteProbesJSON encodes the fleet as probe documents, one per line,
// with connectivity status evaluated at month m.
func WriteProbesJSON(w io.Writer, f *Fleet, m months.Month) error {
	enc := json.NewEncoder(w)
	for _, p := range f.All() {
		status := "Abandoned"
		if p.Contains(m) {
			status = "Connected"
		}
		doc := wireProbe{
			ID:             p.ID,
			CountryCode:    p.Country,
			ASNv4:          uint32(p.ASN),
			FirstConnected: p.From.Time().Unix(),
			Status:         wireStatus{Name: status},
			City:           p.City.Name,
		}
		if p.City.Lat != 0 || p.City.Lon != 0 {
			doc.Geometry = &wireGeometry{
				Type:        "Point",
				Coordinates: [2]float64{p.City.Lon, p.City.Lat},
			}
		}
		if err := enc.Encode(doc); err != nil {
			return fmt.Errorf("atlas: encode probe %d: %w", p.ID, err)
		}
	}
	return nil
}

// ParseProbesJSON reads probe documents back into a Fleet. Probes keep
// their recorded city name and coordinates; unknown cities stay as
// standalone points.
func ParseProbesJSON(r io.Reader) (*Fleet, error) {
	f := NewFleet()
	m := met.Load()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if m != nil {
			m.bytes.Add(uint64(len(raw)) + 1)
		}
		if len(raw) == 0 {
			continue
		}
		var doc wireProbe
		if err := json.Unmarshal(raw, &doc); err != nil {
			if m != nil {
				m.malforms.Inc()
			}
			return nil, fmt.Errorf("atlas: probe line %d: %w", lineNo, err)
		}
		if m != nil {
			m.probes.Inc()
		}
		city := geo.City{Name: doc.City, Country: doc.CountryCode}
		if doc.Geometry != nil {
			city.Lon = doc.Geometry.Coordinates[0]
			city.Lat = doc.Geometry.Coordinates[1]
		}
		f.Add(Probe{
			ID:      doc.ID,
			Country: doc.CountryCode,
			City:    city,
			ASN:     bgp.ASN(doc.ASNv4),
			Window:  months.Window{From: months.FromTime(time.Unix(doc.FirstConnected, 0).UTC())},
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("atlas: read probes: %w", err)
	}
	return f, nil
}

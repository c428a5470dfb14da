package netsim

import (
	"fmt"
	"strings"

	"vzlens/internal/bgp"
	"vzlens/internal/geo"
)

// Hop is one traceroute step: the AS entered, where it interconnects,
// and the cumulative one-way latency at that point.
type Hop struct {
	ASN          bgp.ASN
	City         string
	CumulativeMs float64
}

// Trace expands the minimum-latency shortest path from a source (AS
// plus physical city) toward an anycast site — the one catchment
// latencies follow — into per-hop latencies: the hop list a traceroute
// from a probe would show. The final hop is the replica city.
func (r *Resolver) Trace(srcAS bgp.ASN, srcCity geo.City, site Site) ([]Hop, error) {
	path, ok := r.BestPath(srcAS, site.Host)
	if !ok {
		return nil, ErrUnreachable
	}
	return r.topo.traceAlong(path, srcCity, site)
}

// traceAlong accumulates per-hop latency over a concrete AS path.
func (t *Topology) traceAlong(path []bgp.ASN, srcCity geo.City, site Site) ([]Hop, error) {
	const perHopMs = 0.35
	var hops []Hop
	cum := 0.0
	prev := srcCity
	for i, asn := range path {
		city, located := t.Location(asn)
		if i == 0 {
			// First hop: the probe's own gateway at its city.
			hops = append(hops, Hop{ASN: asn, City: srcCity.Name, CumulativeMs: 0.3})
			cum = 0.3
			if located {
				// Carrying traffic to the AS's interconnection city.
				cum += geo.PropagationDelayMs(geo.HaversineKm(srcCity.Lat, srcCity.Lon, city.Lat, city.Lon))
				prev = city
			}
			continue
		}
		cum += perHopMs
		name := "?"
		if located {
			cum += geo.PropagationDelayMs(geo.HaversineKm(prev.Lat, prev.Lon, city.Lat, city.Lon))
			prev = city
			name = city.Name
		}
		hops = append(hops, Hop{ASN: asn, City: name, CumulativeMs: cum})
	}
	// Final segment to the replica city when it differs from the host's
	// interconnection point.
	cum += geo.PropagationDelayMs(geo.HaversineKm(prev.Lat, prev.Lon, site.City.Lat, site.City.Lon))
	last := hops[len(hops)-1]
	if site.City.Name != last.City {
		hops = append(hops, Hop{ASN: site.Host, City: site.City.Name, CumulativeMs: cum})
	} else {
		hops[len(hops)-1].CumulativeMs = cum
	}
	return hops, nil
}

// FormatTrace renders hops in traceroute style, with RTTs (2x the
// cumulative one-way latency).
func FormatTrace(hops []Hop) string {
	var b strings.Builder
	for i, h := range hops {
		fmt.Fprintf(&b, "%2d  AS%-8d %-16s %.1f ms\n", i+1, h.ASN, h.City, 2*h.CumulativeMs)
	}
	return b.String()
}

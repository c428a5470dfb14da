package world

import (
	"vzlens/internal/bgp"
	"vzlens/internal/months"
)

// CollectorPaths simulates the route-collector view at month m: the
// valley-free AS path from every collector-hosting AS toward every
// origin, as a RouteViews/RIS-style table dump would record. These are
// the paths from which the serial-1 relationship files the paper
// consumes are inferred.
func (w *World) CollectorPaths(m months.Month, collectors, origins []bgp.ASN) [][]bgp.ASN {
	topo := w.MonthTopology(m)
	var paths [][]bgp.ASN
	for _, c := range collectors {
		for _, o := range origins {
			if c == o {
				continue
			}
			if path, ok := topo.ASPath(c, o); ok {
				paths = append(paths, path)
			}
		}
	}
	return paths
}

// DefaultCollectors returns a realistic collector placement: the entire
// global transit core (RouteViews and RIS peer with essentially every
// tier-1) plus the national transits of the well-instrumented countries.
func (w *World) DefaultCollectors() []bgp.ASN {
	var out []bgp.ASN
	for asn := range tier1Locations {
		out = append(out, asn)
	}
	for _, cc := range []string{"BR", "AR", "CL", "MX", "CO"} {
		out = append(out, w.Nets[cc].Transit)
	}
	sortASNs(out)
	return out
}

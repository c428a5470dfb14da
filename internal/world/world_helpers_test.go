package world

import (
	"vzlens/internal/atlas"
	"vzlens/internal/bgp"
	"vzlens/internal/netsim"
	"vzlens/internal/offnet"
)

// offnetDetect runs the offnet detection pipeline over a scan.
func offnetDetect(scan *offnet.Scan) map[string][]bgp.ASN {
	return offnet.DetectOffnets(scan, offnet.Hypergiants())
}

// localizeSitesFor is the reference localization the kernel tests
// replay: the (country, asn) view of an anycast site list, in which
// replicas deployed in the probe's own country are reachable over the
// domestic peering fabric, modeled as hosting inside the probe's AS
// (one hop, direct city-to-city distance). Cross-border replicas keep
// their interdomain path. The list is returned as-is when nothing needs
// rewriting. The kernels get the same view by passing the probe's
// country to netsim.Resolver.CatchmentInfo.
func localizeSitesFor(sites []netsim.Site, country string, asn bgp.ASN) []netsim.Site {
	out := sites
	copied := false
	for i, s := range sites {
		if s.City.Country != country || s.Host == asn {
			continue
		}
		if !copied {
			out = make([]netsim.Site, len(sites))
			copy(out, sites)
			copied = true
		}
		out[i].Host = asn
	}
	return out
}

// localizeSites is localizeSitesFor keyed by a probe.
func localizeSites(sites []netsim.Site, p atlas.Probe) []netsim.Site {
	return localizeSitesFor(sites, p.Country, p.ASN)
}

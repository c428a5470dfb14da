package netsim

import (
	"sync"

	"vzlens/internal/bgp"
	"vzlens/internal/geo"
)

// PathInfo summarizes a valley-free path to one destination.
type PathInfo struct {
	Hops      int     // AS-path length including both endpoints
	LatencyMs float64 // one-way propagation along the path
	OK        bool
}

// Resolver wraps a Topology with per-source shortest-path trees so that
// repeated catchment computations (one per probe per anycast service per
// month) run off a single breadth-first traversal per source AS. Trees
// are computed over the topology's dense index-based view ([]PathInfo
// indexed by interned AS, not maps) with pooled scratch buffers, so a
// traversal allocates only its result slice. It is safe for concurrent
// use: campaign simulations triggered by concurrent API requests share
// the per-month resolvers.
type Resolver struct {
	topo *Topology

	mu    sync.Mutex
	d     *denseTopo
	trees [][]PathInfo // by source dense index; nil until built
}

// NewResolver returns a Resolver over topo.
func NewResolver(topo *Topology) *Resolver {
	return &Resolver{topo: topo}
}

// Topology returns the underlying topology.
func (r *Resolver) Topology() *Topology { return r.topo }

// treeFor returns the memoized single-source tree for src (indexed by
// dense AS index) and the dense view it is defined over, building both
// under the resolver lock on first use. The tree is nil when src is
// unknown to the topology. Trees are immutable once built; a topology
// mutation (anywhere in an overlay's base chain) produces a new dense
// view, which drops every memoized tree here — the resolver never
// serves adjacency from before the mutation.
func (r *Resolver) treeFor(src bgp.ASN) ([]PathInfo, *denseTopo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d := r.topo.dense(); d != r.d {
		r.d = d
		r.trees = make([][]PathInfo, len(r.d.asns))
	}
	si, ok := r.d.index[src]
	if !ok {
		return nil, r.d
	}
	if r.trees[si] == nil {
		r.trees[si] = r.d.buildTree(si)
	} else if m := met.Load(); m != nil {
		m.treeMemoHit.Inc()
	}
	return r.trees[si], r.d
}

// PathInfoFrom returns shortest valley-free path information from src to
// dst, memoizing the full single-source tree on first use.
func (r *Resolver) PathInfoFrom(src, dst bgp.ASN) PathInfo {
	if src == dst {
		return PathInfo{Hops: 1, LatencyMs: 0, OK: true}
	}
	tree, d := r.treeFor(src)
	if tree == nil {
		return PathInfo{}
	}
	di, ok := d.index[dst]
	if !ok {
		return PathInfo{}
	}
	return tree[di]
}

// Tree returns the full single-source tree for src as an ASN-keyed map —
// the pre-dense-index API shape, kept as a thin adapter for inspection
// and tests. Bulk callers should prefer PathInfoFrom, which avoids
// materializing the map.
func (r *Resolver) Tree(src bgp.ASN) map[bgp.ASN]PathInfo {
	tree, d := r.treeFor(src)
	out := map[bgp.ASN]PathInfo{}
	if tree == nil {
		return out
	}
	for i, info := range tree {
		if info.OK {
			out[d.asns[i]] = info
		}
	}
	return out
}

// BestPath reconstructs the concrete AS path behind PathInfoFrom's
// answer: fewest hops, minimum latency among equal-hop paths — the path
// the campaign latencies are computed over. It re-runs the leveled BFS
// with parent pointers, so it costs one traversal per call; use it for
// hop-level inspection (traceroutes), not bulk catchment.
func (r *Resolver) BestPath(src, dst bgp.ASN) ([]bgp.ASN, bool) {
	if src == dst {
		return []bgp.ASN{src}, true
	}
	d := r.topo.dense()
	si, ok := d.index[src]
	if !ok {
		return nil, false
	}
	di, ok := d.index[dst]
	if !ok {
		return nil, false
	}
	return d.bestPath(si, di)
}

// CatchmentFrom selects the anycast site capturing traffic from a source
// in AS srcAS physically located at srcCity, and returns the one-way
// latency from that location. Unlike Topology.Catchment it accounts for
// the source's position inside its AS: the first segment runs from
// srcCity to the AS's interconnection city (and collapses to the direct
// city-to-replica distance when the source AS itself hosts the site).
func (r *Resolver) CatchmentFrom(srcAS bgp.ASN, srcCity geo.City, sites []Site, policy CatchmentPolicy) (Site, float64, error) {
	i, lat, err := r.CatchmentIndex(srcAS, srcCity, sites, policy)
	if err != nil {
		return Site{}, 0, err
	}
	return sites[i], lat, nil
}

// catchCand is one reachable site under consideration by CatchmentIndex.
type catchCand struct {
	index   int
	site    Site
	hops    int
	latency float64
	distKm  float64
}

// better reports whether a beats b under the policy's preference order —
// the comparison the pre-rewrite sort used, applied as a single-pass
// minimum so site selection allocates nothing.
func (a catchCand) better(b catchCand, policy CatchmentPolicy) bool {
	switch policy {
	case PolicyGeo:
		if a.distKm != b.distKm {
			return a.distKm < b.distKm
		}
	default:
		if a.hops != b.hops {
			return a.hops < b.hops
		}
		if a.latency != b.latency {
			return a.latency < b.latency
		}
	}
	// Stable final tiebreak.
	if a.site.Host != b.site.Host {
		return a.site.Host < b.site.Host
	}
	return a.site.City.Name < b.site.City.Name
}

// CatchmentIndex is CatchmentFrom returning the index of the selected
// site within sites, for callers that keep metadata parallel to the site
// list.
func (r *Resolver) CatchmentIndex(srcAS bgp.ASN, srcCity geo.City, sites []Site, policy CatchmentPolicy) (int, float64, error) {
	return r.CatchmentIndexCached(srcAS, srcCity, sites, policy, nil)
}

// CatchmentIndexCached is CatchmentIndex with an optional PairCache
// memoizing the great-circle distances the selection recomputes per
// probe (a nil cache means direct computation). The campaign kernels
// pass a per-arena cache: the same few hundred city pairs recur across
// every probe-month, and the cached distance feeds the exact arithmetic
// the direct path uses, so results are bit-identical.
func (r *Resolver) CatchmentIndexCached(srcAS bgp.ASN, srcCity geo.City, sites []Site, policy CatchmentPolicy, pc *PairCache) (int, float64, error) {
	idx, lat, _, err := r.CatchmentInfoCached(srcAS, srcCity, sites, policy, pc)
	return idx, lat, err
}

// CatchmentInfoCached is CatchmentIndexCached additionally reporting
// the AS-path hop count of the selected site (1 when the source AS
// hosts it). The selection arithmetic is shared, so the index and
// latency are bit-identical to CatchmentIndexCached — the hop count is
// a free by-product the fact-emission path records per probe class.
//
// Per-source work runs once per call, not once per candidate site: the
// source's tree and dense view are fetched on the first site the source
// AS does not host, and the first segment (the source's city to its
// AS's location) is computed then. Locations come from that same dense
// view, which already honors overlay relocations. Each site's distance
// from the source is computed once and serves both the hosted-site
// latency and the geo policy's ranking.
func (r *Resolver) CatchmentInfoCached(srcAS bgp.ASN, srcCity geo.City, sites []Site, policy CatchmentPolicy, pc *PairCache) (int, float64, int, error) {
	var best catchCand
	found := false
	var (
		tree     []PathInfo
		d        *denseTopo // nil until the first site srcAS does not host
		hasFirst bool
		firstMs  float64
	)
	for i, site := range sites {
		var hops int
		var lat, distKm float64
		if site.Host == srcAS {
			distKm = pc.DistKm(srcCity.Lat, srcCity.Lon, site.City.Lat, site.City.Lon)
			hops = 1
			lat = geo.PropagationDelayMs(distKm)
		} else {
			if d == nil {
				tree, d = r.treeFor(srcAS)
				if tree != nil {
					if si := d.index[srcAS]; d.hasLoc[si] {
						hasFirst = true
						firstMs = geo.PropagationDelayMs(pc.DistKm(srcCity.Lat, srcCity.Lon, d.locLat[si], d.locLon[si]))
					}
				}
			}
			if tree == nil {
				continue
			}
			hi, ok := d.index[site.Host]
			if !ok {
				continue
			}
			info := tree[hi]
			if !info.OK {
				continue
			}
			hops = info.Hops
			lat = info.LatencyMs
			// First segment: the source's city to its AS's location.
			if hasFirst {
				lat += firstMs
			}
			// Final segment: the host AS's location to the replica city.
			if d.hasLoc[hi] {
				lat += geo.PropagationDelayMs(pc.DistKm(d.locLat[hi], d.locLon[hi], site.City.Lat, site.City.Lon))
			}
			distKm = pc.DistKm(srcCity.Lat, srcCity.Lon, site.City.Lat, site.City.Lon)
		}
		cand := catchCand{index: i, site: site, hops: hops, latency: lat, distKm: distKm}
		if !found || cand.better(best, policy) {
			best = cand
			found = true
		}
	}
	if !found {
		return 0, 0, 0, ErrUnreachable
	}
	return best.index, best.latency, best.hops, nil
}

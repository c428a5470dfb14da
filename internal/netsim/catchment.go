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

// treeEntry is PathInfo in a path tree's 16 bytes (PathInfo takes 24):
// hops == 0 means unreachable.
type treeEntry struct {
	lat  float64
	hops int32
}

func (e treeEntry) info() PathInfo {
	return PathInfo{Hops: int(e.hops), LatencyMs: e.lat, OK: e.hops != 0}
}

// Resolver wraps a Topology with per-source shortest-path trees so that
// repeated catchment computations (one per probe per anycast service per
// month) run off a single breadth-first traversal per source AS. Trees
// are computed over the topology's dense index-based view ([]treeEntry
// indexed by interned AS, not maps) with pooled scratch buffers, so a
// traversal allocates only its result slice. The trees are a cache:
// ReleaseTrees drops them and the next lookup rebuilds the same bits.
// A resolver made by Overlay also borrows its lender's trees where its
// edits cannot change them (see lend.go). It is safe for concurrent
// use: campaign simulations triggered by concurrent API requests share
// the per-month resolvers.
type Resolver struct {
	topo   *Topology
	lender *Resolver // the resolver Overlay derived this one from; nil for NewResolver

	mu    sync.Mutex
	d     *denseTopo
	trees [][]treeEntry // by source dense index; nil until built
	// With a lender, set with d: the ASes whose trees the edits can
	// change (nil when that may be every AS) and, by source index, the
	// lender's tree for a source outside that region.
	region *region
	lent   []lentTree
	// regions interns the regions of the resolvers Overlay derived from
	// this one; it outlives ReleaseTrees, so ShareKey stays stable.
	regions []*region
}

// NewResolver returns a Resolver over topo.
func NewResolver(topo *Topology) *Resolver {
	return &Resolver{topo: topo}
}

// Topology returns the underlying topology.
func (r *Resolver) Topology() *Topology { return r.topo }

// syncLocked returns the topology's current dense view, first dropping
// every memoized tree when the view changed (a mutation anywhere in an
// overlay's base chain produces a new one, so the resolver never serves
// adjacency from before the mutation; ReleaseTrees forgets the view).
// r.mu must be held.
func (r *Resolver) syncLocked() *denseTopo {
	d := r.topo.dense()
	if d != r.d {
		r.d = d
		r.trees = make([][]treeEntry, len(d.asns))
		r.region, r.lent = nil, nil
		if r.lender != nil {
			r.region = r.lender.regionFor(r.topo, d)
		}
		if r.region != nil {
			r.lent = make([]lentTree, len(d.asns))
		}
	}
	return d
}

// treeFor returns the memoized single-source tree for src (indexed by
// dense AS index) and the dense view it is defined over, building both
// under the resolver lock on first use. The tree is nil when src is
// unknown to the topology. Trees are immutable once built.
func (r *Resolver) treeFor(src bgp.ASN) ([]treeEntry, *denseTopo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := r.syncLocked()
	si, ok := d.index[src]
	if !ok {
		return nil, d
	}
	if r.trees[si] == nil {
		r.trees[si] = d.buildTree(si)
	} else if m := met.Load(); m != nil {
		m.treeMemoHit.Inc()
	}
	return r.trees[si], d
}

// ReleaseTrees drops every memoized tree, borrowed ones included, so a
// resolver that outlives the campaign pass that filled it retains only
// its topology. A later lookup rebuilds the tree it needs over a
// freshly allocated index; callers still holding a tree from before
// keep a valid, immutable copy.
func (r *Resolver) ReleaseTrees() {
	r.mu.Lock()
	r.d, r.trees, r.region, r.lent = nil, nil, nil, nil
	r.mu.Unlock()
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
	return tree[di].info()
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
	for i, e := range tree {
		if e.hops != 0 {
			out[d.asns[i]] = e.info()
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

// catchCand is one reachable site under consideration by CatchmentInfo.
type catchCand struct {
	index   int
	host    bgp.ASN // the site's host as seen from the source
	hops    int
	latency float64
	distKm  float64
}

// better reports whether a beats b under the policy's preference order —
// the comparison the pre-rewrite sort used, applied as a single-pass
// minimum so site selection allocates nothing.
func (a catchCand) better(b catchCand, sites []Site, policy CatchmentPolicy) bool {
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
	if a.host != b.host {
		return a.host < b.host
	}
	return sites[a.index].City.Name < sites[b.index].City.Name
}

// CatchmentIndex is CatchmentFrom returning the index of the selected
// site within sites, for callers that keep metadata parallel to the site
// list.
func (r *Resolver) CatchmentIndex(srcAS bgp.ASN, srcCity geo.City, sites []Site, policy CatchmentPolicy) (int, float64, error) {
	c, err := r.CatchmentInfo(srcAS, srcCity, "", &SiteList{Sites: sites}, policy)
	return c.Index, c.Latency, err
}

// Catchment is CatchmentInfo's answer.
type Catchment struct {
	Index   int     // the selected site's index in the list
	Latency float64 // one-way latency to it, ms
	Hops    int     // AS-path length to it; 1 when the source AS hosts it
	// Shared reports an answer priced from a borrowed tree alone, with
	// no site hosted inside the region: every resolver with the same
	// ShareKey gives it for the same query. It is set with
	// ErrUnreachable too.
	Shared bool
}

// CatchmentInfo is CatchmentIndex over a prepared site list,
// additionally reporting the AS-path hop count of the selected site (1
// when the source AS hosts it). It is the one catchment path: the
// campaign kernels, the DNS plane and CatchmentIndex all run it, and
// the hop count is a free by-product the trace kernel records per
// probe class in each month partition's Hops column.
//
// domestic, when not empty, is the source's country: replicas located
// there are reachable over the domestic peering fabric, modeled as
// hosted inside srcAS (one hop, the direct city-to-replica distance,
// srcAS in the tiebreak). Selecting over sites with those hosts
// rewritten to srcAS gives the same answer.
//
// On a resolver Overlay made, a source outside the edits' region is
// priced from its borrowed tree first, leaving out the sites hosted
// inside the region. That answer stands when no such site exists, or
// when under the default policy none can win: no path into the region
// is shorter than the tree's fewest hops to an entry AS plus one, and
// every site of the region is farther than the best found. Otherwise,
// and for every other source, the loop runs over the resolver's own
// tree. Either way the answer is the one the own tree gives.
//
// Per-source work runs once per call, not once per candidate site: the
// source's tree and dense view are fetched on the first site the source
// AS does not host, and the first segment (the source's city to its
// AS's location) is computed then. Locations come from that same dense
// view, which already honors overlay relocations. A site's distance
// from the source is computed only where it counts: for a hosted site's
// latency and for the geo policy's ranking. Under the default policy a
// reachable site with more hops than the best so far is skipped before
// its latency is summed: hops rank first, and a hosted site (one hop)
// beats every transit site (two or more).
//
// Distances come from the list's distance table when both endpoints
// are interned and the view shares the table, and from geo.HaversineKm
// otherwise; the table holds exactly what HaversineKm computes, so the
// result is bit-identical either way. Host indices come from the list
// when the view shares the AS interning they were computed against,
// and from the view's index otherwise.
func (r *Resolver) CatchmentInfo(srcAS bgp.ASN, srcCity geo.City, domestic string, sl *SiteList, policy CatchmentPolicy) (Catchment, error) {
	if m := met.Load(); m != nil {
		m.catchments.Inc()
	}
	if r.lender != nil {
		s := r.scan(srcAS, srcCity, domestic, sl, policy, true)
		switch {
		case !s.lent: // nothing borrowed: price over the own tree
		case !s.deferred:
			return s.answer(true)
		case policy != PolicyGeo && (s.bound == 0 || s.found && int(s.bound) > s.best.hops):
			// Every region site is unreachable or farther in hops.
			return s.answer(false)
		}
	}
	return r.scan(srcAS, srcCity, domestic, sl, policy, false).answer(false)
}

// catchScan is one pass of the catchment loop.
type catchScan struct {
	best     catchCand
	found    bool
	lent     bool  // the pass priced from a borrowed tree
	deferred bool  // a site hosted inside the region was left out
	bound    int32 // the borrowed tree's hop bound into the region, 0 when unreachable
}

func (s catchScan) answer(shared bool) (Catchment, error) {
	if !s.found {
		return Catchment{Shared: shared}, ErrUnreachable
	}
	return Catchment{Index: s.best.index, Latency: s.best.latency, Hops: s.best.hops, Shared: shared}, nil
}

// scan runs the catchment loop once over the source's own tree, or,
// with lend, over its borrowed tree, leaving out the sites hosted
// inside the region. A lending pass stops early when the source
// borrows nothing, and leaves lent false, as it does when every site
// is hosted by the source.
func (r *Resolver) scan(srcAS bgp.ASN, srcCity geo.City, domestic string, sl *SiteList, policy CatchmentPolicy, lend bool) (s catchScan) {
	var (
		tree     []treeEntry
		d        *denseTopo // nil until the first site srcAS does not host
		inRegion []bool     // with lend: the region by dense index
		hosts    []int32    // sl.host when valid for d, else nil
		locIDs   []int32    // d.locID when d shares sl's table, else nil
		hasFirst bool
		firstMs  float64
	)
	sites, cities, cityIDs := sl.Sites, sl.cities, sl.city
	srcID := cities.id(srcCity)
	for i := range sites {
		site := &sites[i]
		host := site.Host
		if domestic != "" && site.City.Country == domestic {
			host = srcAS
		}
		siteID := int32(-1)
		if cityIDs != nil {
			siteID = cityIDs[i]
		}
		var hops int
		var lat, distKm float64
		if host == srcAS || policy == PolicyGeo {
			distKm = cities.distKm(srcID, siteID, srcCity.Lat, srcCity.Lon, site.City.Lat, site.City.Lon)
		}
		if host == srcAS {
			hops = 1
			lat = geo.PropagationDelayMs(distKm)
		} else {
			if d == nil {
				if lend {
					var lt lentTree
					if lt, d, inRegion = r.lentFor(srcAS); lt.tree == nil {
						return s
					}
					s.lent = true
					tree, s.bound = lt.tree, lt.bound
				} else {
					tree, d = r.treeFor(srcAS)
				}
				if sl.host != nil && sl.view.internID == d.internID {
					hosts = sl.host
				}
				if cities != nil && d.cities == cities {
					locIDs = d.locID
				}
				if tree != nil {
					if si := d.index[srcAS]; d.hasLoc[si] {
						hasFirst = true
						firstMs = geo.PropagationDelayMs(cities.distKm(srcID, locID(locIDs, si), srcCity.Lat, srcCity.Lon, d.locLat[si], d.locLon[si]))
					}
				}
			}
			if tree == nil {
				continue
			}
			var hi int32
			if hosts != nil {
				if hi = hosts[i]; hi < 0 {
					continue
				}
			} else {
				var ok bool
				if hi, ok = d.index[host]; !ok {
					continue
				}
			}
			if inRegion != nil && inRegion[hi] {
				s.deferred = true
				continue
			}
			e := tree[hi]
			if e.hops == 0 {
				continue
			}
			// Hops rank first under the default policy: a site farther
			// in hops than the best so far cannot win on latency.
			if s.found && policy != PolicyGeo && int(e.hops) > s.best.hops {
				continue
			}
			hops = int(e.hops)
			lat = e.lat
			// First segment: the source's city to its AS's location.
			if hasFirst {
				lat += firstMs
			}
			// Final segment: the host AS's location to the replica city.
			if d.hasLoc[hi] {
				lat += geo.PropagationDelayMs(cities.distKm(locID(locIDs, hi), siteID, d.locLat[hi], d.locLon[hi], site.City.Lat, site.City.Lon))
			}
		}
		cand := catchCand{index: i, host: host, hops: hops, latency: lat, distKm: distKm}
		if !s.found || cand.better(s.best, sites, policy) {
			s.best = cand
			s.found = true
		}
	}
	return s
}

// locID returns AS i's location id from ids, or -1 when ids is nil.
func locID(ids []int32, i int32) int32 {
	if ids == nil {
		return -1
	}
	return ids[i]
}

package netsim

import (
	"math"
	"sort"

	"vzlens/internal/bgp"
	"vzlens/internal/geo"
)

// cityTable is a great-circle distance table over a fixed set of city
// coordinates. Each distinct coordinate pair gets a dense id, and the
// table holds geo.HaversineKm for every ordered pair of ids, so the
// catchment loop reads a distance with one slice index instead of
// hashing coordinates. Ids key by the coordinates' IEEE-754 bit
// patterns: +0 and -0 are different coordinates, and a lookup hits only
// when its bits equal an interned city's. The table stores exactly what
// HaversineKm returns for the same arguments in the same order, so a
// table read and a direct computation are bit-identical.
//
// A cityTable is immutable once built and safe for concurrent use. A
// nil *cityTable interns nothing.
type cityTable struct {
	n   int
	ids map[[2]uint64]int32
	km  []float64 // km[a*n+b] = HaversineKm(a, b)
}

// newCityTable interns cities (duplicate coordinates share one id) and
// fills the distance table.
func newCityTable(cities []geo.City) *cityTable {
	c := &cityTable{ids: make(map[[2]uint64]int32, len(cities))}
	var lat, lon []float64
	for _, city := range cities {
		k := coordKey(city)
		if _, ok := c.ids[k]; ok {
			continue
		}
		c.ids[k] = int32(len(lat))
		lat = append(lat, city.Lat)
		lon = append(lon, city.Lon)
	}
	c.n = len(lat)
	c.km = make([]float64, c.n*c.n)
	for a := 0; a < c.n; a++ {
		for b := 0; b < c.n; b++ {
			c.km[a*c.n+b] = geo.HaversineKm(lat[a], lon[a], lat[b], lon[b])
		}
	}
	return c
}

func coordKey(city geo.City) [2]uint64 {
	return [2]uint64{math.Float64bits(city.Lat), math.Float64bits(city.Lon)}
}

// id returns city's dense id, or -1 when its coordinates are not
// interned.
func (c *cityTable) id(city geo.City) int32 {
	if c == nil {
		return -1
	}
	if id, ok := c.ids[coordKey(city)]; ok {
		return id
	}
	return -1
}

// distKm returns geo.HaversineKm(aLat, aLon, bLat, bLon), where a and b
// are the ids of those coordinates: a table read when both are
// interned, the direct computation when either is -1.
func (c *cityTable) distKm(a, b int32, aLat, aLon, bLat, bLon float64) float64 {
	if a >= 0 && b >= 0 {
		return c.km[int(a)*c.n+int(b)]
	}
	return geo.HaversineKm(aLat, aLon, bLat, bLon)
}

// InternCities builds the distance table the catchment loop of t and
// every overlay derived from it reads: extra (the cities sources and
// sites sit in) plus every AS location of t, interned in that order
// with locations by ascending ASN. Overlay views are immutable;
// InternCities panics on one.
func (t *Topology) InternCities(extra []geo.City) {
	if t.base != nil {
		panic("netsim: InternCities on an overlay view; intern on the base")
	}
	asns := make([]bgp.ASN, 0, len(t.location))
	for a := range t.location {
		asns = append(asns, a)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	all := append([]geo.City(nil), extra...)
	for _, a := range asns {
		all = append(all, t.location[a])
	}
	t.invalidateDense()
	t.cities = newCityTable(all)
}

// SiteList is an anycast site list prepared for repeated catchment
// selection against one topology: each site's id in the topology's
// distance table and its host's dense AS index. The host indices hold
// for every view sharing the AS interning they were computed against
// (a base and all overlays derived from it); the catchment loop checks
// that and falls back to looking hosts up when a view was re-interned.
// A SiteList is immutable once prepared and safe for concurrent use.
// The unprepared form &SiteList{Sites: s} is valid and takes the
// lookup path for every site.
type SiteList struct {
	Sites []Site

	cities *cityTable
	city   []int32    // per site: id in cities, -1 when not interned
	view   *denseTopo // the view host was computed against
	host   []int32    // per site: host's dense AS index, -1 when unknown
}

// PrepareSites resolves sites against t's current dense view.
func (t *Topology) PrepareSites(sites []Site) *SiteList {
	d := t.dense()
	sl := &SiteList{
		Sites:  sites,
		cities: d.cities,
		city:   make([]int32, len(sites)),
		view:   d,
		host:   make([]int32, len(sites)),
	}
	for i := range sites {
		sl.city[i] = d.cities.id(sites[i].City)
		sl.host[i] = d.hostIndex(sites[i].Host)
	}
	return sl
}

// hostIndex returns asn's dense index, -1 when the view does not know it.
func (d *denseTopo) hostIndex(asn bgp.ASN) int32 {
	if i, ok := d.index[asn]; ok {
		return i
	}
	return -1
}

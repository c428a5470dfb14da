// Package dnsplane is the authoritative DNS/GSLB front end over the
// simulated world: a wire-speed query path that answers the paper's
// own measurement protocol. CHAOS TXT questions return the identity of
// the root-server instance whose catchment covers the querying client,
// and IN A/AAAA questions for the per-letter vanity names
// ("l.root-servers.vz") return a synthetic service address for the
// same instance — the GSLB pattern: which site answers depends on
// where the query comes from.
//
// The client's location comes from EDNS0 Client Subnet, the package's
// GeoIP stand-in: an ECS /32 inside 10.0.0.0/8 names a simulated RIPE
// Atlas probe (10.<id₂₃₋₁₆>.<id₁₅₋₈>.<id₇₋₀>) and resolves through
// that probe's exact (country, AS, city); any other subnet maps
// deterministically onto a country vantage; no ECS means the default
// vantage (Venezuela). Every query routes through the same interned
// catchment machinery the CHAOS campaign uses (world.DNSAnswerAt), so
// the data plane and the simulator can never disagree — a property the
// differential test in this package pins.
//
// Health is overlay-driven: SetScenario swaps a compiled scenario plan
// (a depeered AS, a cut cable, a withdrawn replica) under the answer
// cache, and the very next query routes through the overlaid topology.
//
// The steady-state query path — parse, client resolution, cache hit,
// response build — allocates nothing: the parser decodes into a
// stack-owned Query, answers intern in a map keyed by value structs,
// and responses append into the caller's buffer.
package dnsplane

import (
	"sync"

	"vzlens/internal/bgp"
	"vzlens/internal/dnsroot"
	"vzlens/internal/dnswire"
	"vzlens/internal/geo"
	"vzlens/internal/months"
	"vzlens/internal/netsim"
	"vzlens/internal/world"
)

// ClientSource says how a query's client location was derived.
type ClientSource uint8

const (
	// SourceDefault: no usable ECS; the default vantage answered.
	SourceDefault ClientSource = iota
	// SourceProbe: ECS named a simulated probe (10.x.y.z/32).
	SourceProbe
	// SourceGeo: ECS carried a foreign subnet, mapped onto a country
	// vantage.
	SourceGeo
)

// String labels the source for metrics.
func (s ClientSource) String() string {
	switch s {
	case SourceProbe:
		return "probe"
	case SourceGeo:
		return "geo"
	default:
		return "default"
	}
}

// Zone is the IN zone the plane is authoritative for.
const Zone = "root-servers.vz"

// TTLs: service addresses are cacheable briefly; CHAOS identification
// answers carry TTL 0 by root-server convention.
const (
	addrTTL  uint32 = 30
	chaosTTL uint32 = 0
)

// ansKey identifies one cached answer: a letter crossed with a client
// equivalence class. Clients sharing (cc, asn, city) get identical
// catchments — the same factoring the campaign kernel's probe classes
// use — so the cache stays a few hundred entries per letter at most.
type ansKey struct {
	letter dnsroot.Letter
	asn    bgp.ASN
	cc     string
	city   geo.City
}

// answer is one cached resolution. ok=false caches unreachability
// (SERVFAIL) too: an unreachable client class would otherwise recompute
// its catchment on every retry, exactly when the simulated network is
// at its worst.
type answer struct {
	txt  string
	a    [4]byte
	aaaa [16]byte
	ok   bool
}

// geoVantage is one ECS-geo fallback row.
type geoVantage struct {
	cc   string
	asn  bgp.ASN
	city geo.City
}

// QueryInfo reports what Handle did with one datagram, for the
// server's metrics; Rcode is -1 when the packet was dropped.
type QueryInfo struct {
	Rcode     int
	Source    ClientSource
	Truncated bool
	CacheHit  bool
}

// Resolver answers DNS queries for one pinned month of the simulated
// world. It is safe for concurrent use; SetScenario may race queries.
type Resolver struct {
	w     *world.World
	month months.Month

	geoTab []geoVantage
	defCC  string
	defASN bgp.ASN
	defCty geo.City

	// mu guards the scenario plan and the answer cache built under it.
	// Queries take the read lock for a map probe; a swap takes the
	// write lock, installs the plan, and drops the whole cache — the
	// next query for each class recomputes through the new overlay.
	// The plan memoizes its overlay resolver, so that resolver lives
	// while the plan is installed and goes with the next swap.
	mu    sync.RWMutex
	plan  *world.ScenarioPlan
	cache map[ansKey]answer

	met planeMetrics
}

// NewResolver returns a Resolver answering for month m (zero = the
// world's default DNS month, the end of the CHAOS window).
func NewResolver(w *world.World, m months.Month) *Resolver {
	if m.IsZero() {
		m = w.DefaultDNSMonth()
	}
	r := &Resolver{
		w:     w,
		month: m,
		cache: make(map[ansKey]answer),
		defCC: "VE",
	}
	for _, cc := range w.VantageCountries() {
		asn, city, ok := w.CountryVantage(cc)
		if !ok {
			continue
		}
		r.geoTab = append(r.geoTab, geoVantage{cc: cc, asn: asn, city: city})
	}
	if asn, city, ok := w.CountryVantage("VE"); ok {
		r.defASN, r.defCty = asn, city
	} else if len(r.geoTab) > 0 {
		v := r.geoTab[0]
		r.defCC, r.defASN, r.defCty = v.cc, v.asn, v.city
	}
	return r
}

// Month returns the month the resolver is pinned to.
func (r *Resolver) Month() months.Month { return r.month }

// SetScenario installs plan (nil = baseline) and invalidates every
// cached answer. The swap is atomic with respect to queries: a query
// either resolves entirely under the old plan or entirely under the
// new one.
func (r *Resolver) SetScenario(plan *world.ScenarioPlan) {
	r.mu.Lock()
	r.plan = plan
	r.cache = make(map[ansKey]answer)
	r.mu.Unlock()
	r.met.swaps.Inc()
}

// ScenarioKey returns the active plan's key ("" for baseline).
func (r *Resolver) ScenarioKey() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.plan == nil {
		return ""
	}
	return r.plan.Key
}

// CacheLen reports the live answer-cache size.
func (r *Resolver) CacheLen() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.cache)
}

// lookup resolves (letter, client class), consulting and filling the
// answer cache. The catchment computation runs outside the lock; a
// scenario swap racing the fill wins — the stale result is returned to
// its one query but not cached.
func (r *Resolver) lookup(letter dnsroot.Letter, cc string, asn bgp.ASN, city geo.City) answer {
	k := ansKey{letter: letter, asn: asn, cc: cc, city: city}
	r.mu.RLock()
	plan := r.plan
	a, hit := r.cache[k]
	r.mu.RUnlock()
	if hit {
		r.met.cacheHits.Inc()
		return a
	}
	r.met.cacheMisses.Inc()
	res, err := r.w.DNSAnswerAt(letter, r.month, cc, asn, city, plan)
	if err == nil {
		a = answer{txt: res.TXT, ok: true}
		a.a = instanceA(letter, res.SiteIndex)
		a.aaaa = instanceAAAA(letter, res.SiteIndex)
	} else {
		a = answer{ok: false}
		if err == netsim.ErrUnreachable {
			r.met.unreachable.Inc()
		}
	}
	r.mu.Lock()
	if r.plan == plan { // don't poison the cache across a swap
		r.cache[k] = a
	}
	r.mu.Unlock()
	return a
}

// client derives the query's client location. ECS is the only signal
// (the packet alone determines the answer, which keeps Handle pure and
// the differential test honest about what the wire carries).
func (r *Resolver) client(q *dnswire.Query) (cc string, asn bgp.ASN, city geo.City, src ClientSource) {
	if !q.HasECS || q.ECS.AddrLen == 0 {
		return r.defCC, r.defASN, r.defCty, SourceDefault
	}
	if ip, ok := q.ECS.IPv4(); ok && ip[0] == 10 && q.ECS.SourcePrefix == 32 {
		id := int(ip[1])<<16 | int(ip[2])<<8 | int(ip[3])
		if p, ok := r.w.ProbeAt(id, r.month); ok {
			return p.Country, p.ASN, p.City, SourceProbe
		}
	}
	if len(r.geoTab) == 0 {
		return r.defCC, r.defASN, r.defCty, SourceDefault
	}
	// FNV-1a over (family, masked prefix): a deterministic stand-in
	// for a GeoIP database — the same subnet always lands on the same
	// country vantage.
	h := uint32(2166136261)
	h = (h ^ uint32(q.ECS.Family)) * 16777619
	h = (h ^ uint32(q.ECS.SourcePrefix)) * 16777619
	for _, b := range q.ECS.Addr[:q.ECS.AddrLen] {
		h = (h ^ uint32(b)) * 16777619
	}
	v := r.geoTab[int(h)%len(r.geoTab)]
	return v.cc, v.asn, v.city, SourceGeo
}

// instanceA synthesizes the letter instance's IPv4 service address in
// 198.18.0.0/15 (RFC 2544 benchmarking space — guaranteed not to be
// anyone's real address): third octet = letter index, fourth = 1+site
// index, clamped into the octet.
func instanceA(letter dnsroot.Letter, siteIdx int) [4]byte {
	host := siteIdx + 1
	if host > 254 {
		host = 254
	}
	return [4]byte{198, 18, byte(letter - 'A'), byte(host)}
}

// instanceAAAA is the same identity in 2001:db8::/32 (documentation
// space): ...:<letter index>:<site index+1>.
func instanceAAAA(letter dnsroot.Letter, siteIdx int) [16]byte {
	var out [16]byte
	out[0], out[1] = 0x20, 0x01
	out[2], out[3] = 0x0d, 0xb8
	out[12] = 0
	out[13] = byte(letter - 'A')
	host := siteIdx + 1
	out[14] = byte(host >> 8)
	out[15] = byte(host)
	return out
}

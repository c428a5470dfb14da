package world

import (
	"slices"

	"vzlens/internal/atlas"
	"vzlens/internal/bgp"
	"vzlens/internal/dnsroot"
	"vzlens/internal/geo"
	"vzlens/internal/months"
	"vzlens/internal/netsim"
)

// This file holds the campaign kernel's interned per-month views. The
// old inner loops recomputed the same values once per probe per month:
// the catchment of every probe sharing a (country, AS, city) triple is
// identical, a site list depends only on which sites are active, and a
// CHAOS TXT string depends only on the instance and the naming era.
// Interning each of these collapses hundreds of thousands of
// recomputations (and their allocations) into a few hundred memoized
// entries shared across months, campaigns, and sweep specs. Every
// memoized value is a pure function of its key, so concurrent month
// shards racing to fill a cache produce identical entries and the
// campaign output stays schedule-independent.

// probeClassKey identifies a probe equivalence class: probes with the
// same country, AS, and city get identical catchments and access
// delays — everything except their RNG stream.
type probeClassKey struct {
	country string
	asn     bgp.ASN
	city    geo.City
}

// monthClasses is one month's probe fleet factored into classes:
// probes is the sorted active snapshot, classOf maps each probe to its
// class, keys lists the distinct classes in first-seen order.
type monthClasses struct {
	probes  []atlas.Probe
	classOf []int32
	keys    []probeClassKey
}

// classesAt memoizes the class factoring per month. The trace campaign
// and all thirteen CHAOS letters share one factoring.
func (w *World) classesAt(m months.Month) *monthClasses {
	w.classMu.Lock()
	defer w.classMu.Unlock()
	if mc, ok := w.classCache[m]; ok {
		return mc
	}
	if w.classCache == nil {
		w.classCache = map[months.Month]*monthClasses{}
	}
	probes := w.activeProbesAt(m)
	mc := &monthClasses{probes: probes, classOf: make([]int32, len(probes))}
	idx := make(map[probeClassKey]int32, 64)
	for i, p := range probes {
		k := probeClassKey{country: p.Country, asn: p.ASN, city: p.City}
		c, ok := idx[k]
		if !ok {
			c = int32(len(mc.keys))
			idx[k] = c
			mc.keys = append(mc.keys, k)
		}
		mc.classOf[i] = c
	}
	w.classCache[m] = mc
	return mc
}

// prepareSites prepares a site list for the catchment loop against the
// kernel base, whose distance table and AS interning every campaign
// view shares (scenario overlays included).
func (w *World) prepareSites(sites []netsim.Site) *netsim.SiteList {
	return w.kernelBaseTopology().PrepareSites(sites)
}

func init() {
	if len(gpdnsRollout) > 32 {
		panic("world: gpdnsRollout exceeds the uint32 site-list mask")
	}
}

// traceSiteListAt returns the GPDNS site list for month m. Baseline
// months intern by activation mask — GPDNSSitesAt walks gpdnsRollout
// in slice order, so two months with the same mask produce identical
// lists and share one backing array. A plan with a GPDNS change active
// at m bypasses interning (a fresh list).
func (w *World) traceSiteListAt(m months.Month, plan *ScenarioPlan) *netsim.SiteList {
	if plan != nil {
		for _, ch := range plan.GPDNS {
			if windowActive(ch.From, ch.Until, m) {
				return w.prepareSites(w.gpdnsSitesFor(m, plan))
			}
		}
	}
	var mask uint32
	for i, s := range gpdnsRollout {
		if !m.Before(s.since) {
			mask |= 1 << i
		}
	}
	w.siteMu.Lock()
	defer w.siteMu.Unlock()
	sl, ok := w.gpdnsLists[mask]
	if !ok {
		if w.gpdnsLists == nil {
			w.gpdnsLists = map[uint32]*netsim.SiteList{}
		}
		sl = w.prepareSites(w.GPDNSSitesAt(m))
		w.gpdnsLists[mask] = sl
	}
	return sl
}

// rootList is one root letter's prepared site list plus the parallel
// instance slice and the letter's lazily built per-era TXT tables.
type rootList struct {
	sites  *netsim.SiteList
	letter dnsroot.Letter
	insts  []dnsroot.Instance
	txt    [2][]string // by dnsroot.Era; built under w.txtMu
}

// rootListKey keys the per-(letter, month) root list memo.
type rootListKey struct {
	letter dnsroot.Letter
	m      months.Month
}

// rootSiteListAt returns letter's site list for month m, interned per
// (letter, active instance set): months whose active instances of the
// letter are equal share one list, and with it its TXT tables.
// Deployment.ActiveAt's order depends only on the active set, so a
// shared list is exactly what each month computes. A (letter, month)
// memo in front keeps repeat calls to one map lookup.
// A plan with a replica change for this letter active at m bypasses
// interning (a fresh list).
func (w *World) rootSiteListAt(letter dnsroot.Letter, m months.Month, plan *ScenarioPlan) *rootList {
	if plan != nil {
		for _, ch := range plan.Roots {
			if ch.Letter == letter && windowActive(ch.From, ch.Until, m) {
				sites, insts := w.rootSitesFor(letter, m, plan)
				return &rootList{sites: w.prepareSites(sites), letter: letter, insts: insts}
			}
		}
	}
	key := rootListKey{letter: letter, m: m}
	w.siteMu.Lock()
	defer w.siteMu.Unlock()
	rl, ok := w.rootLists[key]
	if !ok {
		if w.rootLists == nil {
			w.rootLists = map[rootListKey]*rootList{}
			w.rootSets = map[dnsroot.Letter][]*rootList{}
		}
		sites, insts := w.RootSitesAt(letter, m)
		for _, cand := range w.rootSets[letter] {
			if slices.Equal(cand.insts, insts) {
				rl = cand
				break
			}
		}
		if rl == nil {
			rl = &rootList{sites: w.prepareSites(sites), letter: letter, insts: insts}
			w.rootSets[letter] = append(w.rootSets[letter], rl)
		}
		w.rootLists[key] = rl
	}
	return rl
}

// activeRootsAt memoizes Roots.ActiveAt per month: every letter of the
// CHAOS sweep filters one shared snapshot instead of re-sorting the
// full deployment thirteen times. Callers must not mutate the result.
func (w *World) activeRootsAt(m months.Month) []dnsroot.Instance {
	w.rootsMu.Lock()
	defer w.rootsMu.Unlock()
	insts, ok := w.activeRootsCache[m]
	if !ok {
		if w.activeRootsCache == nil {
			w.activeRootsCache = map[months.Month][]dnsroot.Instance{}
		}
		insts = w.Roots.ActiveAt(m)
		w.activeRootsCache[m] = insts
	}
	return insts
}

// txtKey keys the global TXT intern table: an instance's CHAOS answer
// is a pure function of (letter, city, index, era).
type txtKey struct {
	letter dnsroot.Letter
	city   geo.City
	index  int
	era    dnsroot.Era
}

// txtFor returns the letter's TXT answer table for month m (indexed
// like insts), rendering each distinct instance name exactly once per
// era across the whole campaign.
func (w *World) txtFor(rl *rootList, m months.Month) []string {
	era := dnsroot.NamingEraAt(rl.letter, m)
	w.txtMu.Lock()
	defer w.txtMu.Unlock()
	if t := rl.txt[era]; t != nil {
		return t
	}
	t := make([]string, len(rl.insts))
	for i, inst := range rl.insts {
		key := txtKey{letter: rl.letter, city: inst.City, index: inst.Index, era: era}
		s, ok := w.txtIntern[key]
		if !ok {
			if w.txtIntern == nil {
				w.txtIntern = map[txtKey]string{}
			}
			s = dnsroot.InstanceName(rl.letter, inst.City, inst.Index, era)
			w.txtIntern[key] = s
		}
		t[i] = s
	}
	rl.txt[era] = t
	return t
}

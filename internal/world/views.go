package world

import (
	"sort"

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

// monthClasses is one month's probe fleet factored into classes: ids
// are the active probes' IDs in ID order (Fleet.ActiveAt's), classOf
// maps each to its class id (see probeClasses), and classes lists the
// month's class ids in first-seen order. A probe's country is its
// class key's country.
type monthClasses struct {
	ids     []int32
	classOf []int32
	classes []int32
}

// probeClasses interns every fleet probe's class once per World, the
// fleet being fixed once the World is built: keys lists the classes by
// dense id, in first-seen order over the ID-ordered fleet, and of
// gives the class id of each probe of Fleet.Sorted(). Every month, the
// kernel arenas and the pass memo index classes by these ids.
func (w *World) probeClasses() (keys []probeClassKey, of []int32) {
	w.classOnce.Do(func() {
		probes := w.Fleet.Sorted()
		w.fleetClass = make([]int32, len(probes))
		idx := make(map[probeClassKey]int32, 256)
		for j := range probes {
			p := &probes[j]
			k := probeClassKey{country: p.Country, asn: p.ASN, city: p.City}
			c, ok := idx[k]
			if !ok {
				c = int32(len(w.classKeys))
				idx[k] = c
				w.classKeys = append(w.classKeys, k)
			}
			w.fleetClass[j] = c
		}
	})
	return w.classKeys, w.fleetClass
}

// classesAt memoizes the class factoring per month. The trace campaign
// and all thirteen CHAOS letters share one factoring. It reads the
// fleet's ID-ordered probes and their interned class ids in place: one
// pass counts the month's active probes and distinct classes, the next
// fills their columns, both deduplicating classes with a slice by
// class id.
func (w *World) classesAt(m months.Month) *monthClasses {
	keys, of := w.probeClasses()
	w.classMu.Lock()
	defer w.classMu.Unlock()
	if mc, ok := w.classCache[m]; ok {
		return mc
	}
	if w.classCache == nil {
		w.classCache = map[months.Month]*monthClasses{}
	}
	probes := w.Fleet.Sorted()
	seen := make([]bool, len(keys))
	n, nc := 0, 0
	for j := range probes {
		if probes[j].ActiveAt(m) {
			n++
			if c := of[j]; !seen[c] {
				seen[c] = true
				nc++
			}
		}
	}
	clear(seen)
	cols := make([]int32, 2*n+nc) // ids, classOf and classes in one allocation
	mc := &monthClasses{ids: cols[:n:n], classOf: cols[n : 2*n : 2*n], classes: cols[2*n : 2*n]}
	i := 0
	for j := range probes {
		if !probes[j].ActiveAt(m) {
			continue
		}
		c := of[j]
		if !seen[c] {
			seen[c] = true
			mc.classes = append(mc.classes, c)
		}
		mc.ids[i] = int32(probes[j].ID)
		mc.classOf[i] = c
		i++
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
// memo in front, filled for all letters per new month, keeps repeat
// calls to one map lookup. A new month compares each letter's active
// instances with the letter's sets in place, over the deployment's
// sorted instances, and builds sites only for a set not seen before.
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
	if rl, ok := w.rootLists[key]; ok {
		return rl
	}
	if w.rootLists == nil {
		w.rootLists = map[rootListKey]*rootList{}
		w.rootSets = map[dnsroot.Letter][]*rootList{}
	}
	all := w.Roots.Sorted()
	for _, l := range dnsroot.Letters() {
		lo := sort.Search(len(all), func(i int) bool { return all[i].Letter >= l })
		hi := lo
		for hi < len(all) && all[hi].Letter == l {
			hi++
		}
		w.rootLists[rootListKey{letter: l, m: m}] = w.rootSetAt(l, all[lo:hi], m)
	}
	return w.rootLists[key]
}

// rootSetAt returns letter's interned list for the instances of insts
// active at m, creating it when the set is new. siteMu must be held.
func (w *World) rootSetAt(letter dnsroot.Letter, insts []dnsroot.Instance, m months.Month) *rootList {
	for _, rl := range w.rootSets[letter] {
		if activeEqual(insts, m, rl.insts) {
			return rl
		}
	}
	var active []dnsroot.Instance
	for _, inst := range insts {
		if inst.ActiveAt(m) {
			active = append(active, inst)
		}
	}
	sites, set := w.rootSitesIn(active, letter)
	rl := &rootList{sites: w.prepareSites(sites), letter: letter, insts: set}
	w.rootSets[letter] = append(w.rootSets[letter], rl)
	return rl
}

// activeEqual reports whether the instances of insts active at m are
// set, in order.
func activeEqual(insts []dnsroot.Instance, m months.Month, set []dnsroot.Instance) bool {
	j := 0
	for _, inst := range insts {
		if !inst.ActiveAt(m) {
			continue
		}
		if j == len(set) || inst != set[j] {
			return false
		}
		j++
	}
	return j == len(set)
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

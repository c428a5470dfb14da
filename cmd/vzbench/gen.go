package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"time"

	"vzlens/internal/bgp"
	"vzlens/internal/core"
	"vzlens/internal/dnswire"
	"vzlens/internal/months"
	"vzlens/internal/query"
	"vzlens/internal/scenario"
	"vzlens/internal/world"
)

// httpReq is one scheduled HTTP GET of the open-loop stream; at is the
// intended send time relative to the start of the stream.
type httpReq struct {
	at   time.Duration
	path string
}

// dnsReq is one scheduled UDP query. The packet carries its final DNS
// ID: request i goes out on socket i%dnsSockets with ID (i/dnsSockets)
// mod 2^16, so a response names its request without a lookup table
// shared between sockets.
type dnsReq struct {
	at  time.Duration
	pkt []byte
}

// inputs is everything a workload sends. It is a pure function of the
// workload, the seed and the stream length; the server never sees
// anything else.
type inputs struct {
	http      []httpReq
	dns       []dnsReq
	warmSpecs []*scenario.Spec // whatif warm-up, one per client
	specs     []*scenario.Spec // whatif measured specs, consumed in order
	sweep     []byte           // mixed_sweep POST /api/sweeps body
}

// Stream ids keep each generator on its own RNG, so adding a draw to
// one stream never shifts another.
const (
	streamHTTP = iota + 1
	streamPlans
	streamDNS
	streamSpecs
)

func rngFor(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

// decadeFrom starts the decade every plan window lies in
// (2014-01..2024-01); the campaigns run 2014-03..2024-01.
var decadeFrom = months.New(2014, time.January)

// sweepRequest is mixed_sweep's batch: a root replica for each of the
// 13 letters in each Venezuelan city, windowed to the campaigns' last
// year. It is the same for every seed; the live streams beside it vary.
const sweepRequest = `{"id":"mixed","family":"root_each","from":"2023-01","until":"2024-01"}`

func genInputs(w *world.World, wl string, seed int64, warmup, length time.Duration) (*inputs, error) {
	in := &inputs{}
	switch wl {
	case "query_mix":
		in.http = genHTTP(w, seed, queryRate, warmup, length)
	case "dns_mix":
		in.dns = genDNS(w, seed, dnsRate, warmup, length)
	case "whatif":
		specs, err := genSpecs(w, seed, whatifClients+whatifSpecs)
		if err != nil {
			return nil, err
		}
		in.warmSpecs, in.specs = specs[:whatifClients], specs[whatifClients:]
	case "mixed_sweep":
		in.http = genHTTP(w, seed, queryRate/2, warmup, length)
		in.dns = genDNS(w, seed, dnsRate/2, warmup, length)
		in.sweep = []byte(sweepRequest)
	default:
		return nil, fmt.Errorf("unknown workload %q", wl)
	}
	return in, nil
}

// hash digests every generated request, so two runs can show they
// sent the same streams.
func (in *inputs) hash() string {
	h := sha256.New()
	var b [8]byte
	for _, r := range in.http {
		binary.LittleEndian.PutUint64(b[:], uint64(r.at))
		h.Write(b[:])
		h.Write([]byte(r.path))
	}
	for _, r := range in.dns {
		binary.LittleEndian.PutUint64(b[:], uint64(r.at))
		h.Write(b[:])
		h.Write(r.pkt)
	}
	for _, s := range append(append([]*scenario.Spec(nil), in.warmSpecs...), in.specs...) {
		doc, _ := json.Marshal(s)
		h.Write(doc)
	}
	h.Write(in.sweep)
	return hex.EncodeToString(h.Sum(nil))
}

// poisson returns arrival offsets at rate per second until length:
// exponential inter-arrival gaps drawn from rng.
func poisson(rng *rand.Rand, rate float64, length time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= length {
			return out
		}
		out = append(out, at)
	}
}

// arrivals returns an open-loop stream's send offsets: Poisson at rate
// over the first three quarters of the warm-up, nothing in its last
// quarter (the server's heap is measured there with no request in
// flight), then Poisson over the measured window.
func arrivals(rng *rand.Rand, rate float64, warmup, length time.Duration) []time.Duration {
	out := poisson(rng, rate, warmup-warmup/4)
	for _, at := range poisson(rng, rate, length) {
		out = append(out, warmup+at)
	}
	return out
}

// genHTTP builds the query_mix stream: 90% /api/query over a pool of
// plans, 10% experiment documents (JSON or CSV). Requests are dealt
// from shuffled decks holding every pool plan once plus a tenth of
// experiment reads, so every seed sends the same mix in the same
// proportions and only the plans themselves and the order differ. The
// stream opens with one full-range query per fact table, so the
// warm-up touches every partition before anything is measured.
func genHTTP(w *world.World, seed int64, rate float64, warmup, length time.Duration) []httpReq {
	plans := genPlans(rngFor(seed, streamPlans), w.VantageCountries())
	var docs []string
	for _, id := range core.ExperimentIDs() {
		docs = append(docs, "/api/experiments/"+id, "/api/experiments/"+id+".csv")
	}
	rng := rngFor(seed, streamHTTP)
	rng.Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
	perDeck := (len(plans) + 8) / 9 // experiment reads per deck: 10% of it
	var deck []string
	nextDoc := 0
	out := []httpReq{{0, fullRangeTrace}, {0, fullRangeChaos}}
	for _, at := range arrivals(rng, rate, warmup, length) {
		if len(deck) == 0 {
			deck = append(deck, plans...)
			for i := 0; i < perDeck; i++ {
				deck = append(deck, docs[nextDoc%len(docs)])
				nextDoc++
			}
			rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		}
		out = append(out, httpReq{at, deck[0]})
		deck = deck[1:]
	}
	return out
}

// The two full-range plans: every trace partition, every chaos
// partition. They open each stream and are the cold-restart probes.
const (
	fullRangeTrace = "/api/query?from=2014-01&metric=median_rtt&to=2024-01"
	fullRangeChaos = "/api/query?from=2014-01&group_by=letter&metric=catchment_share&to=2024-01"
)

// Window lengths of one metric × group-by stratum: 12 of 1–6 months,
// 6 of 7–36 months, 2 over the full decade (60/30/10%), in that order.
var shapeWindows = []int{1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6, 7, 12, 18, 24, 30, 36, fullDecade, fullDecade}

const fullDecade = 121 // 2014-01..2024-01

// genPlans draws the plan pool: one plan per shapeWindows entry for
// each of the 13 metric × group-by pairs (letter grouping exists for
// catchment_share only). Per pair, 6 of the 20 carry a country filter,
// 5 of the percentile metrics' 20 a percentile, and 4 of
// catchment_share's a letter filter. What a plan costs depends on its
// window's length and place in the decade and on its filters (a filter
// on a full-decade asn plan cuts its answer from ~390 KB to a few), so
// all of these are stratified: lengths are fixed, each pair's 20 start
// months fall one in each twentieth of the decade, each filter lands
// on a fixed number of short, medium and full-decade windows, and
// countries are dealt from a shuffled deck holding every country
// equally often. The seed changes the plans; the pool's cost hardly
// moves.
func genPlans(rng *rand.Rand, countries []string) []string {
	metrics := []string{query.MetricMedianRTT, query.MetricHopCount, query.MetricReachability, query.MetricCatchmentShare}
	n := len(shapeWindows)
	// exactly returns a mask with short of the 12 short windows, medium
	// of the 6 medium ones and full of the 2 full-decade ones set,
	// shuffled within each class.
	exactly := func(short, medium, full int) []bool {
		m := make([]bool, n)
		for _, c := range []struct{ lo, hi, k int }{{0, 12, short}, {12, 18, medium}, {18, 20, full}} {
			class := m[c.lo:c.hi]
			for i := 0; i < c.k; i++ {
				class[i] = true
			}
			rng.Shuffle(len(class), func(i, j int) { class[i], class[j] = class[j], class[i] })
		}
		return m
	}
	var deck []string
	var out []string
	for _, metric := range metrics {
		groups := []string{query.GroupCountry, query.GroupASN, query.GroupNone}
		if metric == query.MetricCatchmentShare {
			groups = append(groups, query.GroupLetter)
		}
		pct := metric == query.MetricMedianRTT || metric == query.MetricHopCount
		for _, group := range groups {
			country, percentile, letter := exactly(4, 1, 1), exactly(3, 1, 1), exactly(2, 1, 1)
			bins := rng.Perm(n)
			for k, months := range shapeWindows {
				span := float64(fullDecade - months + 1)
				from := decadeFrom.Add(int((float64(bins[k]) + rng.Float64()) / float64(n) * span))
				v := url.Values{}
				v.Set("metric", metric)
				v.Set("group_by", group)
				v.Set("from", from.String())
				v.Set("to", from.Add(months-1).String())
				if country[k] {
					if len(deck) == 0 {
						deck = append(deck, countries...)
						rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
					}
					v.Set("country", deck[0])
					deck = deck[1:]
				}
				if pct && percentile[k] {
					v.Set("percentile", strconv.Itoa([]int{10, 25, 75, 90, 95, 99}[rng.Intn(6)]))
				}
				if metric == query.MetricCatchmentShare && group != query.GroupLetter && letter[k] {
					v.Set("letter", string(rune('A'+rng.Intn(13))))
				}
				out = append(out, "/api/query?"+v.Encode())
			}
		}
	}
	return out
}

// dnsSockets is how many UDP sockets the generator sends from.
const dnsSockets = 2

// genDNS builds the dns_mix stream: 50% CHAOS TXT hostname.bind.<l>
// and 30% IN A/AAAA <l>.root-servers.vz, both with a probe's ECS
// 10.x.y.z/32 over the whole fleet; 15% IN A/AAAA with the ECS of a
// random public /24 (the geo vantage path); 5% names the plane answers
// NXDOMAIN or REFUSED by design.
func genDNS(w *world.World, seed int64, rate float64, warmup, length time.Duration) []dnsReq {
	rng := rngFor(seed, streamDNS)
	fleet := w.Fleet.All()
	var out []dnsReq
	for i, at := range arrivals(rng, rate, warmup, length) {
		letter := string(rune('a' + rng.Intn(13)))
		probe := fleet[rng.Intn(len(fleet))].ID
		probeECS := &dnswire.ECS{Family: dnswire.ECSFamilyIPv4, SourcePrefix: 32, AddrLen: 4,
			Addr: [16]byte{10, byte(probe >> 16), byte(probe >> 8), byte(probe)}}
		addrType := []uint16{dnswire.TypeA, dnswire.TypeAAAA}[rng.Intn(2)]
		var q dnswire.Question
		var ecs *dnswire.ECS
		switch r := rng.Float64(); {
		case r < 0.5:
			q, ecs = dnswire.Question{Name: dnswire.HostnameBind + "." + letter, Type: dnswire.TypeTXT, Class: dnswire.ClassCH}, probeECS
		case r < 0.8:
			q, ecs = dnswire.Question{Name: letter + ".root-servers.vz", Type: addrType, Class: dnswire.ClassIN}, probeECS
		case r < 0.95:
			first := byte(11 + rng.Intn(112)) // 11..122: public unicast, clear of 10/8 and 127/8
			ecs = &dnswire.ECS{Family: dnswire.ECSFamilyIPv4, SourcePrefix: 24, AddrLen: 3,
				Addr: [16]byte{first, byte(rng.Intn(256)), byte(rng.Intn(256))}}
			q = dnswire.Question{Name: letter + ".root-servers.vz", Type: addrType, Class: dnswire.ClassIN}
		default:
			q = []dnswire.Question{
				{Name: "nx" + strconv.Itoa(rng.Intn(1000)) + ".root-servers.vz", Type: dnswire.TypeA, Class: dnswire.ClassIN},
				{Name: "example.com", Type: dnswire.TypeA, Class: dnswire.ClassIN},
				{Name: dnswire.HostnameBind + ".z", Type: dnswire.TypeTXT, Class: dnswire.ClassCH},
			}[rng.Intn(3)]
		}
		pkt, err := dnswire.EncodeQuery(uint16(i/dnsSockets), q)
		if err != nil {
			panic(err) // the names above are all well-formed
		}
		pkt = dnswire.AppendQueryOPT(pkt, dnswire.DefaultUDPSize, ecs)
		out = append(out, dnsReq{at, pkt})
	}
	return out
}

// genSpecs builds n distinct what-if specs: a depeer of one of CANTV's
// transit providers over a 6-month window starting at a quarter in
// 2016-01..2023-07, and on every fifth spec a remove_link of another
// provider's CANTV link over the same window. Specs are dealt
// round-robin over the eight years, so the prefix a run gets through
// covers the decade evenly whatever the seed. Every spec must compile
// against w, so no diff fails by construction.
func genSpecs(w *world.World, seed int64, n int) ([]*scenario.Spec, error) {
	type cand struct {
		from months.Month
		asn  bgp.ASN
	}
	rng := rngFor(seed, streamSpecs)
	byYear := map[int][]cand{}
	for m := months.New(2016, time.January); !months.New(2023, time.July).Before(m); m = m.Add(3) {
		for _, asn := range world.CANTVProvidersAt(m) {
			byYear[m.Year()] = append(byYear[m.Year()], cand{m, asn})
		}
	}
	for y := 2016; y <= 2023; y++ {
		cs := byYear[y]
		rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	}
	var cands []cand
	for len(cands) < n {
		dealt := false
		for y := 2016; y <= 2023; y++ {
			if cs := byYear[y]; len(cs) > 0 {
				cands, byYear[y], dealt = append(cands, cs[0]), cs[1:], true
			}
		}
		if !dealt {
			return nil, fmt.Errorf("only %d depeer candidates for %d specs", len(cands), n)
		}
	}
	specs := make([]*scenario.Spec, n)
	for i, c := range cands[:n] {
		from, until := c.from.String(), c.from.Add(6).String()
		ops := []scenario.Op{{Op: scenario.OpDepeer, ASN: uint32(c.asn), From: from, Until: until}}
		if i%5 == 4 {
			for _, other := range world.CANTVProvidersAt(c.from) {
				if other != c.asn {
					ops = append(ops, scenario.Op{Op: scenario.OpRemoveLink, A: uint32(other),
						B: uint32(world.ASCANTV), Kind: "p2c", From: from, Until: until})
					break
				}
			}
		}
		specs[i] = &scenario.Spec{ID: fmt.Sprintf("wi-%d", i), Ops: ops}
		if _, err := specs[i].Compile(w); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

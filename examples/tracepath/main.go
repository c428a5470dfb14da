// Tracepath prints traceroute-style hop listings toward Google Public
// DNS from vantage points that tell the paper's latency story: a CANTV
// subscriber in Caracas (no domestic replica — off to Miami), a
// border-town subscriber in San Cristobal (homed to Colombia — Bogota in
// a few milliseconds), and a Bogota subscriber for contrast.
//
//	go run ./examples/tracepath
package main

import (
	"fmt"
	"log"
	"time"

	"vzlens/internal/bgp"
	"vzlens/internal/geo"
	"vzlens/internal/months"
	"vzlens/internal/netsim"
	"vzlens/internal/world"
)

func main() {
	w, err := world.Build(world.Config{})
	if err != nil {
		log.Fatal(err)
	}
	m := months.New(2023, time.December)
	resolver := netsim.NewResolver(w.MonthTopology(m))
	sites := w.GPDNSSitesAt(m)

	vantage := []struct {
		label string
		asn   bgp.ASN
		iata  string
	}{
		{"CANTV subscriber, Caracas", world.ASCANTV, "CCS"},
		{"Viginet subscriber, San Cristobal (border)", 263703, "SCI"},
		{"Colombian subscriber, Bogota", w.Nets["CO"].Eyeballs[0], "BOG"},
	}
	for _, v := range vantage {
		city, _ := geo.LookupIATA(v.iata)
		site, _, err := resolver.CatchmentFrom(v.asn, city, sites, netsim.PolicyBGP)
		if err != nil {
			log.Fatalf("%s: %v", v.label, err)
		}
		hops, err := resolver.Trace(v.asn, city, site)
		if err != nil {
			log.Fatalf("%s: %v", v.label, err)
		}
		fmt.Printf("traceroute to 8.8.8.8 — %s (anycast replica: %s)\n", v.label, site.City.Name)
		fmt.Print(netsim.FormatTrace(hops))
		fmt.Println()
	}
}

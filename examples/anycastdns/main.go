// Anycastdns walks through the paper's root-DNS methodology end to end:
// the thirteen CHAOS TXT naming conventions, anycast catchment from
// Venezuelan vantage points, and the replica-count estimator — showing
// the country's regression from two domestic roots to none.
//
//	go run ./examples/anycastdns
package main

import (
	"fmt"
	"log"
	"time"

	"vzlens/internal/dnsroot"
	"vzlens/internal/geo"
	"vzlens/internal/months"
	"vzlens/internal/netsim"
	"vzlens/internal/world"
)

func main() {
	// 1. Every root letter encodes instance identity differently.
	fmt.Println("CHAOS TXT hostname.bind conventions (Bogota instance):")
	bog, _ := geo.LookupIATA("BOG")
	for _, letter := range dnsroot.Letters() {
		name := dnsroot.InstanceName(letter, bog, 1, dnsroot.EraClassic)
		site, err := dnsroot.ParseInstance(letter, name)
		if err != nil {
			fmt.Printf("  %s: %-35s (unparsed: %v)\n", letter, name, err)
			continue
		}
		fmt.Printf("  %s: %-35s -> %s, %s\n", letter, name, site.City, site.Country)
	}

	// 2. Catchment from a Venezuelan probe, before and after the
	// withdrawal of the Caracas instances.
	w, err := world.Build(world.Config{})
	if err != nil {
		log.Fatal(err)
	}
	ccs, _ := geo.LookupIATA("CCS")
	for _, snapshot := range []months.Month{
		months.New(2017, time.March),
		months.New(2023, time.June),
	} {
		resolver := netsim.NewResolver(w.MonthTopology(snapshot))
		sites, insts := w.RootSitesAt('L', snapshot)
		idx, latency, err := resolver.CatchmentIndex(world.ASCANTV, ccs, sites, netsim.PolicyBGP)
		if err != nil {
			fmt.Printf("\n%s: L root unreachable: %v\n", snapshot, err)
			continue
		}
		inst := insts[idx]
		fmt.Printf("\n%s: a CANTV probe in Caracas reaches L root %q\n",
			snapshot, inst.ChaosName(snapshot))
		fmt.Printf("  instance location: %s, %s (one-way ~%.1f ms)\n",
			inst.City.Name, inst.City.Country, latency)
	}

	// 3. The replica counts behind Figure 6 for Venezuela.
	fmt.Println("\nRoot replicas mapped to Venezuela over time:")
	campaign := w.ChaosCampaign()
	for _, m := range []months.Month{
		months.New(2016, time.February),
		months.New(2019, time.February),
		months.New(2021, time.February),
		months.New(2023, time.June),
	} {
		fmt.Printf("  %s: %d\n", m, campaign.SitesByCountry(m, "")["VE"])
	}
}

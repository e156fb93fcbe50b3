// Discovery: mediating heterogeneous service discovery (the Starlink
// lineage's other domain, extended here with application-level
// vocabulary translation).
//
// A UPnP control point multicasts SSDP M-SEARCH requests for
// "urn:schemas-upnp-org:service:Printer:1". The only registry on this
// network is an SLP Directory Agent that advertises
// "service:printer:lpr" — different middleware (HTTP-over-UDP text vs
// binary SLP) and a different service-type vocabulary. The Starlink
// mediator translates both: the maptype() vocabulary table plays the
// role the field-equivalence table plays in the photo case study.
//
// Run with: go run ./examples/discovery
package main

import (
	"fmt"
	"log"

	"starlink/internal/bind"
	"starlink/internal/casestudy"
	"starlink/internal/protocol/slp"
	"starlink/internal/protocol/ssdp"
	"starlink/starlink"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The SLP Directory Agent with two printers and a scanner.
	da, err := slp.NewDirectoryAgent("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer da.Close()
	da.Register("service:printer:lpr", slp.URLEntry{URL: "service:printer:lpr://laser.example:515", Lifetime: 300})
	da.Register("service:scanner:sane", slp.URLEntry{URL: "service:scanner:sane://flatbed.example", Lifetime: 300})
	fmt.Println("SLP Directory Agent (binary, UDP) at", da.Addr())

	// The discovery mediator: SSDP on color 1, SLP on color 2.
	slpBinder, err := bind.NewSLPBinder()
	if err != nil {
		return err
	}
	med, err := starlink.NewMediator(starlink.EngineConfig{
		Merged: casestudy.DiscoveryMediator(),
		Sides: map[int]*starlink.EngineSide{
			1: {Binder: &bind.SSDPBinder{}},
			2: {Binder: slpBinder, Target: da.Addr()},
		},
		Funcs: casestudy.DiscoveryFuncs(),
	})
	if err != nil {
		return err
	}
	if err := med.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer med.Close()
	fmt.Println("Starlink discovery mediator (UDP) at", med.Addr())
	fmt.Println()

	for _, urn := range []string{
		"urn:schemas-upnp-org:service:Printer:1",
		"urn:schemas-upnp-org:service:Scanner:1",
	} {
		fmt.Printf("SSDP M-SEARCH ST=%s\n", urn)
		responses, err := ssdp.Search(med.Addr(), urn, 1, 1)
		if err != nil {
			return err
		}
		for _, r := range responses {
			fmt.Printf("  200 OK  LOCATION=%s\n          USN=%s\n", r.Location, r.USN)
		}
	}
	return nil
}

package engine_test

import (
	"testing"

	"starlink/internal/bind"
	"starlink/internal/casestudy"
	"starlink/internal/engine"
	"starlink/internal/protocol/slp"
	"starlink/internal/protocol/ssdp"
)

// TestE10DiscoveryMediation extends the evaluation to the discovery
// domain of the Starlink lineage: a UPnP/SSDP client searches for
// "urn:schemas-upnp-org:service:Printer:1" while the only registry is an
// SLP Directory Agent advertising "service:printer:lpr". Middleware
// (HTTP-over-UDP vs binary SLP) AND vocabulary differ; the mediator
// resolves both, with the maptype() vocabulary table as the
// application-level model.
func TestE10DiscoveryMediation(t *testing.T) {
	da, err := slp.NewDirectoryAgent("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer da.Close()
	da.Register("service:printer:lpr", slp.URLEntry{
		URL: "service:printer:lpr://printer1.example:515", Lifetime: 300,
	})

	slpBinder, err := bind.NewSLPBinder()
	if err != nil {
		t.Fatal(err)
	}
	med, err := engine.New(engine.Config{
		Merged: casestudy.DiscoveryMediator(),
		Sides: map[int]*engine.Side{
			1: {Binder: &bind.SSDPBinder{}},
			2: {Binder: slpBinder, Target: da.Addr()},
		},
		Funcs: casestudy.DiscoveryFuncs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := med.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer med.Close()

	// The unmodified SSDP client searches through the mediator.
	responses, err := ssdp.Search(med.Addr(), "urn:schemas-upnp-org:service:Printer:1", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(responses) != 1 {
		t.Fatalf("responses = %+v", responses)
	}
	got := responses[0]
	if got.ST != "urn:schemas-upnp-org:service:Printer:1" {
		t.Errorf("ST = %q", got.ST)
	}
	if got.Location != "service:printer:lpr://printer1.example:515" {
		t.Errorf("Location = %q", got.Location)
	}
	if got.USN != "uuid:starlink-mediated::urn:schemas-upnp-org:service:Printer:1" {
		t.Errorf("USN = %q", got.USN)
	}

	// A second search on the same socket: the automaton restarted.
	responses, err = ssdp.Search(med.Addr(), "urn:schemas-upnp-org:service:Printer:1", 1, 1)
	if err != nil || len(responses) != 1 {
		t.Fatalf("second search: %v (%d)", err, len(responses))
	}
}

// TestDiscoveryUnmappedTypeFailsSession shows the vocabulary table is
// load-bearing: a search target with no SLP mapping cannot be mediated.
func TestDiscoveryUnmappedTypeFailsSession(t *testing.T) {
	da, err := slp.NewDirectoryAgent("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer da.Close()

	slpBinder, err := bind.NewSLPBinder()
	if err != nil {
		t.Fatal(err)
	}
	med, err := engine.New(engine.Config{
		Merged: casestudy.DiscoveryMediator(),
		Sides: map[int]*engine.Side{
			1: {Binder: &bind.SSDPBinder{}},
			2: {Binder: slpBinder, Target: da.Addr()},
		},
		Funcs: casestudy.DiscoveryFuncs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := med.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer med.Close()
	if _, err := ssdp.Search(med.Addr(), "urn:unmapped:thing", 1, 1); err == nil {
		t.Error("unmapped search target produced a response")
	}
}

package core_test

import (
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"starlink/internal/casestudy"
	"starlink/internal/core"
	"starlink/internal/protocol/httpwire"
	"starlink/internal/testutil"
)

func TestParseMediatorSpecDiscoverDirectives(t *testing.T) {
	spec, err := core.ParseMediatorSpec(`
merged Add+Plus
side 1 giop defs=AAdd server
side 2 soap path=/soap target=photos
# discovery may precede the backend it drives
discover photos via=slp agent=127.0.0.1:427 type=service:photos scope=CAMPUS refresh=2s debounce=5s min_ttl=1m max_churn=2
backend photos 10.0.0.1:80 10.0.0.2:80
backend orders 10.0.1.1:80
discover orders via=file path=/etc/starlink/orders.hosts
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Discover) != 2 {
		t.Fatalf("Discover = %+v", spec.Discover)
	}
	slp := spec.Discover[0]
	if slp.Backend != "photos" || slp.Via != "slp" || slp.Agent != "127.0.0.1:427" ||
		slp.Type != "service:photos" || slp.Scope != "CAMPUS" {
		t.Errorf("slp discover = %+v", slp)
	}
	if slp.Options.Refresh != 2*time.Second || slp.Options.Debounce != 5*time.Second ||
		slp.Options.MinTTL != time.Minute || slp.Options.MaxChurn != 2 {
		t.Errorf("slp tuning = %+v", slp)
	}
	file := spec.Discover[1]
	if file.Backend != "orders" || file.Via != "file" || file.Path != "/etc/starlink/orders.hosts" {
		t.Errorf("file discover = %+v", file)
	}

	// The ssdp and dns forms parse their own options.
	spec, err = core.ParseMediatorSpec(`
merged Add+Plus
side 1 giop defs=AAdd server
side 2 soap path=/soap target=a
backend a 10.0.0.1:80
backend b 10.0.0.2:80
discover a via=ssdp search=239.255.255.250:1900 st=urn:photos listen=0.0.0.0:1900 mx=2
discover b via=dns name=_photos._tcp.example.org
`)
	if err != nil {
		t.Fatal(err)
	}
	if d := spec.Discover[0]; d.Search != "239.255.255.250:1900" || d.ST != "urn:photos" ||
		d.SSDP.Listen != "0.0.0.0:1900" || d.SSDP.MX != 2 {
		t.Errorf("ssdp discover = %+v", d)
	}
	if d := spec.Discover[1]; d.Name != "_photos._tcp.example.org" {
		t.Errorf("dns discover = %+v", d)
	}
}

func TestParseMediatorSpecDiscoverErrors(t *testing.T) {
	head := "merged m\nside 1 giop server\nside 2 soap path=/s target=b\nbackend b 1.1.1.1:1\n"
	for _, line := range []string{
		"discover b",                                             // no options
		"discover b agent=x",                                     // missing via
		"discover b via=carrier-pigeon path=x",                   // unknown source
		"discover b via=slp type=service:x",                      // slp missing agent
		"discover b via=slp agent=1.1.1.1:427",                   // slp missing type
		"discover b via=ssdp st=urn:x",                           // ssdp missing search
		"discover b via=ssdp search=1.1.1.1:1900",                // ssdp missing st
		"discover b via=dns",                                     // dns missing name
		"discover b via=file",                                    // file missing path
		"discover b via=file path=x refresh=fast",                // bad duration
		"discover b via=file path=x debounce=-1s",                // negative duration
		"discover b via=file path=x min_ttl=0s",                  // zero duration
		"discover b via=file path=x max_churn=none",              // bad count
		"discover b via=file path=x mx=0",                        // bad mx
		"discover b via=file path=x bogus=1",                     // unknown option
		"discover b via=file path=x\ndiscover b via=file path=y", // duplicate per set
		"discover ghost via=file path=x",                         // undeclared backend
	} {
		_, err := core.ParseMediatorSpec(head + line)
		if !errors.Is(err, core.ErrSpec) {
			t.Errorf("ParseMediatorSpec(%q) err = %v, want ErrSpec", line, err)
			continue
		}
		var se *core.SpecError
		if !errors.As(err, &se) {
			t.Errorf("ParseMediatorSpec(%q) err %T is not a *SpecError", line, err)
			continue
		}
		if se.Directive != "discover" {
			t.Errorf("ParseMediatorSpec(%q) blamed directive %q", line, se.Directive)
		}
	}
	// The duplicate error names the first line.
	_, err := core.ParseMediatorSpec(head + "discover b via=file path=x\ndiscover b via=file path=y")
	if err == nil || !strings.Contains(err.Error(), "line 5") {
		t.Errorf("duplicate discover err = %v, want first-line reference", err)
	}
}

// TestDeployWithFileDiscovery drives the whole stack: a spec with a
// discover directive deploys, the reconciler follows the hosts file,
// and the admin endpoint serves /discovery.
func TestDeployWithFileDiscovery(t *testing.T) {
	hosts := filepath.Join(t.TempDir(), "photos.hosts")
	if err := os.WriteFile(hosts, []byte("127.0.0.1:9101\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := shippedModels(t)
	var err error
	m.Mediators["flickr-xmlrpc"], err = core.ParseMediatorSpec(casestudy.XMLRPCMediatorSpecDoc +
		"\nbackend photos 127.0.0.1:9101\n" +
		"discover photos via=file path=" + hosts + " refresh=10ms debounce=20ms min_ttl=30ms\n")
	if err != nil {
		t.Fatal(err)
	}
	dep, err := m.Deploy("flickr-xmlrpc", "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	snaps := dep.Mediator.Snapshot().Discovery
	if len(snaps) != 1 || snaps[0].Set != "photos" || !strings.HasPrefix(snaps[0].Source, "file://") {
		t.Fatalf("Snapshot().Discovery = %+v", snaps)
	}
	// A new endpoint in the file is admitted once the hysteresis
	// clears.
	if err := os.WriteFile(hosts, []byte("127.0.0.1:9101\n127.0.0.1:9102\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if snaps = dep.Mediator.Snapshot().Discovery; len(snaps[0].Members) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("endpoint never admitted: %+v", snaps)
		}
		time.Sleep(5 * time.Millisecond)
	}

	hc := &httpwire.Client{Addr: dep.Admin.Addr()}
	defer hc.Close()
	resp, err := hc.Get("/discovery")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || !strings.Contains(string(resp.Body), "\"set\": \"photos\"") {
		t.Errorf("/discovery = %d %s", resp.Status, resp.Body)
	}
	resp, err = hc.Get("/metrics")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"starlink_discovery_resolutions_total{set=\"photos\"}",
		"starlink_discovery_adds_total{set=\"photos\"} 1",
		"starlink_discovery_last_resolution_age_seconds{set=\"photos\"}",
	} {
		if !strings.Contains(string(resp.Body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestBuildMediatorDiscoverBadSource: a discover directive whose source
// cannot be constructed (missing hosts file) fails deployment with a
// spec error instead of limping along.
func TestBuildMediatorDiscoverBadSource(t *testing.T) {
	m := shippedModels(t)
	var err error
	m.Mediators["flickr-xmlrpc"], err = core.ParseMediatorSpec(casestudy.XMLRPCMediatorSpecDoc +
		"\nbackend photos 127.0.0.1:9101\n" +
		"discover photos via=file path=" + filepath.Join(t.TempDir(), "does-not-exist") + "\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Deploy("flickr-xmlrpc", "127.0.0.1:0", ""); !errors.Is(err, core.ErrSpec) {
		t.Fatalf("Deploy with missing hosts file err = %v, want ErrSpec", err)
	}
}

// TestBuildFailureReleasesDiscovery: a spec that cannot be deployed leaves
// nothing running. Two failures come after, or used to come after, a
// `discover` line's source is open — a listen address already taken, and a
// side whose binder cannot be built — and each goes through every entry
// point it can reach. The SSDP source with listen= holds a UDP socket and a
// goroutine, which is what a leak would show as.
func TestBuildFailureReleasesDiscovery(t *testing.T) {
	good := casestudy.XMLRPCMediatorSpecDoc + "backend spare 127.0.0.1:1\n" +
		"discover spare via=ssdp search=127.0.0.1:1900 st=urn:x listen=127.0.0.1:0\n"
	m := shippedModels(t)
	var err error
	if m.Mediators["good"], err = core.ParseMediatorSpec(good); err != nil {
		t.Fatal(err)
	}
	m.Mediators["nobinder"], err = core.ParseMediatorSpec(strings.Replace(good, "routes=picasa", "routes=missing", 1))
	if err != nil {
		t.Fatal(err)
	}
	for name, route := range map[string]string{"front": "good", "nofront": "nobinder"} {
		if m.Gateways[name], err = core.ParseGatewaySpec("route r " + route + "\n"); err != nil {
			t.Fatal(err)
		}
	}
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	busy := taken.Addr().String()
	for _, tt := range []struct {
		what, want string
		deploy     func() (io.Closer, error)
	}{
		{"Deploy on a taken address", "in use", func() (io.Closer, error) { return m.Deploy("good", busy, "") }},
		{"DeployGateway on a taken address", "in use", func() (io.Closer, error) { return m.DeployGateway("front", busy, "") }},
		{"Deploy without a binder", "route table", func() (io.Closer, error) { return m.Deploy("nobinder", "", "") }},
		{"BuildMediator without a binder", "route table", func() (io.Closer, error) { return m.BuildMediator(m.Mediators["nobinder"]) }},
		{"DeployGateway without a binder", "route table", func() (io.Closer, error) { return m.DeployGateway("nofront", "", "") }},
	} {
		testutil.NoLeaks(t, func() {
			d, err := tt.deploy()
			if err == nil {
				d.Close()
			}
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("%s: err = %v, want one about %q", tt.what, err, tt.want)
			}
		})
		if t.Failed() {
			t.Fatalf("%s: failed", tt.what)
		}
	}
}

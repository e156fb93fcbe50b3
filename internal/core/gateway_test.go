package core_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starlink/internal/casestudy"
	"starlink/internal/core"
	"starlink/internal/engine"
	"starlink/internal/protocol/giop"
	"starlink/internal/protocol/httpwire"
	"starlink/internal/protocol/soap"
	"starlink/internal/protocol/xmlrpc"
	"starlink/internal/services/photostore"
	"starlink/internal/services/picasa"
)

func TestParseGatewaySpec(t *testing.T) {
	spec, err := core.ParseGatewaySpec(`
# front door
listen 127.0.0.1:9000
admin 127.0.0.1:9090
sniff_bytes 128
sniff_timeout 250ms
route xmlrpc flickr-xmlrpc path=/services/xmlrpc payload=xml rate=100 burst=10 maxflows=32 deadline=750ms
route soap flickr-soap match=http path=/services/soap
route iiop add-giop match=giop
default soap
`)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Listen != "127.0.0.1:9000" || spec.Admin != "127.0.0.1:9090" || spec.Default != "soap" {
		t.Errorf("spec = %+v", spec)
	}
	if spec.SniffBytes != 128 || spec.SniffTimeout != 250*time.Millisecond {
		t.Errorf("sniff knobs = %d %v", spec.SniffBytes, spec.SniffTimeout)
	}
	if len(spec.Routes) != 3 {
		t.Fatalf("routes = %d", len(spec.Routes))
	}
	r := spec.Routes[0]
	if r.Name != "xmlrpc" || r.Mediator != "flickr-xmlrpc" || r.PathPrefix != "/services/xmlrpc" ||
		r.Payload != "xml" || r.Rate != 100 || r.Burst != 10 || r.MaxFlows != 32 ||
		r.Deadline != 750*time.Millisecond {
		t.Errorf("route[0] = %+v", r)
	}
	if spec.Routes[2].Match != "giop" {
		t.Errorf("route[2] = %+v", spec.Routes[2])
	}
}

func TestParseGatewaySpecErrors(t *testing.T) {
	cases := map[string]string{
		"no routes":          "listen 127.0.0.1:9000\n",
		"unknown directive":  "zap\n",
		"bad listen arity":   "listen\nroute a b\n",
		"dup listen":         "listen :1\nlisten :2\nroute a b\n",
		"dup admin":          "admin :1\nadmin :2\nroute a b\n",
		"dup default":        "route a b\ndefault a\ndefault a\n",
		"dup sniff_bytes":    "sniff_bytes 8\nsniff_bytes 9\nroute a b\n",
		"dup route name":     "route a b\nroute a c\n",
		"route arity":        "route a\n",
		"bad match":          "route a b match=ftp\n",
		"bad payload":        "route a b payload=yaml\n",
		"bad rate":           "route a b rate=-1\n",
		"NaN rate":           "route a b rate=NaN\n",
		"infinite rate":      "route a b rate=+Inf\n",
		"bad burst":          "route a b burst=zero\n",
		"bad maxflows":       "route a b maxflows=0\n",
		"bad deadline":       "route a b deadline=whenever\n",
		"zero deadline":      "route a b deadline=0s\n",
		"bad route option":   "route a b color=7\n",
		"bad sniff timeout":  "sniff_timeout soon\nroute a b\n",
		"undeclared default": "route a b\ndefault c\n",
		"option twice":       "route a m rate=1 rate=2 path=/x path=/y\n",
	}
	for name, doc := range cases {
		if _, err := core.ParseGatewaySpec(doc); !errors.Is(err, core.ErrGateway) {
			t.Errorf("%s: err = %v, want ErrGateway", name, err)
		}
	}
	// Duplicate-directive errors must name both lines.
	_, err := core.ParseGatewaySpec("listen :1\nroute a b\nlisten :2\n")
	if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("duplicate listen err = %v, want both lines named", err)
	}
	// A rate that is not a number is refused where it stands.
	var se *core.SpecError
	if _, err := core.ParseGatewaySpec("listen :1\nroute a b rate=NaN\n"); !errors.As(err, &se) || se.Line != 2 || se.Directive != "route" {
		t.Errorf("NaN rate err = %v, want a SpecError for line 2, directive route", err)
	}
	if _, err := core.ParseGatewaySpec("listen :1\nroute a m path=/x path=/y\n"); !errors.As(err, &se) || se.Line != 2 || se.Directive != "route" {
		t.Errorf("repeated option err = %v, want a SpecError for line 2, directive route", err)
	}
}

// TestParseMediatorSpecDuplicateDirectives is the regression test for
// the silent-last-wins bug: a spec repeating a single-valued directive
// used to keep only the later value, hiding typos; it must now be
// rejected with an error naming both lines.
func TestParseMediatorSpecDuplicateDirectives(t *testing.T) {
	base := "merged M\nside 1 soap path=/x server\n"
	for _, dup := range []string{
		"listen :1\nlisten :2\n",
		"merged Again\n",
		"typemap a\ntypemap b\n",
		"retries 1\nretries 2\n",
		"backoff 1ms\nbackoff 2ms\n",
		"max_backoff 1s\nmax_backoff 2s\n",
		"flow_deadline 1s\nflow_deadline 2s\n",
		"dialtimeout 1s\ndialtimeout 2s\n",
		"pool_size 1\npool_size 2\n",
		"pool_idle 1s\npool_idle off\n",
		"admin :1\nadmin :2\n",
	} {
		doc := base + dup
		_, err := core.ParseMediatorSpec(doc)
		if !errors.Is(err, core.ErrSpec) {
			t.Errorf("%q: err = %v, want ErrSpec", dup, err)
			continue
		}
		if !strings.Contains(err.Error(), "duplicate directive") {
			t.Errorf("%q: err = %v, want a duplicate-directive message", dup, err)
		}
	}
	// The error names the directive and both lines.
	_, err := core.ParseMediatorSpec("merged M\nlisten :1\nside 1 soap server\nlisten :2\n")
	for _, want := range []string{`"listen"`, "line 4", "line 2"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want it to mention %s", err, want)
		}
	}
	// Repeating multi-valued directives stays legal.
	spec, err := core.ParseMediatorSpec("merged M\nside 1 soap path=/x server\nside 2 rest routes=r target=:1\nhostmap a = :1\nhostmap b = :2\n")
	if err != nil {
		t.Fatalf("multi-valued repeats rejected: %v", err)
	}
	if len(spec.Sides) != 2 || len(spec.HostMap) != 2 {
		t.Errorf("spec = %+v", spec)
	}
}

// TestDeploymentCloseIdempotent is the regression test for Deployment
// teardown: Close twice, and Close after Shutdown, used to re-close
// the admin listener and surface a spurious "server closed" error.
func TestDeploymentCloseIdempotent(t *testing.T) {
	store := photostore.New()
	pic, err := picasa.New(store)
	if err != nil {
		t.Fatal(err)
	}
	defer pic.Close()

	m := caseStudyModels(t, pic.Addr())

	dep, err := m.Deploy("flickr-xmlrpc", "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Close(); err != nil {
		t.Errorf("first Close: %v", err)
	}
	if err := dep.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}

	dep2, err := m.Deploy("flickr-xmlrpc", "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := dep2.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if err := dep2.Close(); err != nil {
		t.Errorf("Close after Shutdown: %v", err)
	}
}

// TestDeployGatewayEndToEnd deploys the case-study gateway from the shipped
// models: an XML-RPC and a SOAP client reach their own mediators
// through ONE listener, distinguished by sniffing alone; the metrics
// endpoint exposes per-route counters; a hot reload swaps both
// mediators without breaking the next call.
func TestDeployGatewayEndToEnd(t *testing.T) {
	store := photostore.New()
	pic, err := picasa.New(store)
	if err != nil {
		t.Fatal(err)
	}
	defer pic.Close()

	m := caseStudyModels(t, pic.Addr())
	if m.Gateways["flickr"] == nil {
		t.Fatal("gateway spec not loaded from *.gateway file")
	}

	dep, err := m.DeployGateway("flickr", "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	addr := dep.Gateway.Addr()

	callXMLRPC := func() {
		t.Helper()
		c := xmlrpc.NewClient(addr, "/services/xmlrpc")
		defer c.Close()
		v, err := c.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{
			"text": "tree", "per_page": int64(1),
		})
		if err != nil {
			t.Fatalf("xmlrpc through gateway: %v", err)
		}
		if photos := v.(map[string]xmlrpc.Value)["photos"].([]xmlrpc.Value); len(photos) != 1 {
			t.Errorf("xmlrpc photos = %d", len(photos))
		}
	}
	callSOAP := func() {
		t.Helper()
		c := soap.NewClient(addr, "/services/soap")
		defer c.Close()
		results, err := c.Call(casestudy.FlickrSearch,
			soap.Param{Name: "api_key", Value: "k"},
			soap.Param{Name: "text", Value: "tree"},
			soap.Param{Name: "per_page", Value: "1"},
		)
		if err != nil {
			t.Fatalf("soap through gateway: %v", err)
		}
		if len(results) == 0 {
			t.Error("soap call returned nothing")
		}
	}
	callXMLRPC()
	callSOAP()

	hc := &httpwire.Client{Addr: dep.Admin.Addr()}
	defer hc.Close()
	resp, err := hc.Get("/metrics")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`starlink_gateway_accepted_total{route="soap"} 1`,
		`starlink_gateway_accepted_total{route="xmlrpc"} 1`,
		`starlink_gateway_sniffed_total{class="http"} 2`,
		`starlink_gateway_reloads_total{route="soap"} 0`,
	} {
		if !strings.Contains(string(resp.Body), want) {
			t.Errorf("metrics missing %q:\n%s", want, resp.Body)
		}
	}

	// Hot reload from freshly loaded models: both routes swap, and the
	// very next calls succeed on the new mediators.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := dep.Reload(ctx, caseStudyModels(t, pic.Addr())); err != nil {
		t.Fatalf("Reload: %v", err)
	}
	callXMLRPC()
	callSOAP()
	resp, err = hc.Get("/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp.Body), `starlink_gateway_reloads_total{route="xmlrpc"} 1`) {
		t.Errorf("reload counter missing:\n%s", resp.Body)
	}

	if err := dep.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := dep.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}

	if _, err := m.DeployGateway("missing", "", ""); !errors.Is(err, core.ErrGateway) {
		t.Errorf("missing gateway err = %v", err)
	}
}

// TestDeployGatewayBuildFailure: a route naming an unknown mediator
// must fail the whole deployment without leaking mediators.
func TestDeployGatewayBuildFailure(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "broken.gateway"),
		[]byte("route a no-such-mediator\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := core.LoadModels(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.DeployGateway("broken", "", ""); !errors.Is(err, core.ErrGateway) {
		t.Errorf("err = %v, want ErrGateway", err)
	}
}

// TestE14GatewayMultiplexSwapShed is experiment E14: THREE heterogeneous
// mediators (GIOP Add->SOAP Plus, XML-RPC Flickr->Picasa REST, SOAP
// Flickr->Picasa REST) deployed from models behind ONE front-door
// listener, clients of all three protocols routed purely by wire sniffing.
// Mid-soak the calculator route is hot-swapped onto a mediator built anew
// from the same models while a pinned client keeps invoking through the
// swap with zero lost flows, and the swapped-out mediator is then
// drained. A flow-cap shed phase checks that an over-limit IIOP client
// gets a protocol-correct GIOP system exception, fast, and the gateway's
// metrics endpoint is scraped for the per-route counters.
func TestE14GatewayMultiplexSwapShed(t *testing.T) {
	const flowCap = 8
	plus := startPlus(t)
	pic, err := picasa.New(photostore.New())
	if err != nil {
		t.Fatal(err)
	}
	defer pic.Close()
	m := caseStudyModels(t, pic.Addr())
	addPlusModels(t, m, plus.Addr(), "")
	m.Gateways["front"], err = core.ParseGatewaySpec(
		"route calc calc maxflows=" + strconv.Itoa(flowCap) + "\nroute xmlrpc flickr-xmlrpc\nroute soap flickr-soap\n")
	if err != nil {
		t.Fatal(err)
	}
	dep, err := m.DeployGateway("front", "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	addr := dep.Addr()

	// Soak: concurrent clients of all three protocols through the one
	// listener, while a pinned GIOP client invokes continuously and the
	// calc route is hot-swapped under it.
	var (
		oneShot, pinnedDone sync.WaitGroup
		pinned              atomic.Int64 // flows completed by the pinned client
		stop                = make(chan struct{})
	)
	pinnedDone.Add(1)
	go func() {
		defer pinnedDone.Done()
		client, err := giop.Dial(addr, "calc")
		if err != nil {
			t.Error(err)
			return
		}
		defer client.Close()
		for {
			select {
			case <-stop:
				return
			default:
			}
			results, err := client.Invoke("Add", giop.IntParam(20), giop.IntParam(22))
			if err != nil || results[0].ValueString() != "42" {
				t.Errorf("pinned client: Add = %v, %v", results, err)
				return
			}
			pinned.Add(1)
		}
	}()
	stopPinned := sync.OnceFunc(func() {
		close(stop)
		pinnedDone.Wait()
	})
	defer stopPinned()
	for i := 0; i < 4; i++ {
		oneShot.Add(2)
		go func() {
			defer oneShot.Done()
			c := xmlrpc.NewClient(addr, "/services/xmlrpc")
			defer c.Close()
			v, err := c.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{"text": "tree", "per_page": int64(1)})
			if err != nil {
				t.Errorf("xmlrpc client: %v", err)
			} else if photos := v.(map[string]xmlrpc.Value)["photos"].([]xmlrpc.Value); len(photos) != 1 {
				t.Errorf("xmlrpc photos = %d", len(photos))
			}
		}()
		go func() {
			defer oneShot.Done()
			c := soap.NewClient(addr, "/services/soap")
			defer c.Close()
			if _, err := c.Call(casestudy.FlickrSearch,
				soap.Param{Name: "api_key", Value: "k"},
				soap.Param{Name: "text", Value: "tree"},
				soap.Param{Name: "per_page", Value: "1"},
			); err != nil {
				t.Errorf("soap client: %v", err)
			}
		}()
	}
	defer oneShot.Wait()
	pinnedPast := func(n int64) func() bool { return func() bool { return pinned.Load() >= n } }

	// Hot swap mid-soak, with traffic in flight. Reload would swap and
	// drain in one call, and a drain harvests connections idle between
	// flows, the pinned client's among them; so the halves are called
	// apart here, as Reload calls them, with the drain after the client
	// has stopped.
	waitFor(t, "the pinned client's first flows", pinnedPast(5))
	calc2, err := m.BuildMediator(m.Mediators["calc"])
	if err != nil {
		t.Fatal(err)
	}
	defer calc2.Close()
	if err := calc2.StartDetached(); err != nil {
		t.Fatal(err)
	}
	old, err := dep.Gateway.Swap("calc", calc2)
	if err != nil {
		t.Fatal(err)
	}
	// The pinned client's established connection keeps flowing on the
	// swapped-out mediator; a fresh dial lands on the replacement.
	waitFor(t, "the pinned client's flows through the swap", pinnedPast(pinned.Load()+5))
	fresh, err := giop.Dial(addr, "calc")
	if err != nil {
		t.Fatal(err)
	}
	_, err = fresh.Invoke("Add", giop.IntParam(20), giop.IntParam(22))
	fresh.Close()
	if err != nil {
		t.Fatalf("fresh client after swap: %v", err)
	}
	if calc2.Snapshot().Stats.Flows == 0 {
		t.Fatal("replacement mediator served no flows after the swap")
	}
	stopPinned()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := old.Shutdown(ctx); err != nil {
		t.Fatalf("draining swapped-out mediator: %v", err)
	}
	oneShot.Wait()
	if t.Failed() {
		return
	}
	if st := old.(*engine.Mediator).Snapshot().Stats; st.Failures != 0 {
		t.Fatalf("old mediator failures = %d after drain, want 0", st.Failures)
	}

	// Shed phase: fill the calc route's flow cap with held connections,
	// then one more invocation must be refused with a GIOP system
	// exception — quickly, not by stalling.
	for i := 0; i < flowCap; i++ {
		c, err := giop.Dial(addr, "calc")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Invoke("Add", giop.IntParam(1), giop.IntParam(1)); err != nil {
			t.Fatalf("filling flow cap: %v", err)
		}
	}
	over, err := giop.Dial(addr, "calc")
	if err != nil {
		t.Fatal(err)
	}
	shedStart := time.Now()
	_, shedErr := over.Invoke("Add", giop.IntParam(1), giop.IntParam(1))
	shedLatency := time.Since(shedStart)
	over.Close()
	if shedErr == nil || !strings.Contains(shedErr.Error(), "over capacity") {
		t.Fatalf("over-cap invocation: %v, want the gateway's system exception", shedErr)
	}
	if shedLatency > 100*time.Millisecond {
		t.Errorf("shed reject took %v, want a cheap refusal", shedLatency)
	}

	hc := &httpwire.Client{Addr: dep.Admin.Addr()}
	defer hc.Close()
	resp, err := hc.Get("/metrics")
	if err != nil {
		t.Fatalf("scrape /metrics: %v", err)
	}
	for _, want := range []string{
		`starlink_gateway_reloads_total{route="calc"} 1`,
		`starlink_gateway_shed_total{route="calc"} 1`,
		`starlink_gateway_sniffed_total{class="giop"}`,
		`starlink_gateway_sniffed_total{class="http"}`,
	} {
		if !strings.Contains(string(resp.Body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	var accepted uint64
	for _, rt := range dep.Gateway.Stats().Routes {
		accepted += rt.Accepted
	}
	t.Logf("3 protocols, 1 listener: %d conns routed by sniffing, %d flows through hot swap, 1 shed in %v",
		accepted, pinned.Load(), shedLatency.Round(time.Microsecond))
}

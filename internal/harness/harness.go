// Package harness runs the paper-reproduction experiments end to end and
// reports their outcomes: each E-number matches the experiment index in
// DESIGN.md and the recorded results in EXPERIMENTS.md. The experiments
// assert behaviour, pass or fail; what mediation costs is measured by the
// benchmark in bench/. The benchharness command prints these.
package harness

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"starlink/internal/automata"
	"starlink/internal/bind"
	"starlink/internal/bridge"
	"starlink/internal/casestudy"
	"starlink/internal/engine"
	"starlink/internal/message"
	"starlink/internal/network"
	"starlink/internal/observe"
	"starlink/internal/protocol/giop"
	"starlink/internal/protocol/httpwire"
	"starlink/internal/protocol/rest"
	"starlink/internal/protocol/slp"
	"starlink/internal/protocol/soap"
	"starlink/internal/protocol/ssdp"
	"starlink/internal/protocol/xmlrpc"
	"starlink/internal/services/photostore"
	"starlink/internal/services/picasa"
)

// Result is one experiment's outcome.
type Result struct {
	// ID is the experiment identifier ("E1".."E19").
	ID string
	// Artifact names the paper table/figure reproduced.
	Artifact string
	// Detail summarises what was measured.
	Detail string
	// Err is non-nil when the experiment failed.
	Err error
}

// OK reports success.
func (r Result) OK() bool { return r.Err == nil }

// String renders one report line.
func (r Result) String() string {
	status := "OK"
	if r.Err != nil {
		status = "FAIL: " + r.Err.Error()
	}
	return fmt.Sprintf("%-4s %-28s %-60s %s", r.ID, r.Artifact, r.Detail, status)
}

// RunAll executes every experiment in order. E13 (tracer overhead) and
// E15 (γ translation cost) are not here: they are measurements, answered
// by the benchmark (bench/README.md) as observe.overhead_ratio and
// mtl.translate_mean_us.
func RunAll() []Result {
	return []Result{
		E1(), E2(), E3(), E4(), E5(), E6(), E7(), E8(), E9(), E10(), E11(), E12(), E14(), E16(), E17(), E18(), E19(),
	}
}

// E1 validates the Fig. 2 API usage automata.
func E1() Result {
	r := Result{ID: "E1", Artifact: "Fig.2 usage automata"}
	fl, pi := casestudy.FlickrUsage(), casestudy.PicasaUsage()
	if err := fl.Validate(); err != nil {
		r.Err = err
		return r
	}
	if err := pi.Validate(); err != nil {
		r.Err = err
		return r
	}
	r.Detail = fmt.Sprintf("AFlickr: %d ops, APicasa: %d ops", len(fl.Operations()), len(pi.Operations()))
	return r
}

// E2 merges the Fig. 2 automata automatically and checks the Fig. 3
// structure.
func E2() Result {
	r := Result{ID: "E2", Artifact: "Fig.3 merged automaton"}
	m, err := automata.Merge(casestudy.FlickrUsage(), casestudy.PicasaUsage(), automata.MergeOptions{
		Equiv: casestudy.Equivalence(),
	})
	if err != nil {
		r.Err = err
		return r
	}
	bic := len(m.BicoloredStates())
	r.Detail = fmt.Sprintf("%s, %d bicolored states, getInfo %s",
		m.Strength, bic, m.Pairings[1].Kind)
	if m.Strength != automata.StronglyMerged || bic != 6 {
		r.Err = fmt.Errorf("expected strongly merged with 6 bicolored states")
	}
	return r
}

// E3 round-trips GIOP messages through the binary MDL codec (Figs. 4-5).
func E3() Result {
	r := Result{ID: "E3", Artifact: "Fig.4/5 GIOP MDL"}
	codec, err := giop.NewCodec()
	if err != nil {
		r.Err = err
		return r
	}
	req := giop.NewRequest(7, "calc", "Add",
		[]*message.Field{giop.IntParam(20), giop.IntParam(22)})
	wire, err := codec.Compose(req)
	if err != nil {
		r.Err = err
		return r
	}
	back, err := codec.Parse(wire)
	if err != nil {
		r.Err = err
		return r
	}
	op, _ := back.GetString("Operation")
	p0, _ := back.GetInt("ParameterArray.Parameter[0]")
	p1, _ := back.GetInt("ParameterArray.Parameter[1]")
	r.Detail = fmt.Sprintf("%d-byte GIOPRequest round-trips; %s(%d,%d)", len(wire), op, p0, p1)
	if op != "Add" || p0 != 20 || p1 != 22 {
		r.Err = fmt.Errorf("round trip lost data")
	}
	return r
}

// plusOperation is the SOAP Plus service every Add/Plus experiment
// mediates to.
var plusOperation = map[string]soap.Operation{
	"Plus": func(params []soap.Param) ([]soap.Param, *soap.Fault) {
		x, _ := strconv.Atoi(findParam(params, "x"))
		y, _ := strconv.Atoi(findParam(params, "y"))
		return []soap.Param{{Name: "result", Value: strconv.Itoa(x + y)}}, nil
	},
}

// newAddMediator builds the Fig. 7/8 mediator — GIOP Add merged with and
// bound to SOAP Plus at target — lets the caller adjust the engine
// config, and starts it: on listen, or detached when listen is empty (a
// gateway hands it its connections).
func newAddMediator(listen, target string, tweak func(*engine.Config)) (*engine.Mediator, error) {
	merged, err := automata.Merge(casestudy.AddUsage(), casestudy.PlusUsage(), automata.MergeOptions{
		Equiv: casestudy.AddPlusEquivalence(),
	})
	if err != nil {
		return nil, err
	}
	giopBinder, err := bind.NewGIOPBinder("calc", casestudy.AddUsage().Messages)
	if err != nil {
		return nil, err
	}
	cfg := engine.Config{
		Merged: merged,
		Sides: map[int]*engine.Side{
			1: {Binder: giopBinder},
			2: {Binder: &bind.SOAPBinder{Path: "/soap"}, Target: target},
		},
		ExchangeTimeout: 5 * time.Second,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	med, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	if listen == "" {
		err = med.StartDetached()
	} else {
		err = med.Start(listen)
	}
	if err != nil {
		med.Close()
		return nil, err
	}
	return med, nil
}

// E4 runs the Fig. 7/8 Add/Plus scenario through an automatically merged
// and bound mediator.
func E4() Result {
	r := Result{ID: "E4", Artifact: "Fig.7/8 Add->Plus"}
	srv, err := soap.NewServer("127.0.0.1:0", "/soap", plusOperation)
	if err != nil {
		r.Err = err
		return r
	}
	defer srv.Close()
	med, err := newAddMediator("127.0.0.1:0", srv.Addr(), nil)
	if err != nil {
		r.Err = err
		return r
	}
	defer med.Close()
	client, err := giop.Dial(med.Addr(), "calc")
	if err != nil {
		r.Err = err
		return r
	}
	defer client.Close()
	results, err := client.Invoke("Add", giop.IntParam(20), giop.IntParam(22))
	if err != nil {
		r.Err = err
		return r
	}
	got := results[0].ValueString()
	r.Detail = "IIOP Add(20,22) answered by SOAP Plus = " + got
	if got != "42" {
		r.Err = fmt.Errorf("got %s, want 42", got)
	}
	return r
}

func findParam(params []soap.Param, name string) string {
	for _, p := range params {
		if p.Name == name {
			return p.Value
		}
	}
	return ""
}

// caseStudyEnv wires a Picasa service and an XML-RPC mediator.
type caseStudyEnv struct {
	store *photostore.Store
	pic   *picasa.Service
	med   *engine.Mediator
}

func (e *caseStudyEnv) close() {
	if e.med != nil {
		e.med.Close()
	}
	if e.pic != nil {
		e.pic.Close()
	}
}

func startCaseStudy() (*caseStudyEnv, error) {
	env := &caseStudyEnv{store: photostore.New()}
	pic, err := picasa.New(env.store)
	if err != nil {
		return nil, err
	}
	env.pic = pic
	routes, err := bind.ParseRoutes(casestudy.PicasaRoutesDoc)
	if err != nil {
		env.close()
		return nil, err
	}
	restBinder, err := bind.NewRESTBinder(routes)
	if err != nil {
		env.close()
		return nil, err
	}
	med, err := engine.New(engine.Config{
		Merged: casestudy.XMLRPCMediator(),
		Sides: map[int]*engine.Side{
			1: {Binder: &bind.XMLRPCBinder{Path: "/services/xmlrpc", Defs: casestudy.FlickrUsage().Messages}},
			2: {Binder: restBinder, Target: pic.Addr()},
		},
		HostMap: map[string]string{casestudy.PicasaHost: pic.Addr()},
	})
	if err != nil {
		env.close()
		return nil, err
	}
	if err := med.Start("127.0.0.1:0"); err != nil {
		env.close()
		return nil, err
	}
	env.med = med
	return env, nil
}

// E5 checks the Fig. 9 XML-RPC -> REST search binding.
func E5() Result {
	r := Result{ID: "E5", Artifact: "Fig.9 search binding"}
	env, err := startCaseStudy()
	if err != nil {
		r.Err = err
		return r
	}
	defer env.close()
	c := xmlrpc.NewClient(env.med.Addr(), "/services/xmlrpc")
	defer c.Close()
	v, err := c.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{"text": "tree", "per_page": int64(3)})
	if err != nil {
		r.Err = err
		return r
	}
	photos, _ := v.(map[string]xmlrpc.Value)["photos"].([]xmlrpc.Value)
	native := env.store.Search("tree", 3)
	r.Detail = fmt.Sprintf("mediated results %d == native %d", len(photos), len(native))
	if len(photos) != len(native) {
		r.Err = fmt.Errorf("result counts differ")
	}
	return r
}

// E6 checks the Fig. 10 getInfo-from-cache resolution.
func E6() Result {
	r := Result{ID: "E6", Artifact: "Fig.10 getInfo cache"}
	env, err := startCaseStudy()
	if err != nil {
		r.Err = err
		return r
	}
	defer env.close()
	c := xmlrpc.NewClient(env.med.Addr(), "/services/xmlrpc")
	defer c.Close()
	v, err := c.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{"text": "tree", "per_page": int64(1)})
	if err != nil {
		r.Err = err
		return r
	}
	photos := v.(map[string]xmlrpc.Value)["photos"].([]xmlrpc.Value)
	id := photos[0].(map[string]xmlrpc.Value)["id"].(string)
	v, err = c.Call(casestudy.FlickrGetInfo, map[string]xmlrpc.Value{"photo_id": id})
	if err != nil {
		r.Err = err
		return r
	}
	url, _ := v.(map[string]xmlrpc.Value)["url"].(string)
	want, _ := env.store.Get(id)
	r.Detail = "getInfo(" + id + ").url resolved from mediator cache"
	if url != want.URL {
		r.Err = fmt.Errorf("url %q != %q", url, want.URL)
	}
	return r
}

// E7 runs the full case study (all four operations) and confirms the
// protocol-only bridge fails on the same workload.
func E7() Result {
	r := Result{ID: "E7", Artifact: "§5.1 full case study"}
	env, err := startCaseStudy()
	if err != nil {
		r.Err = err
		return r
	}
	defer env.close()
	c := xmlrpc.NewClient(env.med.Addr(), "/services/xmlrpc")
	defer c.Close()
	id, err := fullFlow(c)
	if err != nil {
		r.Err = err
		return r
	}
	// Baseline: the direct bridge cannot serve this workload.
	routes, _ := bind.ParseRoutes(casestudy.PicasaRoutesDoc)
	restBinder, err := bind.NewRESTBinder(routes)
	if err != nil {
		r.Err = err
		return r
	}
	br := bridge.New(
		&bind.XMLRPCBinder{Path: "/services/xmlrpc", Defs: casestudy.FlickrUsage().Messages},
		restBinder, env.pic.Addr())
	if err := br.Start("127.0.0.1:0"); err != nil {
		r.Err = err
		return r
	}
	defer br.Close()
	bc := xmlrpc.NewClient(br.Addr(), "/services/xmlrpc")
	defer bc.Close()
	_, bridgeErr := bc.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{"text": "tree"})
	r.Detail = fmt.Sprintf("4/4 ops on %s; protocol-only bridge fails as predicted: %v",
		id, bridgeErr != nil)
	if bridgeErr == nil {
		r.Err = errors.New("bridge unexpectedly served heterogeneous applications")
	}
	return r
}

func fullFlow(c *xmlrpc.Client) (string, error) {
	v, err := c.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{"text": "tree", "per_page": int64(2)})
	if err != nil {
		return "", fmt.Errorf("search: %w", err)
	}
	photos := v.(map[string]xmlrpc.Value)["photos"].([]xmlrpc.Value)
	if len(photos) == 0 {
		return "", errors.New("search returned nothing")
	}
	id := photos[0].(map[string]xmlrpc.Value)["id"].(string)
	if _, err := c.Call(casestudy.FlickrGetInfo, map[string]xmlrpc.Value{"photo_id": id}); err != nil {
		return "", fmt.Errorf("getInfo: %w", err)
	}
	if _, err := c.Call(casestudy.FlickrGetComments, map[string]xmlrpc.Value{"photo_id": id}); err != nil {
		return "", fmt.Errorf("getComments: %w", err)
	}
	if _, err := c.Call(casestudy.FlickrAddComment, map[string]xmlrpc.Value{
		"photo_id": id, "comment_text": "harness comment",
	}); err != nil {
		return "", fmt.Errorf("addComment: %w", err)
	}
	return id, nil
}

// E8 measures mediation overhead against a native Picasa client.
func E8() Result {
	r := Result{ID: "E8", Artifact: "§5.2 overhead"}
	env, err := startCaseStudy()
	if err != nil {
		r.Err = err
		return r
	}
	defer env.close()

	// Native flow: what a Picasa client does directly (3 REST calls —
	// Picasa needs no getInfo, the URL is in the search feed).
	const rounds = 50
	native := rest.NewClient(env.pic.Addr())
	defer native.Close()
	start := time.Now()
	for i := 0; i < rounds; i++ {
		feed, err := native.Search("tree", 3)
		if err != nil {
			r.Err = err
			return r
		}
		id := feed.Entries[0].ID
		if _, err := native.Comments(id); err != nil {
			r.Err = err
			return r
		}
		// Write to a photo the read path never queries so iterations stay
		// independent (otherwise getComments re-serializes its own growth).
		if _, err := native.AddComment("photo-0008", "native"); err != nil {
			r.Err = err
			return r
		}
	}
	directPerFlow := time.Since(start) / rounds

	// Mediated flow: the Flickr client's 4 operations through Starlink.
	c := xmlrpc.NewClient(env.med.Addr(), "/services/xmlrpc")
	defer c.Close()
	start = time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := stableFlow(c); err != nil {
			r.Err = err
			return r
		}
	}
	mediatedPerFlow := time.Since(start) / rounds
	r.Detail = fmt.Sprintf("native 3-op flow %v; mediated 4-op flow %v (%.1fx)",
		directPerFlow.Round(time.Microsecond), mediatedPerFlow.Round(time.Microsecond),
		float64(mediatedPerFlow)/float64(directPerFlow))
	return r
}

// stableFlow is fullFlow with the comment written to a photo outside the
// "tree" result set, so repeated measurement flows stay independent.
func stableFlow(c *xmlrpc.Client) (string, error) {
	v, err := c.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{"text": "tree", "per_page": int64(2)})
	if err != nil {
		return "", fmt.Errorf("search: %w", err)
	}
	photos := v.(map[string]xmlrpc.Value)["photos"].([]xmlrpc.Value)
	id := photos[0].(map[string]xmlrpc.Value)["id"].(string)
	if _, err := c.Call(casestudy.FlickrGetInfo, map[string]xmlrpc.Value{"photo_id": id}); err != nil {
		return "", fmt.Errorf("getInfo: %w", err)
	}
	if _, err := c.Call(casestudy.FlickrGetComments, map[string]xmlrpc.Value{"photo_id": id}); err != nil {
		return "", fmt.Errorf("getComments: %w", err)
	}
	if _, err := c.Call(casestudy.FlickrAddComment, map[string]xmlrpc.Value{
		"photo_id": "photo-0008", "comment_text": "harness",
	}); err != nil {
		return "", fmt.Errorf("addComment: %w", err)
	}
	return id, nil
}

// E9 demonstrates API evolution absorbed by a one-line route-model edit.
func E9() Result {
	r := Result{ID: "E9", Artifact: "§5.2 evolution"}
	store := photostore.New()
	picV2, err := picasa.NewWithConfig(store, picasa.Config{SearchParam: "query", LimitParam: "limit"})
	if err != nil {
		r.Err = err
		return r
	}
	defer picV2.Close()

	v2Routes := `
route picasa.photos.search GET /data/feed/api/all query=q limit=max-results -> feed
route picasa.getComments GET /data/feed/api/photoid/{photo_id} kind=kind -> feed
route picasa.addComment POST /data/feed/api/photoid/{photo_id} body=entry -> entry
`
	routes, err := bind.ParseRoutes(v2Routes)
	if err != nil {
		r.Err = err
		return r
	}
	restBinder, err := bind.NewRESTBinder(routes)
	if err != nil {
		r.Err = err
		return r
	}
	med, err := engine.New(engine.Config{
		Merged: casestudy.XMLRPCMediator(),
		Sides: map[int]*engine.Side{
			1: {Binder: &bind.XMLRPCBinder{Path: "/services/xmlrpc", Defs: casestudy.FlickrUsage().Messages}},
			2: {Binder: restBinder, Target: picV2.Addr()},
		},
		HostMap: map[string]string{casestudy.PicasaHost: picV2.Addr()},
	})
	if err != nil {
		r.Err = err
		return r
	}
	if err := med.Start("127.0.0.1:0"); err != nil {
		r.Err = err
		return r
	}
	defer med.Close()
	c := xmlrpc.NewClient(med.Addr(), "/services/xmlrpc")
	defer c.Close()
	if _, err := fullFlow(c); err != nil {
		r.Err = err
		return r
	}
	r.Detail = "v2 API (query/limit) served after a 1-line route edit; code untouched"
	return r
}

// E10 extends the evaluation to the discovery domain: an SSDP client
// finds a printer registered only in an SLP Directory Agent, through a
// UDP mediator translating both middleware and vocabulary.
func E10() Result {
	r := Result{ID: "E10", Artifact: "discovery SSDP->SLP"}
	da, err := slp.NewDirectoryAgent("127.0.0.1:0")
	if err != nil {
		r.Err = err
		return r
	}
	defer da.Close()
	da.Register("service:printer:lpr", slp.URLEntry{
		URL: "service:printer:lpr://printer1.example:515", Lifetime: 300,
	})
	slpBinder, err := bind.NewSLPBinder()
	if err != nil {
		r.Err = err
		return r
	}
	med, err := engine.New(engine.Config{
		Merged: casestudy.DiscoveryMediator(),
		Sides: map[int]*engine.Side{
			1: {Binder: &bind.SSDPBinder{}, Net: network.Semantics{Transport: "udp"}},
			2: {Binder: slpBinder, Net: network.Semantics{Transport: "udp"}, Target: da.Addr()},
		},
		Funcs: casestudy.DiscoveryFuncs(),
	})
	if err != nil {
		r.Err = err
		return r
	}
	if err := med.Start("127.0.0.1:0"); err != nil {
		r.Err = err
		return r
	}
	defer med.Close()
	responses, err := ssdp.Search(med.Addr(), "urn:schemas-upnp-org:service:Printer:1", 1, 1)
	if err != nil {
		r.Err = err
		return r
	}
	r.Detail = "UPnP M-SEARCH answered from SLP registration: " + responses[0].Location
	if responses[0].Location != "service:printer:lpr://printer1.example:515" {
		r.Err = errors.New("wrong location")
	}
	return r
}

// E11 exercises the fault-tolerance path under realistic conditions:
// the Fig. 7/8 Add->Plus deployment where the SOAP service is stopped
// and restarted on the same address between invocations of one live
// client session. The mediator must detect the dead cached connection,
// redial and replay so the client's second call still succeeds.
func E11() Result {
	r := Result{ID: "E11", Artifact: "fault-tolerant session"}
	srv, err := soap.NewServer("127.0.0.1:0", "/soap", plusOperation)
	if err != nil {
		r.Err = err
		return r
	}
	addr := srv.Addr()
	med, err := newAddMediator("127.0.0.1:0", addr, func(cfg *engine.Config) {
		cfg.ExchangeTimeout = 2 * time.Second
		cfg.Retry = &engine.RetryPolicy{
			Attempts: engine.DefaultRetryAttempts,
			Backoff:  5 * time.Millisecond,
		}
	})
	if err != nil {
		srv.Close()
		r.Err = err
		return r
	}
	defer med.Close()
	client, err := giop.Dial(med.Addr(), "calc")
	if err != nil {
		srv.Close()
		r.Err = err
		return r
	}
	defer client.Close()
	if _, err := client.Invoke("Add", giop.IntParam(1), giop.IntParam(2)); err != nil {
		srv.Close()
		r.Err = err
		return r
	}
	// Kill the service and bring it back on the same address.
	srv.Close()
	restarted, err := soap.NewServer(addr, "/soap", plusOperation)
	if err != nil {
		r.Err = fmt.Errorf("rebind %s: %w", addr, err)
		return r
	}
	defer restarted.Close()
	results, err := client.Invoke("Add", giop.IntParam(20), giop.IntParam(22))
	if err != nil {
		r.Err = fmt.Errorf("flow after service restart: %w", err)
		return r
	}
	got := results[0].ValueString()
	st := med.Stats()
	r.Detail = fmt.Sprintf("service restarted mid-session; Add(20,22)=%s after %d redial(s)", got, st.Redials)
	switch {
	case got != "42":
		r.Err = fmt.Errorf("got %s, want 42", got)
	case st.Redials == 0:
		r.Err = errors.New("recovery did not redial")
	case st.Failures != 0:
		r.Err = fmt.Errorf("failures = %d, want 0", st.Failures)
	}
	return r
}

// E12 measures the shared service-side connection pool under concurrent
// sessions and the graceful-drain lifecycle — now soaked with the full
// observability subsystem attached: two waves of parallel IIOP clients
// run through one instrumented mediator (flow tracer + flight recorder
// + admin endpoint), one deliberately bad request exercises the flight
// recorder, the admin routes are scraped over the wire, and the
// mediator is then retired with Shutdown rather than Close.
func E12() Result {
	r := Result{ID: "E12", Artifact: "concurrent pool + admin"}
	srv, err := soap.NewServer("127.0.0.1:0", "/soap", plusOperation)
	if err != nil {
		r.Err = err
		return r
	}
	defer srv.Close()
	var obs *observe.Observer
	med, err := newAddMediator("127.0.0.1:0", srv.Addr(), func(cfg *engine.Config) {
		cfg.Retry = &engine.RetryPolicy{Attempts: 2, Backoff: 5 * time.Millisecond}
		obs = observe.Instrument(cfg, observe.Options{})
	})
	if err != nil {
		r.Err = err
		return r
	}
	defer med.Close()
	admin, err := observe.ServeAdmin("127.0.0.1:0", observe.AdminConfig{
		Registry: observe.MediatorRegistry(med, obs),
		Observer: obs,
		Mediator: med,
	})
	if err != nil {
		r.Err = err
		return r
	}
	defer admin.Close()

	const waves, perWave = 2, 8
	for wave := 0; wave < waves; wave++ {
		var wg sync.WaitGroup
		errs := make(chan error, perWave)
		for i := 0; i < perWave; i++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				client, err := giop.Dial(med.Addr(), "calc")
				if err != nil {
					errs <- err
					return
				}
				defer client.Close()
				results, err := client.Invoke("Add", giop.IntParam(int64(n)), giop.IntParam(int64(n)))
				if err != nil {
					errs <- err
					return
				}
				if got := results[0].ValueString(); got != strconv.Itoa(2*n) {
					errs <- fmt.Errorf("Add(%d,%d) = %s", n, n, got)
				}
			}(i + 1)
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			r.Err = err
			return r
		}
		// Between waves every session has ended; the next wave's checkouts
		// must hit the idle pool instead of dialling.
		time.Sleep(20 * time.Millisecond)
	}

	// One deliberately bad request: Bogus parses as GIOP but is not an
	// action the automaton accepts, so the flow fails and the flight
	// recorder captures its wire image.
	bad, err := giop.Dial(med.Addr(), "calc")
	if err != nil {
		r.Err = err
		return r
	}
	if _, err := bad.Invoke("Bogus", giop.IntParam(1)); err == nil {
		bad.Close()
		r.Err = errors.New("bogus invocation unexpectedly succeeded")
		return r
	}
	bad.Close()

	// Scrape the admin endpoint over the wire.
	hc := &httpwire.Client{Addr: admin.Addr()}
	defer hc.Close()
	metricsResp, err := hc.Get("/metrics")
	if err != nil {
		r.Err = fmt.Errorf("scrape /metrics: %w", err)
		return r
	}
	if !strings.Contains(string(metricsResp.Body), "starlink_flows_total") {
		r.Err = errors.New("/metrics missing starlink_flows_total")
		return r
	}
	flowsResp, err := hc.Get("/flows")
	if err != nil {
		r.Err = fmt.Errorf("scrape /flows: %w", err)
		return r
	}
	if !strings.Contains(string(flowsResp.Body), "Bogus") {
		r.Err = errors.New("/flows does not show the recorded failure's wire image")
		return r
	}
	dotResp, err := hc.Get("/automaton.dot")
	if err != nil {
		r.Err = fmt.Errorf("scrape /automaton.dot: %w", err)
		return r
	}
	if !strings.Contains(string(dotResp.Body), "digraph") {
		r.Err = errors.New("/automaton.dot is not a DOT document")
		return r
	}

	st := med.Stats()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := med.Shutdown(ctx); err != nil {
		r.Err = fmt.Errorf("graceful shutdown: %w", err)
		return r
	}
	r.Detail = fmt.Sprintf("%d sessions, %d dial(s), %d pool hit(s); admin served metrics+flows+dot; drained",
		st.Sessions, st.PoolDials, st.PoolHits)
	switch {
	case st.Sessions != waves*perWave+1: // +1 for the injected-fault session
		r.Err = fmt.Errorf("sessions = %d, want %d", st.Sessions, waves*perWave+1)
	case st.PoolDials >= st.Sessions:
		r.Err = fmt.Errorf("pool dials = %d, not below sessions = %d", st.PoolDials, st.Sessions)
	case st.PoolHits == 0:
		r.Err = errors.New("no pool hits: connections not reused across sessions")
	case st.Failures != 1:
		r.Err = fmt.Errorf("failures = %d, want the 1 injected fault", st.Failures)
	case obs.Recorder().Len() == 0:
		r.Err = errors.New("flight recorder is empty after the injected fault")
	}
	return r
}

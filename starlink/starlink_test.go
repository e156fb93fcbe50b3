package starlink_test

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"starlink/internal/automata"
	"starlink/internal/backend"
	"starlink/internal/bind"
	"starlink/internal/casestudy"
	"starlink/internal/core"
	"starlink/internal/engine"
	"starlink/internal/mdl"
	"starlink/internal/observe"
	"starlink/internal/protocol/giop"
	"starlink/internal/protocol/soap"
	modelfiles "starlink/models"
	"starlink/starlink"
)

func TestPublicMergeAndTypes(t *testing.T) {
	merged, err := starlink.Merge(casestudy.AddUsage(), casestudy.PlusUsage(), starlink.MergeOptions{
		Name:  "Add+Plus",
		Equiv: starlink.NewEquivalence([2]string{"z", "result"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Strength != automata.StronglyMerged {
		t.Errorf("strength = %v", merged.Strength)
	}
	data, err := merged.EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	back, err := automata.UnmarshalMerged(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "Add+Plus" {
		t.Errorf("name = %q", back.Name)
	}
}

func TestPublicParsers(t *testing.T) {
	if _, err := mdl.ParseString(casestudy.GIOPMDLDoc); err != nil {
		t.Errorf("ParseMDL: %v", err)
	}
	if _, err := starlink.ParseMTL(`a.Msg.x = 1`); err != nil {
		t.Errorf("ParseMTL: %v", err)
	}
	routes, err := starlink.ParseRoutes(casestudy.PicasaRoutesDoc)
	if err != nil || len(routes) != 3 {
		t.Errorf("ParseRoutes: %v, %d", err, len(routes))
	}
	doc, err := modelfiles.FS.ReadFile("flickr-usage.automaton.xml")
	if err != nil {
		t.Fatal(err)
	}
	a, err := automata.ParseAutomaton(string(doc))
	if err != nil || a.Name != "AFlickr" {
		t.Errorf("ParseAutomaton: %v, %v", err, a)
	}
}

// TestPublicLoadModels: the directory and the embedded files load to the
// same set through the facade.
func TestPublicLoadModels(t *testing.T) {
	fromDir, err := starlink.LoadModels("../models")
	if err != nil {
		t.Fatal(err)
	}
	fromFS, err := starlink.LoadModelsFS(modelfiles.FS)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*starlink.Models{fromDir, fromFS} {
		if m.Automata["APicasa"] == nil || len(m.Routes["picasa"]) != 3 {
			t.Error("models not loaded")
		}
	}
}

func TestPublicActionsRender(t *testing.T) {
	if automata.Send.String() != "!" || automata.Receive.String() != "?" {
		t.Error("action notation")
	}
	m, err := starlink.Merge(casestudy.FlickrUsage(), casestudy.PicasaUsage(), starlink.MergeOptions{
		Equiv: casestudy.Equivalence(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.DOT(), "digraph") {
		t.Error("DOT export broken through the public surface")
	}
}

func TestPublicModelParsers(t *testing.T) {
	eq, err := core.ParseEquivalence("a = b\n")
	if err != nil || !eq.Equivalent("a", "b") {
		t.Errorf("ParseEquivalence: %v", err)
	}
	tm, err := core.ParseTypeMap("jpeg = image/jpeg\n")
	if err != nil || tm["jpeg"] != "image/jpeg" {
		t.Errorf("ParseTypeMap: %v, %v", err, tm)
	}
	spec, err := starlink.ParseMediatorSpec(
		"merged x\nside 1 xmlrpc path=/x server\npool_size 4\npool_idle off\n")
	if err != nil || spec.Engine.PoolSize != 4 || spec.Engine.PoolIdle >= 0 {
		t.Errorf("ParseMediatorSpec: %v, %+v", err, spec)
	}
	if _, err := starlink.ParseMediatorSpec("merged x\nside 1 xmlrpc\npool_size nope"); err == nil ||
		!strings.Contains(err.Error(), `directive "pool_size"`) {
		t.Errorf("spec error does not name the directive: %v", err)
	}
}

// TestPublicLifecycleAndMetrics exercises the lifecycle API through the
// facade: sentinel-free retry policy, pool knobs, graceful Shutdown, and
// the Snapshot metrics view.
func TestPublicLifecycleAndMetrics(t *testing.T) {
	models := core.NewModels()
	models.Automata["AAdd"] = casestudy.AddUsage()
	models.Automata["APlus"] = casestudy.PlusUsage()
	models.Equivalences["add-plus"] = casestudy.AddPlusEquivalence()
	merged := models.MustMerge("AAdd", "APlus", "add-plus", "Add+Plus")

	giopBinder, err := bind.NewGIOPBinder("calc", casestudy.AddUsage().Messages)
	if err != nil {
		t.Fatal(err)
	}
	med, err := starlink.NewMediator(starlink.EngineConfig{
		Merged: merged,
		Sides: map[int]*starlink.EngineSide{
			1: {Binder: giopBinder},
			2: {Binder: &bind.SOAPBinder{Path: "/soap"}, Target: "127.0.0.1:1"},
		},
		Retry:    &engine.RetryPolicy{Attempts: 1, Backoff: time.Millisecond},
		PoolSize: 2,
		PoolIdle: engine.DefaultPoolIdle,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := med.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	var snap starlink.Snapshot = med.Snapshot()
	if snap.Stats.Sessions != 0 || snap.Transitions.Count != 0 {
		t.Errorf("fresh snapshot not empty: %+v", snap.Stats)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := med.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown = %v", err)
	}
}

// TestPublicObservability smoke-tests the observability surface around a
// facade-built mediator: Instrument on its EngineConfig, metrics registry,
// flight recorder and admin endpoint, with the declarative "admin"
// directive alongside.
func TestPublicObservability(t *testing.T) {
	merged, err := starlink.Merge(casestudy.AddUsage(), casestudy.PlusUsage(), starlink.MergeOptions{
		Name:  "Add+Plus",
		Equiv: casestudy.AddPlusEquivalence(),
	})
	if err != nil {
		t.Fatal(err)
	}
	giopBinder, err := bind.NewGIOPBinder("calc", casestudy.AddUsage().Messages)
	if err != nil {
		t.Fatal(err)
	}
	cfg := starlink.EngineConfig{
		Merged: merged,
		Sides: map[int]*starlink.EngineSide{
			1: {Binder: giopBinder},
			2: {Binder: &bind.SOAPBinder{Path: "/soap"}, Target: "127.0.0.1:1"},
		},
	}
	var obs *starlink.Observer = observe.Instrument(&cfg, observe.Options{})
	sink := cfg.Trace // Instrument made the Observer the engine's one sink
	sink(engine.TraceEvent{Session: 1, Kind: engine.TraceFlowStart, Time: time.Now()})
	sink(engine.TraceEvent{Session: 1, Kind: engine.TraceFlowEnd, Time: time.Now()})
	var flows []*observe.FlowTrace = obs.Flows()
	if len(flows) != 1 {
		t.Fatalf("flows = %d", len(flows))
	}
	var root *observe.Span = flows[0].Root
	if root == nil || root.Kind != "flow" {
		t.Errorf("root span = %+v", root)
	}
	var rec *observe.Recorder = obs.Recorder()
	if rec.Len() != 0 {
		t.Errorf("recorder len = %d", rec.Len())
	}

	med, err := starlink.NewMediator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := med.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer med.Close()
	var reg *observe.Registry = observe.MediatorRegistry(med, obs)
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "starlink_sessions_total 0") {
		t.Errorf("registry output:\n%s", b.String())
	}
	admin, err := observe.ServeAdmin("127.0.0.1:0", observe.AdminConfig{
		Registry: reg, Observer: obs, Mediator: med,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	if admin.Addr() == "" {
		t.Error("admin has no address")
	}

	spec, err := starlink.ParseMediatorSpec(
		"merged x\nside 1 xmlrpc path=/x server\nadmin 127.0.0.1:9090\n")
	if err != nil || spec.Admin != "127.0.0.1:9090" {
		t.Errorf("admin directive: %v, %+v", err, spec)
	}
}

// TestPublicCacheDirectives pins the *.mediator caching grammar through
// the facade: cacheable (with ttl and vary), invalidates, cache_size
// and cache_shards.
func TestPublicCacheDirectives(t *testing.T) {
	spec, err := starlink.ParseMediatorSpec(`
merged x
side 1 xmlrpc path=/x server
cacheable catalog.search ttl=30s vary=query,limit
cacheable catalog.get ttl=1m
invalidates orders.create catalog.search,catalog.get
cache_size 4096
cache_shards 16
`)
	if err != nil {
		t.Fatal(err)
	}
	rule := spec.Engine.Cache.Rules["catalog.search"]
	if rule.TTL != 30*time.Second || len(rule.Vary) != 2 || rule.Vary[0] != "query" {
		t.Errorf("catalog.search rule = %+v", rule)
	}
	if spec.Engine.Cache.Rules["catalog.get"].TTL != time.Minute {
		t.Errorf("catalog.get rule = %+v", spec.Engine.Cache.Rules["catalog.get"])
	}
	if got := spec.Engine.Cache.Invalidates["orders.create"]; len(got) != 2 || got[1] != "catalog.get" {
		t.Errorf("invalidates = %v", got)
	}
	if spec.Engine.Cache.MaxEntries != 4096 || spec.Engine.Cache.Shards != 16 {
		t.Errorf("cache_size/cache_shards = %d/%d", spec.Engine.Cache.MaxEntries, spec.Engine.Cache.Shards)
	}

	for name, doc := range map[string]string{
		"missing ttl":       "merged x\nside 1 xmlrpc server\ncacheable op vary=a",
		"bad ttl":           "merged x\nside 1 xmlrpc server\ncacheable op ttl=soon",
		"zero ttl":          "merged x\nside 1 xmlrpc server\ncacheable op ttl=0s",
		"undeclared target": "merged x\nside 1 xmlrpc server\ninvalidates w missing.op",
		"bad size":          "merged x\nside 1 xmlrpc server\ncache_size -3",
	} {
		if _, err := starlink.ParseMediatorSpec(doc); !errors.Is(err, core.ErrSpec) {
			t.Errorf("%s: err = %v, want ErrSpec", name, err)
		}
	}
}

// TestPublicSpecError pins the typed spec error: errors.As exposes
// line, directive and message for both parsers, and the sentinels stay
// matchable through the wrapper.
func TestPublicSpecError(t *testing.T) {
	_, err := starlink.ParseMediatorSpec("merged x\nside 1 xmlrpc server\nbogus y\n")
	var se *core.SpecError
	if !errors.As(err, &se) {
		t.Fatalf("not a SpecError: %v", err)
	}
	if se.Line != 3 || se.Directive != "bogus" || se.Msg != "unknown directive" {
		t.Errorf("SpecError = %+v", se)
	}
	if !errors.Is(err, core.ErrSpec) {
		t.Errorf("mediator spec error does not match ErrSpec: %v", err)
	}

	_, err = starlink.ParseGatewaySpec("listen :0\nroute x path=/x\ndefault y\n")
	se = nil
	if !errors.As(err, &se) {
		t.Fatalf("gateway error not a SpecError: %v", err)
	}
	if se.Directive != "default" {
		t.Errorf("gateway SpecError = %+v", se)
	}
	if !errors.Is(err, core.ErrGateway) || !errors.Is(err, core.ErrSpec) {
		t.Errorf("gateway spec error sentinels: %v", err)
	}

	// A whole-document problem carries no line or directive.
	_, err = starlink.ParseMediatorSpec("side 1 xmlrpc server\n")
	se = nil
	if !errors.As(err, &se) || se.Line != 0 || se.Directive != "" {
		t.Errorf("whole-document SpecError = %+v (%v)", se, err)
	}
}

// TestPublicDeployFacade drives starlink.Deploy end to end: an
// in-memory model set with a spec-declared cacheable operation is
// deployed behind the unified Deployment interface, served through,
// snapshotted and gracefully shut down.
func TestPublicDeployFacade(t *testing.T) {
	var ops int
	srv, err := soap.NewServer("127.0.0.1:0", "/soap", map[string]soap.Operation{
		"Plus": func(params []soap.Param) ([]soap.Param, *soap.Fault) {
			ops++
			x, _ := strconv.Atoi(params[0].Value)
			y, _ := strconv.Atoi(params[1].Value)
			return []soap.Param{{Name: "result", Value: strconv.Itoa(x + y)}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	models := core.NewModels()
	models.Automata["AAdd"] = casestudy.AddUsage()
	models.Automata["APlus"] = casestudy.PlusUsage()
	models.Equivalences["add-plus"] = casestudy.AddPlusEquivalence()
	models.MustMerge("AAdd", "APlus", "add-plus", "Add+Plus")
	spec, err := starlink.ParseMediatorSpec(`
merged Add+Plus
side 1 giop objectkey=calc defs=AAdd server
side 2 soap path=/soap target=` + srv.Addr() + `
cacheable Plus ttl=1m
`)
	if err != nil {
		t.Fatal(err)
	}
	models.Mediators["addplus"] = spec

	var dep starlink.Deployment
	dep, err = starlink.Deploy("addplus", models, starlink.DeployOptions{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	client, err := giop.Dial(dep.Addr(), "calc")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 3; i++ {
		results, err := client.Invoke("Add", giop.IntParam(20), giop.IntParam(22))
		if err != nil {
			t.Fatal(err)
		}
		if results[0].ValueString() != "42" {
			t.Errorf("Add = %s", results[0].ValueString())
		}
	}
	if ops != 1 {
		t.Errorf("service exchanges = %d, want 1 (spec-declared cacheable)", ops)
	}
	snap := dep.Snapshot()
	if snap.Kind != "mediator" {
		t.Errorf("snapshot kind = %q", snap.Kind)
	}
	ms, ok := snap.Mediators["addplus"]
	if !ok || ms.Stats.CacheHits != 2 || ms.Stats.CacheMisses != 1 {
		t.Errorf("snapshot stats = %+v", ms.Stats)
	}

	// The concrete deployment stays reachable for callers that need the
	// mediator-specific surface.
	if md, ok := dep.(*starlink.MediatorDeployment); !ok || md.Mediator == nil {
		t.Errorf("deployment does not assert to *MediatorDeployment: %T", dep)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := dep.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown = %v", err)
	}

	if _, err := starlink.Deploy("nope", models, starlink.DeployOptions{}); !errors.Is(err, core.ErrSpec) {
		t.Errorf("unknown spec err = %v, want ErrSpec", err)
	}
}

// TestPublicBackendDirectives drives the *.mediator backend grammar
// through the facade end to end: a two-replica set declared in the
// spec is deployed with starlink.Deploy, churning sessions spread
// across both replicas, and the health view is reachable through the
// deployment's mediator.
func TestPublicBackendDirectives(t *testing.T) {
	newPlus := func() (*soap.Server, error) {
		return soap.NewServer("127.0.0.1:0", "/soap", map[string]soap.Operation{
			"Plus": func(params []soap.Param) ([]soap.Param, *soap.Fault) {
				x, _ := strconv.Atoi(params[0].Value)
				y, _ := strconv.Atoi(params[1].Value)
				return []soap.Param{{Name: "result", Value: strconv.Itoa(x + y)}}, nil
			},
		})
	}
	a, err := newPlus()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := newPlus()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	models := core.NewModels()
	models.Automata["AAdd"] = casestudy.AddUsage()
	models.Automata["APlus"] = casestudy.PlusUsage()
	models.Equivalences["add-plus"] = casestudy.AddPlusEquivalence()
	models.MustMerge("AAdd", "APlus", "add-plus", "Add+Plus")
	spec, err := starlink.ParseMediatorSpec(`
merged Add+Plus
side 1 giop objectkey=calc defs=AAdd server
side 2 soap path=/soap target=plus
backend plus ` + a.Addr() + ` ` + b.Addr() + `
balance plus roundrobin
eject plus fails=2 cooloff=500ms min_live=1
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Backends) != 1 || spec.Backends[0].Name != "plus" || spec.Backends[0].Options.FailThreshold != 2 {
		t.Fatalf("parsed backends = %+v", spec.Backends)
	}
	models.Mediators["addplus"] = spec

	dep, err := starlink.Deploy("addplus", models, starlink.DeployOptions{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	// Sessions are the balancing granularity: round-robin lands the two
	// sessions on the two replicas.
	for i := 0; i < 2; i++ {
		client, err := giop.Dial(dep.Addr(), "calc")
		if err != nil {
			t.Fatal(err)
		}
		results, err := client.Invoke("Add", giop.IntParam(20), giop.IntParam(22))
		client.Close()
		if err != nil {
			t.Fatal(err)
		}
		if results[0].ValueString() != "42" {
			t.Errorf("session %d: Add = %s", i+1, results[0].ValueString())
		}
	}

	md, ok := dep.(*starlink.MediatorDeployment)
	if !ok {
		t.Fatalf("deployment type = %T", dep)
	}
	var snaps []backend.SetSnapshot = md.Mediator.Snapshot().Backends
	if len(snaps) != 1 || snaps[0].Name != "plus" || len(snaps[0].Replicas) != 2 {
		t.Fatalf("Snapshot().Backends = %+v", snaps)
	}
	for _, rs := range snaps[0].Replicas {
		var _ backend.ReplicaSnapshot = rs
		if !rs.Live || rs.Picks != 1 {
			t.Errorf("replica %s: live=%v picks=%d, want one session each", rs.Addr, rs.Live, rs.Picks)
		}
	}

	// Backend validation failures surface as deploy-time spec errors.
	bad, err := starlink.ParseMediatorSpec(`
merged Add+Plus
side 1 giop objectkey=calc defs=AAdd server
side 2 soap path=/soap target=plus
backend plus ` + a.Addr() + ` ` + a.Addr() + `
`)
	if err == nil || !errors.Is(err, core.ErrSpec) {
		t.Errorf("duplicate replica parse err = %v (%+v), want ErrSpec", err, bad)
	}
}

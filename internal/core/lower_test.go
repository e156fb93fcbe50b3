package core

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"starlink/internal/backend"
	"starlink/internal/casestudy"
	"starlink/internal/discovery"
	"starlink/internal/engine"
	"starlink/internal/gateway"
	"starlink/models"
)

// lowered is what the builders hand to the packages that apply a spec's
// tuning: the engine.Config engine.New gets (read in build's adjust hook,
// the last thing before the call), the options the backend set and the
// discovery reconciler in it were made with, and the admission policy and
// front-door configuration gateway.New gets from buildGateway.
type lowered struct {
	Engine     engine.Config
	Set        backend.SetSnapshot
	Reconciler discovery.Options
	SSDP       discovery.SSDPOptions
	Admission  gateway.AdmissionPolicy
	Gateway    gateway.Config
}

// effectiveRetry is the retry policy a Config stands for.
func effectiveRetry(cfg engine.Config) engine.RetryPolicy {
	if cfg.Retry == nil {
		return engine.DefaultRetry()
	}
	return *cfg.Retry
}

// setOptions is the part of a set's snapshot that is its options.
func setOptions(s backend.SetSnapshot) backend.SetSnapshot {
	return backend.SetSnapshot{Name: s.Name, Policy: s.Policy, ProbeInterval: s.ProbeInterval, ProbeTimeout: s.ProbeTimeout,
		FailThreshold: s.FailThreshold, Cooloff: s.Cooloff, MaxCooloff: s.MaxCooloff, MinLive: s.MinLive}
}

// lowerer builds the Flickr XML-RPC mediator over a two-replica set
// "photos", with the lines a row adds, alone and as the one route "r" of a
// gateway.
type lowerer struct {
	m     *Models
	hosts string // the hosts file the default discover line reads
}

func newLowerer(t *testing.T) *lowerer {
	m, err := LoadModelsFS(models.FS)
	if err != nil {
		t.Fatal(err)
	}
	hosts := filepath.Join(t.TempDir(), "photos.hosts")
	if err := os.WriteFile(hosts, []byte("127.0.0.1:9102\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return &lowerer{m: m, hosts: hosts}
}

// spec reads the mediator spec with the lines given, and a file discover
// line unless they have one.
func (lw *lowerer) spec(t *testing.T, lines string) *MediatorSpec {
	t.Helper()
	doc := "merged Flickr-XMLRPC-to-Picasa-REST\n" +
		"side 1 xmlrpc path=/services/xmlrpc defs=AFlickr server\n" +
		"side 2 rest routes=picasa target=photos\n" +
		"backend photos 127.0.0.1:9102 127.0.0.1:9103\n" + lines + "\n"
	if !strings.Contains(lines, "discover ") {
		doc += "discover photos via=file path=" + lw.hosts + "\n"
	}
	spec, err := ParseMediatorSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// lowerMediator builds the mediator spec with the lines given and returns
// what build handed on.
func (lw *lowerer) lowerMediator(t *testing.T, lines string) lowered {
	t.Helper()
	var l lowered
	med, err := lw.m.build(lw.spec(t, lines), func(cfg *engine.Config) {
		l.Engine = *cfg
		l.Set = setOptions(cfg.Backends["photos"].Snapshot())
		l.Reconciler = cfg.Discovery[0].Options()
		if src, ok := l.Reconciler.Source.(*discovery.SSDPSource); ok {
			l.SSDP = src.Options()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	med.Close()
	return l
}

// lowerGateway builds a gateway spec whose one route r, with the options
// given, hosts the mediator spec with no lines, and returns what
// buildGateway handed on. (It starts the route's mediator, and so its
// discovery source; an SSDP one would search for a second.)
func (lw *lowerer) lowerGateway(t *testing.T, routeOpts, lines string) lowered {
	t.Helper()
	lw.m.Mediators["calc"] = lw.spec(t, "")
	gs, err := ParseGatewaySpec("route r calc" + routeOpts + "\n" + lines + "\n")
	if err != nil {
		t.Fatal(err)
	}
	gw, routes, mediators, err := lw.m.buildGateway(gs)
	if err != nil {
		t.Fatal(err)
	}
	gw.Close()
	closeAll(mediators)
	return lowered{Admission: routes[0].Admission, Gateway: gw.Config()}
}

// TestTuningLowered holds every tuning directive and option to the one
// option struct that carries it: a row builds a spec with its line and
// reads the value back from what the packages are handed. The route's
// deadline= is not among them: it is a field of the route, which
// buildRoute's own hook lowers.
func TestTuningLowered(t *testing.T) {
	lw := newLowerer(t)
	ssdp := "discover photos via=ssdp search=127.0.0.1:1900 st=urn:photos"
	for _, row := range []struct {
		lines, route, gateway string
		got                   func(l lowered) any
		want                  any
	}{
		{lines: "hostmap " + casestudy.PicasaHost + " = photos",
			got: func(l lowered) any { return l.Engine.HostMap }, want: map[string]string{casestudy.PicasaHost: "photos"}},
		{lines: "retries 5", got: func(l lowered) any { return effectiveRetry(l.Engine).Attempts }, want: 5},
		{lines: "retries 0", got: func(l lowered) any { return effectiveRetry(l.Engine).Attempts }, want: 0},
		{lines: "backoff 25ms", got: func(l lowered) any { return effectiveRetry(l.Engine).Backoff }, want: 25 * time.Millisecond},
		{lines: "backoff 0", got: func(l lowered) any { return effectiveRetry(l.Engine).Backoff }, want: time.Duration(0)},
		{lines: "max_backoff 800ms", got: func(l lowered) any { return effectiveRetry(l.Engine).MaxBackoff }, want: 800 * time.Millisecond},
		{lines: "flow_deadline 1500ms", got: func(l lowered) any { return l.Engine.FlowDeadline }, want: 1500 * time.Millisecond},
		{lines: "dialtimeout 3s", got: func(l lowered) any { return l.Engine.DialTimeout }, want: 3 * time.Second},
		{lines: "pool_size 16", got: func(l lowered) any { return l.Engine.PoolSize }, want: 16},
		{lines: "pool_idle 30s", got: func(l lowered) any { return l.Engine.PoolIdle }, want: 30 * time.Second},
		{lines: "pool_idle off", got: func(l lowered) any { return l.Engine.PoolIdle < 0 }, want: true},
		{lines: "cacheable " + casestudy.PicasaSearch + " ttl=1m",
			got: func(l lowered) any { return l.Engine.Cache.Rules }, want: map[string]engine.CacheRule{casestudy.PicasaSearch: {TTL: time.Minute}}},
		{lines: "cacheable " + casestudy.PicasaSearch + " ttl=1m vary=a,b.c",
			got: func(l lowered) any { return l.Engine.Cache.Rules[casestudy.PicasaSearch].Vary }, want: []string{"a", "b.c"}},
		{lines: "cacheable " + casestudy.PicasaGetComments + " ttl=1m\ninvalidates " + casestudy.PicasaAddComment + " " + casestudy.PicasaGetComments,
			got: func(l lowered) any { return l.Engine.Cache.Invalidates }, want: map[string][]string{casestudy.PicasaAddComment: {casestudy.PicasaGetComments}}},
		{lines: "cache_size 4096", got: func(l lowered) any { return l.Engine.Cache.MaxEntries }, want: 4096},
		{lines: "cache_shards 16", got: func(l lowered) any { return l.Engine.Cache.Shards }, want: 16},
		{lines: "balance photos p2c", got: func(l lowered) any { return l.Set.Policy }, want: backend.PowerOfTwo},
		{lines: "probe photos 250ms", got: func(l lowered) any { return l.Set.ProbeInterval }, want: 250 * time.Millisecond},
		{lines: "probe photos 250ms timeout=2s", got: func(l lowered) any { return l.Set.ProbeTimeout }, want: 2 * time.Second},
		{lines: "eject photos fails=2", got: func(l lowered) any { return l.Set.FailThreshold }, want: 2},
		{lines: "eject photos cooloff=500ms", got: func(l lowered) any { return l.Set.Cooloff }, want: 500 * time.Millisecond},
		{lines: "eject photos max_cooloff=10s", got: func(l lowered) any { return l.Set.MaxCooloff }, want: 10 * time.Second},
		{lines: "eject photos min_live=2", got: func(l lowered) any { return l.Set.MinLive }, want: 2},
		{lines: ssdp + " refresh=2s", got: func(l lowered) any { return l.Reconciler.Refresh }, want: 2 * time.Second},
		{lines: ssdp + " debounce=5s", got: func(l lowered) any { return l.Reconciler.Debounce }, want: 5 * time.Second},
		{lines: ssdp + " min_ttl=1m", got: func(l lowered) any { return l.Reconciler.MinTTL }, want: time.Minute},
		{lines: ssdp + " max_churn=2", got: func(l lowered) any { return l.Reconciler.MaxChurn }, want: 2},
		{lines: ssdp + " mx=3", got: func(l lowered) any { return l.SSDP.MX }, want: 3},
		{lines: ssdp + " listen=127.0.0.1:0", got: func(l lowered) any { return l.SSDP.Listen }, want: "127.0.0.1:0"},
		{route: " rate=2.5", got: func(l lowered) any { return l.Admission.Rate }, want: 2.5},
		{route: " burst=10", got: func(l lowered) any { return l.Admission.Burst }, want: 10},
		{route: " maxflows=32", got: func(l lowered) any { return l.Admission.MaxFlows }, want: 32},
		{gateway: "sniff_bytes 128", got: func(l lowered) any { return l.Gateway.SniffBytes }, want: 128},
		{gateway: "sniff_timeout 250ms", got: func(l lowered) any { return l.Gateway.SniffTimeout }, want: 250 * time.Millisecond},
		{gateway: "default r", got: func(l lowered) any { return l.Gateway.Default }, want: "r"},
	} {
		var l lowered
		if row.lines != "" {
			l = lw.lowerMediator(t, row.lines)
		} else {
			l = lw.lowerGateway(t, row.route, row.gateway)
		}
		if got := row.got(l); !reflect.DeepEqual(got, row.want) {
			t.Errorf("%s: lowered to %#v, want %#v", strings.TrimSpace(row.lines+row.route+row.gateway), got, row.want)
		}
	}
}

// TestUntunedSpecBuildsDefaults holds a spec with no tuning line to what
// each package makes of options it is given nothing in.
func TestUntunedSpecBuildsDefaults(t *testing.T) {
	lw := newLowerer(t)
	l := lw.lowerMediator(t, "")
	e := l.Engine
	if len(e.HostMap) != 0 || effectiveRetry(e) != engine.DefaultRetry() || e.FlowDeadline != 0 || e.DialTimeout != 0 ||
		e.PoolSize != 0 || e.PoolIdle != 0 || e.Cache != nil {
		t.Errorf("engine tuning = hostmap %v, retry %+v, deadline %v, dial %v, pool %d/%v, cache %+v; want the zero values and %+v",
			e.HostMap, effectiveRetry(e), e.FlowDeadline, e.DialTimeout, e.PoolSize, e.PoolIdle, e.Cache, engine.DefaultRetry())
	}

	set, err := backend.New("photos", []string{"127.0.0.1:9102", "127.0.0.1:9103"}, backend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := setOptions(set.Snapshot()); !reflect.DeepEqual(l.Set, want) {
		t.Errorf("backend options = %+v, want %+v", l.Set, want)
	}
	src, err := discovery.NewFileSource(lw.hosts)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := discovery.New(set, discovery.Options{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	want := rec.Options()
	want.Source = l.Reconciler.Source
	if l.Reconciler != want {
		t.Errorf("reconciler options = %+v, want %+v", l.Reconciler, want)
	}
	l = lw.lowerGateway(t, "", "")
	if l.Admission != (gateway.AdmissionPolicy{}) {
		t.Errorf("admission = %+v, want the zero policy", l.Admission)
	}
	if g := l.Gateway; g.Default != "" || g.SniffBytes != 0 || g.SniffTimeout != 0 {
		t.Errorf("gateway config = %+v, want the zero values", g)
	}

	l = lw.lowerMediator(t, "discover photos via=ssdp search=127.0.0.1:1900 st=urn:photos")
	ssdp, err := discovery.NewSSDPSource("127.0.0.1:1900", "urn:photos", discovery.SSDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ssdp.Close()
	if l.SSDP != ssdp.Options() {
		t.Errorf("ssdp options = %+v, want %+v", l.SSDP, ssdp.Options())
	}
}

// Package core assembles Starlink mediators from model files: it loads
// the DSL artifacts (k-colored automata XML, merged automata XML, MDL
// documents, REST route tables, equivalence tables, mediator deployment
// specs) from a models directory and wires binders, engine and network
// together. The public starlink package is a thin facade over this.
package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"starlink/internal/automata"
	"starlink/internal/backend"
	"starlink/internal/bind"
	"starlink/internal/discovery"
	"starlink/internal/engine"
	"starlink/internal/gateway"
	"starlink/internal/mdl"
	"starlink/internal/mdl/binenc"
	"starlink/internal/mdl/textenc"
	"starlink/internal/mdl/xmlenc"
	"starlink/internal/mtl"
	"starlink/internal/observe"
)

// Errors reported by the core layer.
var (
	// ErrModel is wrapped by model loading/validation failures.
	ErrModel = errors.New("core: invalid model")
	// ErrSpec is wrapped by mediator spec failures.
	ErrSpec = errors.New("core: invalid mediator spec")
)

// Models is the set of artifacts loaded from a models directory:
//
//	*.automaton.xml  k-colored API usage / protocol automata
//	*.merged.xml     concrete merged automata
//	*.mdl            message description documents
//	*.routes         REST binding route tables
//	*.equiv          semantic-equivalence tables ("a = b" per line)
//	*.typemap        vocabulary maps ("from = to" per line), exposed to MTL
//	                 as the maptype() function
//	*.mediator       mediator deployment specs
//	*.gateway        gateway deployment specs
type Models struct {
	// Automata by automaton name.
	Automata map[string]*automata.Automaton
	// Merged automata by name.
	Merged map[string]*automata.Merged
	// MDL specs by spec name.
	MDL map[string]*mdl.Spec
	// Routes tables by file base name.
	Routes map[string][]bind.Route
	// Equivalences by file base name.
	Equivalences map[string]*automata.Equivalence
	// TypeMaps holds vocabulary maps by file base name.
	TypeMaps map[string]map[string]string
	// Mediators holds deployment specs by file base name.
	Mediators map[string]*MediatorSpec
	// Gateways holds gateway deployment specs by file base name.
	Gateways map[string]*GatewaySpec
}

// NewModels returns an empty model set.
func NewModels() *Models {
	return &Models{
		Automata:     make(map[string]*automata.Automaton),
		Merged:       make(map[string]*automata.Merged),
		MDL:          make(map[string]*mdl.Spec),
		Routes:       make(map[string][]bind.Route),
		Equivalences: make(map[string]*automata.Equivalence),
		TypeMaps:     make(map[string]map[string]string),
		Mediators:    make(map[string]*MediatorSpec),
		Gateways:     make(map[string]*GatewaySpec),
	}
}

// LoadModels reads every model artifact in the directory dir.
func LoadModels(dir string) (*Models, error) {
	m, err := LoadModelsFS(os.DirFS(dir))
	if err != nil {
		// An os.DirFS names paths relative to its root, so the error
		// does not say which directory it was.
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	return m, nil
}

// LoadModelsFS reads every model artifact at the root of fsys
// (non-recursive) — a directory, or the files compiled into the binary
// (models.FS). A file is dispatched on its extension, and one with an
// extension no loader knows (a README, a Go file) is not read. A file that
// does not load is an error naming it, and every such file is reported.
func LoadModelsFS(fsys fs.FS) (*Models, error) {
	entries, err := fs.ReadDir(fsys, ".")
	if err != nil {
		return nil, fmt.Errorf("core: read models dir: %w", err)
	}
	m := NewModels()
	var errs []error
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		for _, l := range loaders {
			if !strings.HasSuffix(e.Name(), l.ext) {
				continue
			}
			data, err := fs.ReadFile(fsys, e.Name())
			if err != nil {
				return nil, fmt.Errorf("core: read %s: %w", e.Name(), err)
			}
			if err := l.load(m, strings.TrimSuffix(e.Name(), l.ext), data); err != nil {
				errs = append(errs, fmt.Errorf("%w: %s: %v", ErrModel, e.Name(), err))
			}
			break
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return m, nil
}

// loaders has, for each model file extension, what parses a document of
// that kind into the set. Automata, merged automata and MDL specs are
// filed under the name the document gives itself, the rest under the
// file's base name. The XML and MDL readers take the file's bytes as
// they are; the line formats are read from a string, whose substrings
// they keep.
var loaders = []struct {
	ext  string
	load func(m *Models, base string, data []byte) error
}{
	{".automaton.xml", func(m *Models, _ string, data []byte) error {
		a, err := automata.UnmarshalAutomaton(data)
		if err == nil {
			m.Automata[a.Name] = a
		}
		return err
	}},
	{".merged.xml", func(m *Models, _ string, data []byte) error {
		mg, err := automata.UnmarshalMerged(data)
		if err == nil {
			m.Merged[mg.Name] = mg
		}
		return err
	}},
	{".mdl", func(m *Models, _ string, data []byte) error {
		spec, err := mdl.Parse(bytes.NewReader(data))
		if err == nil {
			_, err = NewCodec(spec)
		}
		if err == nil {
			m.MDL[spec.Name] = spec
		}
		return err
	}},
	{".routes", func(m *Models, base string, data []byte) (err error) {
		m.Routes[base], err = bind.ParseRoutes(string(data))
		return err
	}},
	{".equiv", func(m *Models, base string, data []byte) (err error) {
		m.Equivalences[base], err = ParseEquivalence(string(data))
		return err
	}},
	{".typemap", func(m *Models, base string, data []byte) (err error) {
		m.TypeMaps[base], err = ParseTypeMap(string(data))
		return err
	}},
	{".mediator", func(m *Models, base string, data []byte) (err error) {
		m.Mediators[base], err = ParseMediatorSpec(string(data))
		return err
	}},
	{".gateway", func(m *Models, base string, data []byte) (err error) {
		m.Gateways[base], err = ParseGatewaySpec(string(data))
		return err
	}},
}

// NewCodec compiles an MDL document into the parser and composer of the
// engine its <MDL:name:encoding> header names: binenc, textenc or xmlenc.
func NewCodec(spec *mdl.Spec) (mdl.Codec, error) {
	switch spec.Encoding {
	case mdl.EncodingBinary:
		return binenc.New(spec)
	case mdl.EncodingText:
		return textenc.New(spec)
	case mdl.EncodingXML:
		return xmlenc.New(spec)
	}
	return nil, fmt.Errorf("mdl: no engine for encoding %q", spec.Encoding)
}

// ParseEquivalence reads an equivalence table: one "label = label" pair
// per line, # comments allowed.
func ParseEquivalence(doc string) (*automata.Equivalence, error) {
	pairs, err := automata.ParsePairs(doc, "label = label")
	if err != nil {
		return nil, err
	}
	if len(pairs) == 0 {
		return nil, errors.New("empty equivalence table")
	}
	return automata.NewEquivalence(pairs...), nil
}

// ParseTypeMap reads a vocabulary map: one "from = to" pair per line,
// # comments allowed.
func ParseTypeMap(doc string) (map[string]string, error) {
	pairs, err := automata.ParsePairs(doc, "from = to")
	if err != nil {
		return nil, err
	}
	if len(pairs) == 0 {
		return nil, errors.New("empty vocabulary map")
	}
	out := make(map[string]string, len(pairs))
	for _, p := range pairs {
		out[p[0]] = p[1]
	}
	return out, nil
}

// SideSpec configures one color of a mediator deployment.
type SideSpec struct {
	// Color is the automaton color this side serves.
	Color int
	// Protocol selects the binder: xmlrpc | jsonrpc | soap | rest | giop | ssdp | slp.
	Protocol string
	// Path is the HTTP endpoint path (xmlrpc/soap).
	Path string
	// ObjectKey targets the GIOP object (giop).
	ObjectKey string
	// Routes names the route table (rest).
	Routes string
	// Defs names the automaton whose MsgDefs provide positional parameter
	// names (xmlrpc/giop).
	Defs string
	// Target is the service address for client-role sides.
	Target string
	// Server marks the client-facing color; without it, that is the
	// side on the merged automaton's Color1 (Models.serverSide). How a
	// side travels is its protocol's: network.SemanticsOf its framer.
	Server bool
}

// BackendSpec is one named service replica set (the `backend`
// directive) together with the tuning the balance/probe/eject
// directives applied to it. A client-role side's target= (or a hostmap
// resolution) naming a backend is load-balanced across its replicas
// instead of dialled literally.
type BackendSpec struct {
	// Name is the logical service name sides and hostmaps reference.
	Name string
	// Addrs are the replica addresses traffic balances over.
	Addrs []string
	// Policy is the balancing policy: "roundrobin" (default) or "p2c".
	Policy string
	// ProbeInterval enables active health probing when positive;
	// ProbeTimeout bounds each probe (0 = backend default).
	ProbeInterval, ProbeTimeout time.Duration
	// FailThreshold, Cooloff, MaxCooloff and MinLive tune passive
	// outlier ejection (zero values = backend package defaults).
	FailThreshold       int
	Cooloff, MaxCooloff time.Duration
	MinLive             int
}

// DiscoverSpec is one `discover` directive: a discovery source driving
// a backend set's membership at runtime. discoverSources in spec.go has
// the sources and the options of each.
type DiscoverSpec struct {
	// Backend names the replica set this source drives.
	Backend string
	// Via selects the source kind: "slp", "ssdp", "dns" or "file".
	Via string
	// Agent, Type and Scope configure via=slp (the Directory Agent
	// address, service type, and optional scope).
	Agent, Type, Scope string
	// Search, ST, Listen and MX configure via=ssdp (the M-SEARCH
	// address, search target, optional NOTIFY listen address, and
	// response window in seconds).
	Search, ST, Listen string
	MX                 int
	// Name configures via=dns: "host:port" (A/AAAA) or a full
	// "_svc._proto.domain" SRV name.
	Name string
	// Path configures via=file: the watched hosts file.
	Path string
	// Refresh, Debounce, MinTTL and MaxChurn tune the reconciler (zero
	// values = discovery package defaults).
	Refresh, Debounce, MinTTL time.Duration
	MaxChurn                  int
}

// MediatorSpec is a parsed deployment spec. mediatorDirectives in
// spec.go is its grammar, one row per directive; docs/MODELS.md prints
// the same rows.
type MediatorSpec struct {
	// MergedName names the merged automaton to execute.
	MergedName string
	// Listen is the client-facing address.
	Listen string
	// Sides configures each color.
	Sides []SideSpec
	// HostMap resolves sethost logical hosts.
	HostMap map[string]string
	// Backends are the named service replica sets (`backend` directives)
	// with their balance/probe/eject tuning, in declaration order.
	Backends []BackendSpec
	// Discover are the discovery sources (`discover` directives) that
	// drive backend membership at runtime, in declaration order.
	Discover []DiscoverSpec
	// TypeMap names a loaded vocabulary map exposed as maptype().
	TypeMap string
	// Retries overrides the engine's service-retry count when non-nil
	// (0 disables retries).
	Retries *int
	// Backoff overrides the engine's retry backoff when non-zero.
	Backoff time.Duration
	// MaxBackoff overrides the engine's retry backoff cap when
	// non-zero (`max_backoff`).
	MaxBackoff time.Duration
	// FlowDeadline overrides the engine's per-flow deadline budget when
	// non-zero; zero leaves the engine default (2 × ExchangeTimeout).
	FlowDeadline time.Duration
	// DialTimeout overrides the engine's service dial timeout when
	// non-zero.
	DialTimeout time.Duration
	// PoolSize overrides the engine's per-(color, address) service pool
	// bound when non-zero.
	PoolSize int
	// PoolIdle overrides how long pooled service connections stay warm:
	// positive is a timeout, negative ("pool_idle off") disables idle
	// keep-alive, zero leaves the engine default.
	PoolIdle time.Duration
	// Admin, when non-empty, is the address the deployment's admin
	// endpoint (/metrics, /healthz, /flows, /automaton.dot) binds to.
	Admin string
	// Cacheable maps service operations declared `cacheable` to their
	// TTL and key-varying field paths.
	Cacheable map[string]engine.CacheRule
	// Invalidates maps write operations to the cacheable operations
	// whose entries they flush (`invalidates` directives).
	Invalidates map[string][]string
	// CacheSize bounds the response cache's stored replies when
	// non-zero (`cache_size`).
	CacheSize int
	// CacheShards sets the response cache's shard count when non-zero
	// (`cache_shards`).
	CacheShards int
}

// protocol is one protocol a side may speak: the wire class a gateway
// sniffs its clients as (ClassUnknown: it rides UDP multicast and cannot
// stand behind a gateway's front door) and what builds its binder.
type protocol struct {
	name  string
	class gateway.WireClass
	bind  func(m *Models, side SideSpec, defs map[string]automata.MsgDef) (bind.Binder, error)
}

// protocols is every protocol, one row each. The `side` directive,
// BuildBinder, gateway routes and the reference in docs/MODELS.md all
// read it.
var protocols = []protocol{
	{"xmlrpc", gateway.ClassHTTP, func(_ *Models, side SideSpec, defs map[string]automata.MsgDef) (bind.Binder, error) {
		return &bind.XMLRPCBinder{Path: side.Path, Defs: defs}, nil
	}},
	{"jsonrpc", gateway.ClassHTTP, func(_ *Models, side SideSpec, defs map[string]automata.MsgDef) (bind.Binder, error) {
		return &bind.JSONRPCBinder{Path: side.Path, Defs: defs}, nil
	}},
	{"soap", gateway.ClassHTTP, func(_ *Models, side SideSpec, _ map[string]automata.MsgDef) (bind.Binder, error) {
		return &bind.SOAPBinder{Path: side.Path}, nil
	}},
	{"rest", gateway.ClassHTTP, func(m *Models, side SideSpec, _ map[string]automata.MsgDef) (bind.Binder, error) {
		routes, ok := m.Routes[side.Routes]
		if !ok {
			return nil, fmt.Errorf("%w: route table %q not loaded", ErrSpec, side.Routes)
		}
		return bind.NewRESTBinder(routes)
	}},
	{"giop", gateway.ClassGIOP, func(_ *Models, side SideSpec, defs map[string]automata.MsgDef) (bind.Binder, error) {
		return bind.NewGIOPBinder(side.ObjectKey, defs)
	}},
	{"ssdp", gateway.ClassUnknown, func(*Models, SideSpec, map[string]automata.MsgDef) (bind.Binder, error) {
		return &bind.SSDPBinder{}, nil
	}},
	{"slp", gateway.ClassUnknown, func(*Models, SideSpec, map[string]automata.MsgDef) (bind.Binder, error) {
		return bind.NewSLPBinder()
	}},
}

// protocolOf finds a protocol's row; without one, the zero row's class
// is ClassUnknown.
func protocolOf(name string) (protocol, bool) {
	for _, p := range protocols {
		if p.name == name {
			return p, true
		}
	}
	return protocol{}, false
}

// protocolNames lists the protocols, for usage lines and the reference.
func protocolNames() string {
	return joined(protocols, ", ", func(p protocol) string { return "`" + p.name + "`" })
}

// BuildBinder constructs the binder a side spec describes.
func (m *Models) BuildBinder(side SideSpec) (bind.Binder, error) {
	p, ok := protocolOf(side.Protocol)
	if !ok {
		return nil, fmt.Errorf("%w: unknown protocol %q", ErrSpec, side.Protocol)
	}
	defs := map[string]automata.MsgDef{}
	if side.Defs != "" {
		a, ok := m.Automata[side.Defs]
		if !ok {
			return nil, fmt.Errorf("%w: defs automaton %q not loaded", ErrSpec, side.Defs)
		}
		defs = a.Messages
	}
	return p.bind(m, side, defs)
}

// BuildMediator assembles (but does not start) a mediator from a spec.
func (m *Models) BuildMediator(spec *MediatorSpec) (*engine.Mediator, error) {
	return m.build(spec, nil)
}

// serverSide is the client-facing side of a spec, the one the mediator
// listens on and a gateway route frames: the side marked server, else the
// side on the merged automaton's Color1, as the engine defaults
// ServerColor. Both a deployment and a gateway route pick it here.
func (m *Models) serverSide(spec *MediatorSpec) (*SideSpec, error) {
	merged, ok := m.Merged[spec.MergedName]
	if !ok {
		return nil, fmt.Errorf("%w: merged automaton %q not loaded", ErrSpec, spec.MergedName)
	}
	at := slices.IndexFunc(spec.Sides, func(s SideSpec) bool { return s.Server })
	if at < 0 {
		at = slices.IndexFunc(spec.Sides, func(s SideSpec) bool { return s.Color == merged.Color1 })
	}
	if at < 0 {
		return nil, fmt.Errorf("%w: no side marked server, and no side on colour %d, the first of merged automaton %q", ErrSpec, merged.Color1, spec.MergedName)
	}
	return &spec.Sides[at], nil
}

// build is the one place a spec becomes a mediator: binders, then
// backend sets, then discovery sources — the first thing that holds a
// socket or a goroutine, so nothing that can fail for a reason the spec
// shows comes after it — then the engine, which owns the sources from
// there on. A failure closes whatever sources were opened before it.
// adjust, when not nil, sees the finished engine.Config before the
// engine does: it is how a deployment attaches its observer and a
// gateway route its own deadline.
func (m *Models) build(spec *MediatorSpec, adjust func(*engine.Config)) (med *engine.Mediator, err error) {
	server, err := m.serverSide(spec)
	if err != nil {
		return nil, err
	}
	merged := m.Merged[spec.MergedName]
	cfg := engine.Config{
		Merged:       merged,
		ServerColor:  server.Color,
		Sides:        make(map[int]*engine.Side, len(spec.Sides)),
		Backends:     make(map[string]*backend.Set, len(spec.Backends)),
		HostMap:      spec.HostMap,
		DialTimeout:  spec.DialTimeout,
		PoolSize:     spec.PoolSize,
		PoolIdle:     spec.PoolIdle,
		FlowDeadline: spec.FlowDeadline,
	}
	// The spec's optional knobs translate into an explicit RetryPolicy;
	// "retries 0" simply allows zero attempts — no sentinel needed.
	retry := engine.RetryPolicy{Attempts: engine.DefaultRetryAttempts, Backoff: engine.DefaultBackoff}
	if spec.Retries != nil {
		retry.Attempts = *spec.Retries
	}
	if spec.Backoff > 0 {
		retry.Backoff = spec.Backoff
	}
	if spec.MaxBackoff > 0 {
		retry.MaxBackoff = spec.MaxBackoff
	}
	cfg.Retry = &retry
	if len(spec.Cacheable) > 0 || len(spec.Invalidates) > 0 ||
		spec.CacheSize != 0 || spec.CacheShards != 0 {
		cfg.Cache = &engine.CachePolicy{
			Rules:       spec.Cacheable,
			Invalidates: spec.Invalidates,
			MaxEntries:  spec.CacheSize,
			Shards:      spec.CacheShards,
		}
	}
	if spec.TypeMap != "" {
		tm, ok := m.TypeMaps[spec.TypeMap]
		if !ok {
			return nil, fmt.Errorf("%w: vocabulary map %q not loaded", ErrSpec, spec.TypeMap)
		}
		cfg.Funcs = map[string]mtl.Func{"maptype": mtl.TableFunc(tm)}
	}
	for _, ss := range spec.Sides {
		binder, err := m.BuildBinder(ss)
		if err != nil {
			return nil, err
		}
		if ss.Protocol == "rest" {
			// A REST binder knows an operation by its route, so every one the
			// automaton sends on the side's colour needs a route.
			for _, t := range merged.Transitions {
				if t.Kind == automata.KindMessage && t.Color == ss.Color && t.Action == automata.Send &&
					!slices.ContainsFunc(m.Routes[ss.Routes], func(r bind.Route) bool { return r.Action == t.Message }) {
					return nil, fmt.Errorf("%w: side %d: operation %q has no route in table %q", ErrSpec, ss.Color, t.Message, ss.Routes)
				}
			}
		}
		cfg.Sides[ss.Color] = &engine.Side{Binder: binder, Target: ss.Target}
	}
	for _, bs := range spec.Backends {
		set, err := backend.New(bs.Name, bs.Addrs, backend.Options{
			Policy:        backend.Policy(bs.Policy),
			ProbeInterval: bs.ProbeInterval,
			ProbeTimeout:  bs.ProbeTimeout,
			FailThreshold: bs.FailThreshold,
			Cooloff:       bs.Cooloff,
			MaxCooloff:    bs.MaxCooloff,
			MinLive:       bs.MinLive,
		})
		if err != nil {
			return nil, fmt.Errorf("%w: backend %q: %v", ErrSpec, bs.Name, err)
		}
		cfg.Backends[bs.Name] = set
	}
	defer func() {
		if err != nil {
			for _, rec := range cfg.Discovery {
				rec.Close()
			}
		}
	}()
	for _, ds := range spec.Discover {
		var src discovery.Source
		err := fmt.Errorf("unknown source %q", ds.Via)
		for _, source := range discoverSources {
			if source.via == ds.Via {
				src, err = source.open(ds)
			}
		}
		var rec *discovery.Reconciler
		if err == nil {
			// The reconciler owns the source from here, and refuses a set that
			// is nil (only a hand-built spec gets that past the parser).
			rec, err = discovery.New(cfg.Backends[ds.Backend], discovery.Options{
				Source:   src,
				Refresh:  ds.Refresh,
				Debounce: ds.Debounce,
				MinTTL:   ds.MinTTL,
				MaxChurn: ds.MaxChurn,
			})
			if err != nil {
				src.Close()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%w: discover %s: %v", ErrSpec, ds.Backend, err)
		}
		cfg.Discovery = append(cfg.Discovery, rec)
	}
	if adjust != nil {
		adjust(&cfg)
	}
	return engine.New(cfg)
}

// DeployOptions are the per-deployment overrides accepted by the
// unified deployment entrypoint (DeployAny and the public
// starlink.Deploy façade). Zero values defer to the spec.
type DeployOptions struct {
	// Listen overrides the spec's listen address when non-empty.
	Listen string
	// Admin overrides the spec's admin address when non-empty.
	Admin string
}

// Deployed is the common interface of every running deployment —
// single mediator or gateway alike: clients point at Addr, operators
// inspect Snapshot, and lifecycle ends through Shutdown (graceful) or
// Close (abrupt). *Deployment and *GatewayDeployment implement it.
type Deployed interface {
	// Addr is the client-facing listen address.
	Addr() string
	// Snapshot captures the deployment's counters and histograms.
	Snapshot() DeploySnapshot
	// Shutdown drains in-flight flows (bounded by ctx) before stopping.
	Shutdown(ctx context.Context) error
	// Close stops abruptly. Idempotent, and a no-op after Shutdown.
	Close() error
}

// DeploySnapshot is the uniform observability capture of a Deployed:
// per-mediator engine snapshots, plus the front-door counters when the
// deployment is a gateway.
type DeploySnapshot struct {
	// Kind is "mediator" or "gateway".
	Kind string
	// Mediators holds one engine snapshot per running mediator, keyed
	// by the spec name (mediator deployments) or route name (gateways).
	Mediators map[string]engine.Snapshot
	// Gateway holds the per-route front-door counters; nil for plain
	// mediator deployments.
	Gateway *gateway.Stats
}

// Deployment is a running mediator together with its optional
// observability attachments.
type Deployment struct {
	// Mediator is the running mediation engine.
	Mediator *engine.Mediator
	// Observer is the flow tracer; nil when the deployment has no admin
	// endpoint.
	Observer *observe.Observer
	// Admin is the running admin endpoint; nil when not configured.
	Admin *observe.Admin

	name      string
	closeOnce sync.Once
	closeErr  error
}

// Addr returns the mediator's client-facing address.
func (d *Deployment) Addr() string { return d.Mediator.Addr() }

// Snapshot captures the mediator's counters and latency histograms.
func (d *Deployment) Snapshot() DeploySnapshot {
	name := d.name
	if name == "" {
		name = "mediator"
	}
	return DeploySnapshot{
		Kind:      "mediator",
		Mediators: map[string]engine.Snapshot{name: d.Mediator.Snapshot()},
	}
}

// Close stops the admin endpoint (if any) and the mediator. It is
// idempotent and safe after Shutdown: the teardown runs once, repeat
// calls return the first outcome instead of re-closing the listener
// and surfacing a spurious "already closed" error.
func (d *Deployment) Close() error {
	d.closeOnce.Do(func() {
		if d.Admin != nil {
			d.closeErr = d.Admin.Close()
		}
		if err := d.Mediator.Close(); err != nil && d.closeErr == nil {
			d.closeErr = err
		}
	})
	return d.closeErr
}

// Shutdown gracefully drains the deployment: in-flight flows finish
// (bounded by ctx), then the admin endpoint closes. A later Close is a
// no-op.
func (d *Deployment) Shutdown(ctx context.Context) error {
	err := d.Mediator.Shutdown(ctx)
	d.closeOnce.Do(func() {
		if d.Admin != nil {
			d.closeErr = d.Admin.Close()
		}
	})
	if err != nil {
		return err
	}
	return d.closeErr
}

// Deploy builds and starts the named mediator spec like StartMediator,
// and additionally stands up the observability subsystem when an admin
// address is configured — via the spec's "admin" directive or the
// adminOverride argument (which wins when non-empty). With an admin
// address the mediator is instrumented with a flow tracer and flight
// recorder, and the admin endpoint serves /metrics, /healthz, /flows
// and /automaton.dot for it.
func (m *Models) Deploy(name, listenOverride, adminOverride string) (*Deployment, error) {
	spec, ok := m.Mediators[name]
	if !ok {
		return nil, fmt.Errorf("%w: mediator spec %q not loaded", ErrSpec, name)
	}
	adminAddr := orElse(adminOverride, spec.Admin)
	d := &Deployment{name: name}
	med, err := m.build(spec, func(cfg *engine.Config) {
		if adminAddr != "" {
			d.Observer = observe.Instrument(cfg, observe.Options{})
		}
	})
	if err != nil {
		return nil, err
	}
	if err := med.Start(orElse(listenOverride, spec.Listen, "127.0.0.1:0")); err != nil {
		med.Close()
		return nil, err
	}
	d.Mediator = med
	if adminAddr != "" {
		admin, err := observe.ServeAdmin(adminAddr, observe.AdminConfig{
			Registry: observe.MediatorRegistry(med, d.Observer),
			Observer: d.Observer,
			Mediator: med,
		})
		if err != nil {
			med.Close()
			return nil, fmt.Errorf("core: admin endpoint: %w", err)
		}
		d.Admin = admin
	}
	return d, nil
}

// orElse returns the first of its arguments that is not empty: an
// override, else what the spec says, else the default.
func orElse(choices ...string) string {
	for _, c := range choices {
		if c != "" {
			return c
		}
	}
	return ""
}

// DeployAny is the unified deployment entrypoint behind the public
// starlink.Deploy façade: name selects a loaded *.mediator or
// *.gateway spec, and the matching deployment path runs. A name
// shadowed by both kinds is rejected as ambiguous rather than silently
// picking one.
func (m *Models) DeployAny(name string, opts DeployOptions) (Deployed, error) {
	_, isMediator := m.Mediators[name]
	_, isGateway := m.Gateways[name]
	switch {
	case isMediator && isGateway:
		return nil, fmt.Errorf("%w: %q names both a mediator and a gateway spec; rename one", ErrSpec, name)
	case isMediator:
		return m.Deploy(name, opts.Listen, opts.Admin)
	case isGateway:
		return m.DeployGateway(name, opts.Listen, opts.Admin)
	default:
		return nil, fmt.Errorf("%w: no mediator or gateway spec %q loaded", ErrSpec, name)
	}
}

// Check builds every deployment spec the models hold the way Deploy and
// DeployGateway build it — a .mediator spec into its mediator, a .gateway
// spec's routes into theirs and then its front door — stops before anything
// listens, and closes what it built. So what Check refuses, a deployment
// refuses. It returns every finding, each prefixed with its spec file's
// name. A gateway is not built when a mediator spec it hosts fails on its
// own: that finding is the mediator's, and is reported once.
func (m *Models) Check() error {
	var errs []error
	broken := map[string]bool{}
	for _, name := range sortedNames(m.Mediators) {
		med, err := m.build(m.Mediators[name], nil)
		if err != nil {
			broken[name] = true
			errs = append(errs, fmt.Errorf("%s.mediator: %w", name, err))
			continue
		}
		med.Close()
	}
	for _, name := range sortedNames(m.Gateways) {
		spec := m.Gateways[name]
		if slices.ContainsFunc(spec.Routes, func(rs GatewayRouteSpec) bool { return broken[rs.Mediator] }) {
			continue
		}
		gw, _, mediators, err := m.buildGateway(spec)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s.gateway: %w", name, err))
			continue
		}
		gw.Close()
		closeAll(mediators)
	}
	return errors.Join(errs...)
}

// sortedNames lists a map's keys in order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// Merge builds a merged automaton from two loaded usage automata and an
// equivalence table.
func (m *Models) Merge(a1Name, a2Name, equivName, mergedName string) (*automata.Merged, error) {
	a1, ok := m.Automata[a1Name]
	if !ok {
		return nil, fmt.Errorf("%w: automaton %q not loaded", ErrModel, a1Name)
	}
	a2, ok := m.Automata[a2Name]
	if !ok {
		return nil, fmt.Errorf("%w: automaton %q not loaded", ErrModel, a2Name)
	}
	var eq *automata.Equivalence
	if equivName != "" {
		eq, ok = m.Equivalences[equivName]
		if !ok {
			return nil, fmt.Errorf("%w: equivalence table %q not loaded", ErrModel, equivName)
		}
	}
	merged, err := automata.Merge(a1, a2, automata.MergeOptions{Name: mergedName, Equiv: eq})
	if err != nil {
		return nil, err
	}
	m.Merged[merged.Name] = merged
	return merged, nil
}

// MustMerge is Merge for wiring code and tests where the models are
// known-good: a failed merge is a programming error, so it panics
// instead of returning it.
func (m *Models) MustMerge(a1Name, a2Name, equivName, mergedName string) *automata.Merged {
	merged, err := m.Merge(a1Name, a2Name, equivName, mergedName)
	if err != nil {
		panic(err)
	}
	return merged
}

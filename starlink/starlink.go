// Package starlink is the public API of the Starlink interoperability
// framework — a Go reproduction of "Bridging the Interoperability Gap:
// Overcoming Combined Application and Middleware Heterogeneity"
// (Bromberg, Grace, Réveillère, Blair — MIDDLEWARE 2011).
//
// Starlink connects applications that differ at BOTH the application
// level (operation names, parameters, behaviour sequences) and the
// middleware level (XML-RPC vs SOAP vs REST vs IIOP). Developers model
// each side's API usage protocol as a colored automaton, state which
// fields are semantically equivalent, and either merge the automata
// automatically or author the merged k-colored automaton by hand; the
// runtime interprets the result as a network mediator.
//
// A minimal end-to-end use:
//
//	models, err := starlink.LoadModels("models")
//	if err != nil { ... }
//	merged, err := models.Merge("AAdd", "APlus", "add-plus", "Add+Plus")
//	if err != nil { ... }
//	med, err := models.BuildMediator(&starlink.MediatorSpec{
//		MergedName: "Add+Plus",
//		Sides: []starlink.SideSpec{
//			{Color: 1, Protocol: "giop", Defs: "AAdd", Server: true},
//			{Color: 2, Protocol: "soap", Path: "/soap", Target: serviceAddr},
//		},
//	})
//	if err != nil { ... }
//	med.Start("127.0.0.1:9001")
//	defer med.Close() // or med.Shutdown(ctx) for a graceful drain
//
// See the examples directory for complete programs, DESIGN.md for the
// system inventory, and EXPERIMENTS.md for the paper-vs-measured record.
package starlink

import (
	"io/fs"
	"strings"

	"starlink/internal/automata"
	"starlink/internal/backend"
	"starlink/internal/bind"
	"starlink/internal/core"
	"starlink/internal/discovery"
	"starlink/internal/engine"
	"starlink/internal/gateway"
	"starlink/internal/mdl"
	"starlink/internal/message"
	"starlink/internal/mtl"
	"starlink/internal/observe"
)

// Model and runtime types. These are aliases so the whole framework
// shares one set of definitions; methods documented on the aliased types
// apply unchanged.
type (
	// Automaton is a colored API usage (or protocol) automaton.
	Automaton = automata.Automaton
	// Transition is one edge of an Automaton.
	Transition = automata.Transition
	// MsgDef is the abstract-message template carried by transitions.
	MsgDef = automata.MsgDef
	// Equivalence is the semantic-equivalence relation over field labels.
	Equivalence = automata.Equivalence
	// MergeOptions configure automatic merging.
	MergeOptions = automata.MergeOptions
	// Merged is a k-colored merged automaton.
	Merged = automata.Merged
	// Message is an abstract message.
	Message = message.Message
	// Field is one labelled node of an abstract message.
	Field = message.Field
	// MDLSpec is a parsed Message Description Language document.
	MDLSpec = mdl.Spec
	// MTLProgram is a parsed Message Translation Logic program.
	MTLProgram = mtl.Program
	// MTLCompiledProgram is an MTL program lowered to the compiled fast
	// path: handles and variables interned to slots, paths pre-split,
	// builtins bound, constants folded. Produced by CompileMTL.
	MTLCompiledProgram = mtl.CompiledProgram
	// MTLCompileOptions parameterise CompileMTL (the handle universe and
	// the custom-function table the program will run against).
	MTLCompileOptions = mtl.CompileOptions
	// Binder maps between concrete packets and abstract actions.
	Binder = bind.Binder
	// Route is one REST binding rule.
	Route = bind.Route
	// Models is a loaded model set.
	Models = core.Models
	// MediatorSpec is a mediator deployment description.
	MediatorSpec = core.MediatorSpec
	// SideSpec configures one color of a deployment.
	SideSpec = core.SideSpec
	// BackendSpec is one named replica-set declaration of a MediatorSpec
	// (the backend/balance/probe/eject directives).
	BackendSpec = core.BackendSpec
	// BackendSet is a named, health-checked, load-balanced replica set a
	// side's Target may name instead of a concrete address; see
	// EngineConfig.Backends.
	BackendSet = backend.Set
	// BackendOptions configure a BackendSet: balancing policy, active
	// probing cadence and the passive-ejection thresholds.
	BackendOptions = backend.Options
	// BackendSetSnapshot is one replica set's point-in-time health and
	// traffic view, as served by the admin /backends route.
	BackendSetSnapshot = backend.SetSnapshot
	// BackendReplicaSnapshot is one replica's slice of a
	// BackendSetSnapshot.
	BackendReplicaSnapshot = backend.ReplicaSnapshot
	// DiscoverSpec is one `discover` directive of a MediatorSpec: a
	// discovery source (SLP/SSDP/DNS/file) driving a backend set's
	// membership at runtime.
	DiscoverSpec = core.DiscoverSpec
	// DiscoverySource resolves a logical service to its current
	// endpoints; see NewSLPSource, NewSSDPSource, NewDNSSource and
	// NewFileSource.
	DiscoverySource = discovery.Source
	// DiscoveryEndpoint is one discovered service endpoint (dialable
	// address plus advertised lifetime).
	DiscoveryEndpoint = discovery.Endpoint
	// DiscoveryReconciler diffs a source's endpoint snapshots against a
	// BackendSet's membership and applies adds/removes with hysteresis;
	// see EngineConfig.Discovery.
	DiscoveryReconciler = discovery.Reconciler
	// DiscoveryOptions tune a DiscoveryReconciler: refresh cadence,
	// debounce window, min-TTL and churn caps.
	DiscoveryOptions = discovery.Options
	// DiscoverySnapshot is one reconciler's point-in-time view, as
	// served by the admin /discovery route.
	DiscoverySnapshot = discovery.Snapshot
	// SSDPSourceOptions tune an SSDP discovery source (M-SEARCH window,
	// NOTIFY listen address).
	SSDPSourceOptions = discovery.SSDPOptions
	// Mediator is a running (or startable) mediator.
	Mediator = engine.Mediator
	// EngineConfig assembles a mediator programmatically.
	EngineConfig = engine.Config
	// EngineSide configures one color programmatically.
	EngineSide = engine.Side
	// Stats are a mediator's lifetime counters, including the
	// fault-recovery counters (Redials, RetriesExhausted, per-side
	// failures) and the service-pool counters (PoolHits, PoolDials,
	// PoolEvictions).
	Stats = engine.Stats
	// RetryPolicy is the explicit, sentinel-free fault-recovery policy
	// for EngineConfig.Retry.
	RetryPolicy = engine.RetryPolicy
	// Snapshot bundles Stats with the mediator's latency histograms
	// (per-transition and per-service-exchange); see Mediator.Snapshot.
	Snapshot = engine.Snapshot
	// LatencyHistogram is a point-in-time latency distribution with Mean
	// and Quantile estimators.
	LatencyHistogram = engine.LatencyHistogram
	// LatencyBucket is one bin of a LatencyHistogram.
	LatencyBucket = engine.LatencyBucket
	// TraceEvent is one observable mediation step, delivered to the
	// EngineConfig.Trace hook.
	TraceEvent = engine.TraceEvent
	// TraceKind classifies TraceEvents.
	TraceKind = engine.TraceKind
	// Observer is the flow tracer: it assembles TraceEvents into span
	// trees, counts per-transition hits and feeds the flight recorder.
	Observer = observe.Observer
	// ObserveOptions configure an Observer (ring bounds, sampling, slow
	// threshold).
	ObserveOptions = observe.Options
	// FlowTrace is one assembled flow: header, span tree, and for failed
	// flows a truncated wire-level hexdump.
	FlowTrace = observe.FlowTrace
	// Span is one node of a FlowTrace's span tree.
	Span = observe.Span
	// Recorder is the flight recorder of the last N failed/slow flows.
	Recorder = observe.Recorder
	// Registry is a pull-model metrics registry rendered in Prometheus
	// text exposition format.
	Registry = observe.Registry
	// Admin is a running admin endpoint serving /metrics, /healthz,
	// /flows and /automaton.dot.
	Admin = observe.Admin
	// AdminConfig wires an Admin endpoint to its data sources.
	AdminConfig = observe.AdminConfig
	// Deployment is a running declarative deployment — mediator or
	// gateway — behind one lifecycle interface (Addr, Snapshot,
	// Shutdown, Close); see Deploy. Concrete types remain reachable by
	// type assertion to *MediatorDeployment / *GatewayDeployment.
	Deployment = core.Deployed
	// MediatorDeployment is a running single mediator with its optional
	// observability attachments; see Models.Deploy.
	MediatorDeployment = core.Deployment
	// DeployOptions carry the listener and admin addresses for Deploy.
	DeployOptions = core.DeployOptions
	// DeploySnapshot is the uniform stats snapshot every Deployment
	// serves.
	DeploySnapshot = core.DeploySnapshot
	// SpecError is the typed error every spec parser (ParseMediatorSpec,
	// ParseGatewaySpec) returns: Line, Directive and Msg are inspectable
	// via errors.As instead of string matching.
	SpecError = core.SpecError
	// CachePolicy configures the cross-flow response cache for
	// EngineConfig.Cache.
	CachePolicy = engine.CachePolicy
	// CacheRule is one cacheable operation's TTL and vary set.
	CacheRule = engine.CacheRule
	// Gateway is the mediation front door: one listener that sniffs,
	// routes, admission-controls and hot-reloads many mediators.
	Gateway = gateway.Gateway
	// GatewayConfig assembles a Gateway programmatically.
	GatewayConfig = gateway.Config
	// GatewayRoute declares one hosted mediator behind the front door.
	GatewayRoute = gateway.RouteConfig
	// GatewayMatcher is a route's sniff-based claim on connections.
	GatewayMatcher = gateway.Matcher
	// AdmissionPolicy is a route's rate-limit / flow-cap configuration.
	AdmissionPolicy = gateway.AdmissionPolicy
	// WireClass is the protocol family a sniffed connection presents.
	WireClass = gateway.WireClass
	// SniffResult is the wire sniffer's classification of first bytes.
	SniffResult = gateway.Sniff
	// GatewayStats is a gateway's counter snapshot.
	GatewayStats = gateway.Stats
	// GatewayRouteStats is one route's counter snapshot.
	GatewayRouteStats = gateway.RouteStats
	// GatewaySpec is a *.gateway deployment description.
	GatewaySpec = core.GatewaySpec
	// GatewayRouteSpec is one route line of a GatewaySpec.
	GatewayRouteSpec = core.GatewayRouteSpec
	// GatewayDeployment is a running gateway with its hosted mediators
	// and optional metrics endpoint; see Models.DeployGateway.
	GatewayDeployment = core.GatewayDeployment
)

// Spec-parser error classification sentinels. Every parse failure is a
// *SpecError wrapping one (or both) of these, so errors.Is classifies
// and errors.As inspects.
var (
	// ErrSpec is wrapped by every mediator- and gateway-spec failure.
	ErrSpec = core.ErrSpec
	// ErrGateway is additionally wrapped by gateway-spec failures.
	ErrGateway = core.ErrGateway
	// ErrDeadline is wrapped by flows that failed fast because their
	// per-flow deadline budget (Config.FlowDeadline / the
	// flow_deadline directive / a gateway route's deadline= option)
	// ran out mid-mediation.
	ErrDeadline = engine.ErrDeadline
)

// Wire classes the gateway sniffer distinguishes.
const (
	// ClassUnknown: unrecognised or absent first bytes.
	ClassUnknown = gateway.ClassUnknown
	// ClassGIOP: the IIOP "GIOP" magic.
	ClassGIOP = gateway.ClassGIOP
	// ClassHTTP: an HTTP/1.x request line.
	ClassHTTP = gateway.ClassHTTP
	// ClassXML: a bare XML payload with no HTTP envelope.
	ClassXML = gateway.ClassXML
	// ClassJSON: a bare JSON payload with no HTTP envelope.
	ClassJSON = gateway.ClassJSON
)

// Trace event kinds (see engine.TraceKind).
const (
	// TraceState fires when a session's automaton enters a state.
	TraceState = engine.TraceState
	// TraceTransition fires after a transition executes.
	TraceTransition = engine.TraceTransition
	// TraceRedial fires when a service connection is replaced.
	TraceRedial = engine.TraceRedial
	// TraceError fires when a session ends with an error.
	TraceError = engine.TraceError
	// TraceFlowStart fires when a flow's first client request arrives.
	TraceFlowStart = engine.TraceFlowStart
	// TraceFlowEnd fires when a flow completes its automaton traversal.
	TraceFlowEnd = engine.TraceFlowEnd
	// TraceSessionEnd fires when a client session tears down.
	TraceSessionEnd = engine.TraceSessionEnd
	// TraceCacheHit fires when a service exchange is served from the
	// cross-flow response cache (Attempt 0) or by joining an in-flight
	// leader's exchange (Attempt 1).
	TraceCacheHit = engine.TraceCacheHit
)

// Fault-recovery and pooling defaults applied when EngineConfig leaves
// the knobs zero (or Retry nil).
const (
	// DefaultRetryAttempts is the default service-retry count applied
	// when EngineConfig.Retry is nil.
	DefaultRetryAttempts = engine.DefaultRetryAttempts
	// DefaultMaxBackoff caps the exponential backoff growth whenever
	// RetryPolicy.MaxBackoff is left zero.
	DefaultMaxBackoff = engine.DefaultMaxBackoff
	// DefaultBackoff is the default base backoff between retries applied
	// when EngineConfig.Retry is nil.
	DefaultBackoff = engine.DefaultBackoff
	// DefaultPoolSize is the default per-(color, address) bound on
	// pooled service connections.
	DefaultPoolSize = engine.DefaultPoolSize
	// DefaultPoolIdle is the default idle keep-alive for pooled service
	// connections.
	DefaultPoolIdle = engine.DefaultPoolIdle
)

// Action constants for automaton transitions.
const (
	// Send is the "!" action: invoke a remote operation.
	Send = automata.Send
	// Receive is the "?" action: receive an invocation's reply.
	Receive = automata.Receive
)

// Merge strengths.
const (
	// StronglyMerged: every operation is intertwined or derivable.
	StronglyMerged = automata.StronglyMerged
	// WeaklyMerged: some replies cannot be derived.
	WeaklyMerged = automata.WeaklyMerged
)

// LoadModels reads every model artifact (automata, merged automata, MDL,
// routes, equivalences, mediator specs) under dir.
func LoadModels(dir string) (*Models, error) { return core.LoadModels(dir) }

// LoadModelsFS is LoadModels over a file system: the files at its root
// are read, as those compiled into a binary with go:embed are.
func LoadModelsFS(fsys fs.FS) (*Models, error) { return core.LoadModelsFS(fsys) }

// NewModels returns an empty model set.
func NewModels() *Models { return core.NewModels() }

// Merge constructs the k-colored merged automaton of two API usage
// automata under a semantic-equivalence relation (paper Definitions 5-8).
func Merge(a1, a2 *Automaton, opts MergeOptions) (*Merged, error) {
	return automata.Merge(a1, a2, opts)
}

// NewEquivalence builds a semantic-equivalence relation from label pairs.
func NewEquivalence(pairs ...[2]string) *Equivalence {
	return automata.NewEquivalence(pairs...)
}

// Parse helpers
//
// Every model artifact has an in-memory parser, one per DSL, so programs
// can author models as string literals instead of files. They mirror the
// file extensions LoadModels dispatches on:
//
//	ParseAutomaton     *.automaton.xml   colored API usage automata
//	ParseMerged        *.merged.xml      k-colored merged automata
//	ParseMDL           *.mdl             message description documents
//	ParseMTL           (γ transitions)   message translation programs
//	ParseRoutes        *.routes          REST binding route tables
//	ParseEquivalence   *.equiv           semantic-equivalence tables
//	ParseTypeMap       *.typemap         vocabulary maps for maptype()
//	ParseMediatorSpec  *.mediator        mediator deployment specs
//
// All of them report errors with line context; ParseMediatorSpec errors
// additionally name the offending directive.

// ParseAutomaton reads an automaton from its XML form.
func ParseAutomaton(doc string) (*Automaton, error) {
	return automata.ParseAutomaton(doc)
}

// ParseMerged reads a merged automaton from its XML form.
func ParseMerged(doc string) (*Merged, error) {
	return automata.UnmarshalMerged(strings.NewReader(doc))
}

// ParseMDL reads a Message Description Language document.
func ParseMDL(doc string) (*MDLSpec, error) { return mdl.ParseString(doc) }

// ParseMTL parses a Message Translation Logic program.
func ParseMTL(src string) (*MTLProgram, error) { return mtl.Parse(src) }

// CompileMTL lowers a parsed MTL program for the compiled fast path.
// Mediators built by NewMediator do this automatically for every γ
// program at deploy time; the explicit call exists for tooling and for
// executing translation programs outside an engine. Execution semantics
// are identical to MTLProgram.Exec — the fuzz corpus asserts it.
func CompileMTL(p *MTLProgram, opts MTLCompileOptions) (*MTLCompiledProgram, error) {
	return mtl.Compile(p, opts)
}

// ParseRoutes reads a REST binding route table.
func ParseRoutes(doc string) ([]Route, error) { return bind.ParseRoutes(doc) }

// ParseEquivalence reads a semantic-equivalence table: one
// "label = label" pair per line, # comments allowed.
func ParseEquivalence(doc string) (*Equivalence, error) {
	return core.ParseEquivalence(doc)
}

// ParseTypeMap reads a vocabulary map ("from = to" per line), exposed to
// MTL programs as the maptype() function.
func ParseTypeMap(doc string) (map[string]string, error) {
	return core.ParseTypeMap(doc)
}

// ParseMediatorSpec reads a mediator deployment spec document (see
// MediatorSpec for the directive grammar).
func ParseMediatorSpec(doc string) (*MediatorSpec, error) {
	return core.ParseMediatorSpec(doc)
}

// ParseGatewaySpec reads a gateway deployment spec document (see
// GatewaySpec for the directive grammar; on disk: *.gateway).
func ParseGatewaySpec(doc string) (*GatewaySpec, error) {
	return core.ParseGatewaySpec(doc)
}

// Deploy is the single declarative deployment entrypoint: it starts
// the mediator or gateway spec named spec from models and returns it
// behind the common Deployment interface. Whether the name resolves to
// a *.mediator or a *.gateway document is discovered from the model
// set; a name present as both is rejected as ambiguous. opts.Listen
// overrides the spec's listen directive, opts.Admin its admin
// directive.
//
// Deploy subsumes the former Models.Deploy / Models.DeployGateway /
// StartMediator triple for callers that only need the common
// lifecycle; the concrete deployments stay available by type
// assertion.
func Deploy(spec string, models *Models, opts DeployOptions) (Deployment, error) {
	return models.DeployAny(spec, opts)
}

// NewGateway assembles a mediation gateway programmatically; see
// Models.DeployGateway for the declarative path.
func NewGateway(cfg GatewayConfig) (*Gateway, error) { return gateway.New(cfg) }

// SniffWire classifies a wire prefix the way the gateway's sniffer
// does — exported for tests and tooling.
func SniffWire(b []byte) SniffResult { return gateway.SniffBytes(b) }

// GatewayRegistry builds a metrics Registry pre-wired with a gateway's
// per-route counters.
func GatewayRegistry(gw *Gateway) *Registry { return observe.GatewayRegistry(gw) }

// NewMediator assembles a mediator from a programmatic configuration.
//
// The returned Mediator's lifecycle is New → Start → (Shutdown | Close):
// Shutdown(ctx) stops accepting, drains in-flight sessions until ctx
// expires, and closes the shared service pool; Close is the abrupt path.
func NewMediator(cfg EngineConfig) (*Mediator, error) { return engine.New(cfg) }

// NewBackendSet builds a named, health-checked, load-balanced replica
// set for EngineConfig.Backends.
func NewBackendSet(name string, addrs []string, opts BackendOptions) (*BackendSet, error) {
	return backend.New(name, addrs, opts)
}

// Service discovery
//
// The discovery subsystem keeps BackendSet membership synchronized
// with the world: a Source (SLP Directory Agent, SSDP search + NOTIFY,
// DNS A/SRV, or a watched hosts file) resolves the service's current
// endpoints, and a DiscoveryReconciler applies the diff with
// hysteresis. Spec-file deployments use `discover` directives;
// programmatic ones build a source, wrap it in NewDiscoveryReconciler
// and hand it to EngineConfig.Discovery.

// NewDiscoveryReconciler binds a discovery source to a backend set for
// EngineConfig.Discovery.
func NewDiscoveryReconciler(set *BackendSet, opts DiscoveryOptions) (*DiscoveryReconciler, error) {
	return discovery.New(set, opts)
}

// NewSLPSource polls an SLP Directory Agent for a service type.
func NewSLPSource(agent, serviceType, scope string) (DiscoverySource, error) {
	return discovery.NewSLPSource(agent, serviceType, scope)
}

// NewSSDPSource discovers endpoints by SSDP M-SEARCH, optionally also
// listening for NOTIFY alive/byebye announcements.
func NewSSDPSource(addr, st string, opts SSDPSourceOptions) (DiscoverySource, error) {
	return discovery.NewSSDPSource(addr, st, opts)
}

// NewDNSSource re-resolves "host:port" A/AAAA records or a full
// "_svc._proto.domain" SRV name on every poll.
func NewDNSSource(name string) (DiscoverySource, error) {
	return discovery.NewDNSSource(name)
}

// NewFileSource watches a static hosts file (one host:port per line).
func NewFileSource(path string) (DiscoverySource, error) {
	return discovery.NewFileSource(path)
}

// Observability
//
// The observe subsystem makes a running mediator inspectable: a flow
// tracer assembling TraceEvents into span trees, a Prometheus-text
// metrics registry, a flight recorder of failed/slow flows, and an
// admin HTTP endpoint. Instrument makes the tracer the engine's one
// trace sink (EngineConfig.Trace); typical programmatic wiring:
//
//	cfg := starlink.EngineConfig{ ... }
//	obs := starlink.Instrument(&cfg, starlink.ObserveOptions{})
//	med, err := starlink.NewMediator(cfg)
//	...
//	admin, err := starlink.ServeAdmin("127.0.0.1:9090", starlink.AdminConfig{
//		Registry: starlink.MediatorRegistry(med, obs),
//		Observer: obs,
//		Mediator: med,
//	})
//
// Declaratively, the same comes from a mediator spec's "admin <addr>"
// directive via Models.Deploy (or `starlink run -admin addr`).

// NewObserver builds a flow tracer with the given options.
func NewObserver(opts ObserveOptions) *Observer { return observe.New(opts) }

// Instrument attaches a new Observer to an engine configuration; call
// before NewMediator.
func Instrument(cfg *EngineConfig, opts ObserveOptions) *Observer {
	return observe.Instrument(cfg, opts)
}

// MediatorRegistry builds a metrics Registry pre-wired with a
// mediator's counters and histograms, plus the observer's when non-nil.
func MediatorRegistry(med *Mediator, obs *Observer) *Registry {
	return observe.MediatorRegistry(med, obs)
}

// ServeAdmin binds addr and serves the admin routes in the background.
func ServeAdmin(addr string, cfg AdminConfig) (*Admin, error) {
	return observe.ServeAdmin(addr, cfg)
}

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
//	dep, err := starlink.Deploy("flickr-xmlrpc", models, starlink.DeployOptions{
//		Listen: "127.0.0.1:9001",
//		Admin:  "127.0.0.1:9090", // /metrics, /flows, /healthz
//	})
//	if err != nil { ... }
//	defer dep.Close() // or dep.Shutdown(ctx) for a graceful drain
//
// The package exports what the programs under cmd/, examples/ and bench/
// use; `make check` holds it to that. See the examples directory for
// complete programs, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the paper-vs-measured record.
package starlink

import (
	"io/fs"

	"starlink/internal/automata"
	"starlink/internal/bind"
	"starlink/internal/core"
	"starlink/internal/engine"
	"starlink/internal/gateway"
	"starlink/internal/mtl"
	"starlink/internal/observe"
)

// Model and runtime types. These are aliases so the whole framework
// shares one set of definitions; methods documented on the aliased types
// apply unchanged.
type (
	// Automaton is a colored API usage (or protocol) automaton.
	Automaton = automata.Automaton
	// Equivalence is the semantic-equivalence relation over field labels.
	Equivalence = automata.Equivalence
	// MergeOptions configure automatic merging.
	MergeOptions = automata.MergeOptions
	// Merged is a k-colored merged automaton.
	Merged = automata.Merged
	// MTLProgram is a parsed Message Translation Logic program.
	MTLProgram = mtl.Program
	// Binder maps between concrete packets and abstract actions.
	Binder = bind.Binder
	// Route is one REST binding rule.
	Route = bind.Route
	// Models is a loaded model set.
	Models = core.Models
	// MediatorSpec is a mediator deployment description.
	MediatorSpec = core.MediatorSpec
	// Mediator is a running (or startable) mediator.
	Mediator = engine.Mediator
	// EngineConfig assembles a mediator programmatically.
	EngineConfig = engine.Config
	// EngineSide configures one color programmatically.
	EngineSide = engine.Side
	// Snapshot bundles Stats with the mediator's latency histograms
	// (per-transition and per-service-exchange); see Mediator.Snapshot.
	Snapshot = engine.Snapshot
	// Observer is the flow tracer: it assembles TraceEvents into span
	// trees, counts per-transition hits and feeds the flight recorder.
	Observer = observe.Observer
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
	// GatewayStats is a gateway's counter snapshot.
	GatewayStats = gateway.Stats
	// GatewaySpec is a *.gateway deployment description.
	GatewaySpec = core.GatewaySpec
	// GatewayDeployment is a running gateway with its hosted mediators
	// and optional metrics endpoint; see Models.DeployGateway.
	GatewayDeployment = core.GatewayDeployment
)

// LoadModels reads every model artifact (automata, merged automata, MDL,
// routes, equivalences, mediator specs) under dir.
func LoadModels(dir string) (*Models, error) { return core.LoadModels(dir) }

// LoadModelsFS is LoadModels over a file system: the files at its root
// are read, as those compiled into a binary with go:embed are.
func LoadModelsFS(fsys fs.FS) (*Models, error) { return core.LoadModelsFS(fsys) }

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
// A program can author these models as string literals instead of files.
// They mirror the file extensions LoadModels dispatches on:
//
//	ParseMTL           (γ transitions)   message translation programs
//	ParseRoutes        *.routes          REST binding route tables
//	ParseMediatorSpec  *.mediator        mediator deployment specs
//	ParseGatewaySpec   *.gateway         gateway deployment specs
//
// All of them report errors with line context; the spec parsers' errors
// additionally name the offending directive.

// ParseMTL parses a Message Translation Logic program.
func ParseMTL(src string) (*MTLProgram, error) { return mtl.Parse(src) }

// ParseRoutes reads a REST binding route table.
func ParseRoutes(doc string) ([]Route, error) { return bind.ParseRoutes(doc) }

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

// NewMediator assembles a mediator from a programmatic configuration.
//
// The returned Mediator's lifecycle is New → Start → (Shutdown | Close):
// Shutdown(ctx) stops accepting, drains in-flight sessions until ctx
// expires, and closes the shared service pool; Close is the abrupt path.
func NewMediator(cfg EngineConfig) (*Mediator, error) { return engine.New(cfg) }

// Package core assembles Starlink mediators from model files: it loads
// the DSL artifacts (k-colored automata XML, merged automata XML, MDL
// documents, REST route tables, equivalence tables, mediator deployment
// specs) from a models directory and wires binders, engine and network
// together. The public starlink package is a thin facade over this.
package core

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"
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
	"starlink/internal/mtl"
	"starlink/internal/network"
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
// extension no loader knows (a README, a Go file) is not read.
func LoadModelsFS(fsys fs.FS) (*Models, error) {
	entries, err := fs.ReadDir(fsys, ".")
	if err != nil {
		return nil, fmt.Errorf("core: read models dir: %w", err)
	}
	m := NewModels()
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
			if err := l.load(m, strings.TrimSuffix(e.Name(), l.ext), string(data)); err != nil {
				return nil, fmt.Errorf("%w: %s: %v", ErrModel, e.Name(), err)
			}
			break
		}
	}
	return m, nil
}

// loaders has, for each model file extension, what parses a document of
// that kind into the set. Automata, merged automata and MDL specs are
// filed under the name the document gives itself, the rest under the
// file's base name.
var loaders = []struct {
	ext  string
	load func(m *Models, base, doc string) error
}{
	{".automaton.xml", func(m *Models, _, doc string) error {
		a, err := automata.ParseAutomaton(doc)
		if err == nil {
			m.Automata[a.Name] = a
		}
		return err
	}},
	{".merged.xml", func(m *Models, _, doc string) error {
		mg, err := automata.UnmarshalMerged(strings.NewReader(doc))
		if err == nil {
			m.Merged[mg.Name] = mg
		}
		return err
	}},
	{".mdl", func(m *Models, _, doc string) error {
		spec, err := mdl.ParseString(doc)
		if err == nil {
			m.MDL[spec.Name] = spec
		}
		return err
	}},
	{".routes", func(m *Models, base, doc string) (err error) {
		m.Routes[base], err = bind.ParseRoutes(doc)
		return err
	}},
	{".equiv", func(m *Models, base, doc string) (err error) {
		m.Equivalences[base], err = ParseEquivalence(doc)
		return err
	}},
	{".typemap", func(m *Models, base, doc string) (err error) {
		m.TypeMaps[base], err = ParseTypeMap(doc)
		return err
	}},
	{".mediator", func(m *Models, base, doc string) (err error) {
		m.Mediators[base], err = ParseMediatorSpec(doc)
		return err
	}},
	{".gateway", func(m *Models, base, doc string) (err error) {
		m.Gateways[base], err = ParseGatewaySpec(doc)
		return err
	}},
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
	// Server marks the client-facing color.
	Server bool
	// Transport is "tcp" (default) or "udp".
	Transport string
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
// a backend set's membership at runtime.
//
//	discover <backend> via=slp agent=<addr> type=<service-type> [scope=<scope>]
//	discover <backend> via=ssdp search=<addr> st=<target> [listen=<addr>] [mx=<seconds>]
//	discover <backend> via=dns name=<host:port | _svc._proto.domain>
//	discover <backend> via=file path=<hosts-file>
//
// every form also takes [refresh=<duration>] [debounce=<duration>]
// [min_ttl=<duration>] [max_churn=<n>].
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

// MediatorSpec is a parsed deployment spec:
//
//	merged <name>
//	listen <addr>
//	side <color> <protocol> [key=value ...] [server] [udp]
//	hostmap <logical-host> = <addr>
//	backend <name> <addr> [addr ...]
//	balance <backend> roundrobin|p2c
//	probe <backend> <interval> [timeout=<duration>]
//	eject <backend> [fails=<n>] [cooloff=<duration>] [max_cooloff=<duration>] [min_live=<n>]
//	discover <backend> via=slp|ssdp|dns|file [source options] [refresh=] [debounce=] [min_ttl=] [max_churn=]
//	typemap <name>
//	retries <n>
//	backoff <duration>
//	max_backoff <duration>
//	flow_deadline <duration>|off
//	dialtimeout <duration>
//	pool_size <n>
//	pool_idle <duration>|off
//	admin <addr>
//	cacheable <operation> ttl=<duration> [vary=<path,...>]
//	invalidates <operation> <cached-op,...>
//	cache_size <n>
//	cache_shards <n>
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
	// FlowDeadline overrides the engine's per-flow deadline budget:
	// positive is a budget, negative ("flow_deadline off") disables
	// budgets, zero leaves the engine default (2 × ExchangeTimeout).
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

// specErr reports a mediator-spec problem as a typed *SpecError,
// always naming the line and the directive it occurred in so
// multi-directive specs stay debuggable.
func specErr(lineNo int, directive, format string, args ...any) error {
	return newSpecErr(lineNo, directive, format, args...)
}

// repeatedOption returns the first key that two of a directive's
// key=value words share, or "" when none do. Both spec parsers refuse
// one: the second value used to replace the first without a word.
func repeatedOption(words []string) string {
	for i, w := range words {
		k, _, ok := strings.Cut(w, "=")
		if !ok {
			continue
		}
		for _, earlier := range words[:i] {
			if ek, _, ok := strings.Cut(earlier, "="); ok && ek == k {
				return k
			}
		}
	}
	return ""
}

// singleValued lists the mediator-spec directives that may appear at
// most once: silently keeping the last occurrence (the old behaviour)
// hid typos, so a repeat is now rejected with both lines named.
var singleValued = map[string]bool{
	"merged": true, "listen": true, "typemap": true, "retries": true,
	"backoff": true, "max_backoff": true, "flow_deadline": true,
	"dialtimeout": true, "pool_size": true,
	"pool_idle": true, "admin": true, "cache_size": true,
	"cache_shards": true,
}

// backendTune is one balance/probe/eject directive waiting to be
// applied to its backend: tuning directives may precede the `backend`
// declaration they refer to, so application is deferred to the end of
// the parse (where a dangling reference becomes a SpecError).
type backendTune struct {
	lineNo    int
	directive string
	name      string
	apply     func(*BackendSpec)
}

// ParseMediatorSpec reads a deployment spec document.
func ParseMediatorSpec(doc string) (*MediatorSpec, error) {
	spec := &MediatorSpec{HostMap: map[string]string{}}
	seen := map[string]int{}          // single-valued directive → first line (0-based)
	backendLines := map[string]int{}  // backend name → declaring line (0-based)
	tunedLines := map[string]int{}    // "directive name" → first line (0-based)
	discoverLines := map[string]int{} // backend name → discover line (0-based)
	sideLines := map[int]int{}        // side color → declaring line (0-based)
	hostLines := map[string]int{}     // hostmap logical host → first line (0-based)
	serverLine := -1                  // line of the side marked server (0-based)
	var tunes []backendTune
	// tune records one balance/probe/eject directive, rejecting a repeat
	// for the same backend with both lines named (the PR 4 duplicate
	// rule, per backend instead of global).
	tune := func(lineNo int, directive, name string, apply func(*BackendSpec)) error {
		key := directive + " " + name
		if first, dup := tunedLines[key]; dup {
			return specErr(lineNo, directive, "duplicate %s for backend %q (first given on line %d)",
				directive, name, first+1)
		}
		tunedLines[key] = lineNo
		tunes = append(tunes, backendTune{lineNo: lineNo, directive: directive, name: name, apply: apply})
		return nil
	}
	for lineNo, line := range strings.Split(doc, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if singleValued[fields[0]] {
			if first, dup := seen[fields[0]]; dup {
				return nil, specErr(lineNo, fields[0], "duplicate directive (first given on line %d)", first+1)
			}
			seen[fields[0]] = lineNo
		}
		if k := repeatedOption(fields[1:]); k != "" {
			return nil, specErr(lineNo, fields[0], "option %q given twice", k)
		}
		switch fields[0] {
		case "merged":
			if len(fields) != 2 {
				return nil, specErr(lineNo, "merged", "want: merged <name>")
			}
			spec.MergedName = fields[1]
		case "listen":
			if len(fields) != 2 {
				return nil, specErr(lineNo, "listen", "want: listen <addr>")
			}
			spec.Listen = fields[1]
		case "side":
			if len(fields) < 3 {
				return nil, specErr(lineNo, "side", "want: side <color> <protocol> ...")
			}
			color, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, specErr(lineNo, "side", "bad color %q", fields[1])
			}
			if first, dup := sideLines[color]; dup {
				return nil, specErr(lineNo, "side", "duplicate side for color %d (first declared on line %d)", color, first+1)
			}
			sideLines[color] = lineNo
			side := SideSpec{Color: color, Protocol: fields[2]}
			for _, kv := range fields[3:] {
				if kv == "server" {
					side.Server = true
					continue
				}
				if kv == "udp" {
					side.Transport = "udp"
					continue
				}
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, specErr(lineNo, "side", "bad option %q", kv)
				}
				switch k {
				case "path":
					side.Path = v
				case "objectkey":
					side.ObjectKey = v
				case "routes":
					side.Routes = v
				case "defs":
					side.Defs = v
				case "target":
					side.Target = v
				default:
					return nil, specErr(lineNo, "side", "unknown option %q", k)
				}
			}
			if side.Server {
				if serverLine >= 0 {
					return nil, specErr(lineNo, "side", "second server side (first marked on line %d)", serverLine+1)
				}
				serverLine = lineNo
			}
			spec.Sides = append(spec.Sides, side)
		case "typemap":
			if len(fields) != 2 {
				return nil, specErr(lineNo, "typemap", "want: typemap <name>")
			}
			spec.TypeMap = fields[1]
		case "retries":
			if len(fields) != 2 {
				return nil, specErr(lineNo, "retries", "want: retries <n>")
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, specErr(lineNo, "retries", "bad retry count %q", fields[1])
			}
			spec.Retries = &n
		case "backoff":
			if len(fields) != 2 {
				return nil, specErr(lineNo, "backoff", "want: backoff <duration>")
			}
			d, err := time.ParseDuration(fields[1])
			if err != nil || d < 0 {
				return nil, specErr(lineNo, "backoff", "bad backoff %q", fields[1])
			}
			spec.Backoff = d
		case "max_backoff":
			if len(fields) != 2 {
				return nil, specErr(lineNo, "max_backoff", "want: max_backoff <duration>")
			}
			d, err := time.ParseDuration(fields[1])
			if err != nil || d <= 0 {
				return nil, specErr(lineNo, "max_backoff", "bad backoff cap %q", fields[1])
			}
			spec.MaxBackoff = d
		case "flow_deadline":
			if len(fields) != 2 {
				return nil, specErr(lineNo, "flow_deadline", "want: flow_deadline <duration>|off")
			}
			if fields[1] == "off" {
				spec.FlowDeadline = -1
				break
			}
			d, err := time.ParseDuration(fields[1])
			if err != nil || d <= 0 {
				return nil, specErr(lineNo, "flow_deadline", "bad flow deadline %q (or \"off\")", fields[1])
			}
			spec.FlowDeadline = d
		case "dialtimeout":
			if len(fields) != 2 {
				return nil, specErr(lineNo, "dialtimeout", "want: dialtimeout <duration>")
			}
			d, err := time.ParseDuration(fields[1])
			if err != nil || d <= 0 {
				return nil, specErr(lineNo, "dialtimeout", "bad dial timeout %q", fields[1])
			}
			spec.DialTimeout = d
		case "pool_size":
			if len(fields) != 2 {
				return nil, specErr(lineNo, "pool_size", "want: pool_size <n>")
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n <= 0 {
				return nil, specErr(lineNo, "pool_size", "bad pool size %q", fields[1])
			}
			spec.PoolSize = n
		case "pool_idle":
			if len(fields) != 2 {
				return nil, specErr(lineNo, "pool_idle", "want: pool_idle <duration>|off")
			}
			if fields[1] == "off" {
				spec.PoolIdle = -1
				break
			}
			d, err := time.ParseDuration(fields[1])
			if err != nil || d <= 0 {
				return nil, specErr(lineNo, "pool_idle", "bad idle timeout %q (or \"off\")", fields[1])
			}
			spec.PoolIdle = d
		case "admin":
			if len(fields) != 2 {
				return nil, specErr(lineNo, "admin", "want: admin <addr>")
			}
			spec.Admin = fields[1]
		case "hostmap":
			rest := strings.TrimSpace(strings.TrimPrefix(line, "hostmap"))
			host, addr, ok := strings.Cut(rest, "=")
			if !ok {
				return nil, specErr(lineNo, "hostmap", "want: hostmap <host> = <addr>")
			}
			host = strings.TrimSpace(host)
			if first, dup := hostLines[host]; dup {
				return nil, specErr(lineNo, "hostmap", "duplicate hostmap for %q (first given on line %d)", host, first+1)
			}
			hostLines[host] = lineNo
			spec.HostMap[host] = strings.TrimSpace(addr)
		case "backend":
			if len(fields) == 2 {
				return nil, specErr(lineNo, "backend", "backend %q declares no replica addresses", fields[1])
			}
			if len(fields) < 3 {
				return nil, specErr(lineNo, "backend", "want: backend <name> <addr> [addr ...]")
			}
			name := fields[1]
			if first, dup := backendLines[name]; dup {
				return nil, specErr(lineNo, "backend", "duplicate backend %q (first declared on line %d)", name, first+1)
			}
			backendLines[name] = lineNo
			addrs := append([]string(nil), fields[2:]...)
			dupAddr := map[string]bool{}
			for _, a := range addrs {
				if dupAddr[a] {
					return nil, specErr(lineNo, "backend", "backend %q lists replica %q twice", name, a)
				}
				dupAddr[a] = true
			}
			spec.Backends = append(spec.Backends, BackendSpec{Name: name, Addrs: addrs})
		case "balance":
			if len(fields) != 3 {
				return nil, specErr(lineNo, "balance", "want: balance <backend> roundrobin|p2c")
			}
			policy := fields[2]
			if policy != "roundrobin" && policy != "p2c" {
				return nil, specErr(lineNo, "balance", "unknown policy %q (want roundrobin or p2c)", policy)
			}
			if err := tune(lineNo, "balance", fields[1], func(b *BackendSpec) { b.Policy = policy }); err != nil {
				return nil, err
			}
		case "probe":
			if len(fields) < 3 {
				return nil, specErr(lineNo, "probe", "want: probe <backend> <interval> [timeout=<duration>]")
			}
			interval, err := time.ParseDuration(fields[2])
			if err != nil || interval <= 0 {
				return nil, specErr(lineNo, "probe", "bad probe interval %q", fields[2])
			}
			var timeout time.Duration
			for _, kv := range fields[3:] {
				k, v, ok := strings.Cut(kv, "=")
				if !ok || k != "timeout" {
					return nil, specErr(lineNo, "probe", "bad option %q (want timeout=<duration>)", kv)
				}
				d, err := time.ParseDuration(v)
				if err != nil || d <= 0 {
					return nil, specErr(lineNo, "probe", "bad probe timeout %q", v)
				}
				timeout = d
			}
			err = tune(lineNo, "probe", fields[1], func(b *BackendSpec) {
				b.ProbeInterval, b.ProbeTimeout = interval, timeout
			})
			if err != nil {
				return nil, err
			}
		case "eject":
			if len(fields) < 3 {
				return nil, specErr(lineNo, "eject", "want: eject <backend> [fails=<n>] [cooloff=<duration>] [max_cooloff=<duration>] [min_live=<n>]")
			}
			var (
				fails, minLive      int
				cooloff, maxCooloff time.Duration
			)
			for _, kv := range fields[2:] {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, specErr(lineNo, "eject", "bad option %q", kv)
				}
				switch k {
				case "fails":
					n, err := strconv.Atoi(v)
					if err != nil || n <= 0 {
						return nil, specErr(lineNo, "eject", "bad fails %q", v)
					}
					fails = n
				case "cooloff":
					d, err := time.ParseDuration(v)
					if err != nil || d <= 0 {
						return nil, specErr(lineNo, "eject", "bad cooloff %q", v)
					}
					cooloff = d
				case "max_cooloff":
					d, err := time.ParseDuration(v)
					if err != nil || d <= 0 {
						return nil, specErr(lineNo, "eject", "bad max_cooloff %q", v)
					}
					maxCooloff = d
				case "min_live":
					n, err := strconv.Atoi(v)
					if err != nil || n <= 0 {
						return nil, specErr(lineNo, "eject", "bad min_live %q", v)
					}
					minLive = n
				default:
					return nil, specErr(lineNo, "eject", "unknown option %q", k)
				}
			}
			err := tune(lineNo, "eject", fields[1], func(b *BackendSpec) {
				b.FailThreshold, b.MinLive = fails, minLive
				b.Cooloff, b.MaxCooloff = cooloff, maxCooloff
			})
			if err != nil {
				return nil, err
			}
		case "discover":
			if len(fields) < 3 {
				return nil, specErr(lineNo, "discover", "want: discover <backend> via=slp|ssdp|dns|file [options]")
			}
			ds := DiscoverSpec{Backend: fields[1]}
			if first, dup := discoverLines[ds.Backend]; dup {
				return nil, specErr(lineNo, "discover", "duplicate discover for backend %q (first given on line %d)", ds.Backend, first+1)
			}
			discoverLines[ds.Backend] = lineNo
			for _, kv := range fields[2:] {
				k, v, ok := strings.Cut(kv, "=")
				if !ok || v == "" {
					return nil, specErr(lineNo, "discover", "bad option %q (want key=value)", kv)
				}
				switch k {
				case "via":
					ds.Via = v
				case "agent":
					ds.Agent = v
				case "type":
					ds.Type = v
				case "scope":
					ds.Scope = v
				case "search":
					ds.Search = v
				case "st":
					ds.ST = v
				case "listen":
					ds.Listen = v
				case "mx":
					n, err := strconv.Atoi(v)
					if err != nil || n <= 0 {
						return nil, specErr(lineNo, "discover", "bad mx %q", v)
					}
					ds.MX = n
				case "name":
					ds.Name = v
				case "path":
					ds.Path = v
				case "refresh":
					d, err := time.ParseDuration(v)
					if err != nil || d <= 0 {
						return nil, specErr(lineNo, "discover", "bad refresh %q", v)
					}
					ds.Refresh = d
				case "debounce":
					d, err := time.ParseDuration(v)
					if err != nil || d <= 0 {
						return nil, specErr(lineNo, "discover", "bad debounce %q", v)
					}
					ds.Debounce = d
				case "min_ttl":
					d, err := time.ParseDuration(v)
					if err != nil || d <= 0 {
						return nil, specErr(lineNo, "discover", "bad min_ttl %q", v)
					}
					ds.MinTTL = d
				case "max_churn":
					n, err := strconv.Atoi(v)
					if err != nil || n <= 0 {
						return nil, specErr(lineNo, "discover", "bad max_churn %q", v)
					}
					ds.MaxChurn = n
				default:
					return nil, specErr(lineNo, "discover", "unknown option %q", k)
				}
			}
			switch ds.Via {
			case "slp":
				if ds.Agent == "" || ds.Type == "" {
					return nil, specErr(lineNo, "discover", "via=slp needs agent=<addr> and type=<service-type>")
				}
			case "ssdp":
				if ds.Search == "" || ds.ST == "" {
					return nil, specErr(lineNo, "discover", "via=ssdp needs search=<addr> and st=<target>")
				}
			case "dns":
				if ds.Name == "" {
					return nil, specErr(lineNo, "discover", "via=dns needs name=<host:port or SRV name>")
				}
			case "file":
				if ds.Path == "" {
					return nil, specErr(lineNo, "discover", "via=file needs path=<hosts-file>")
				}
			case "":
				return nil, specErr(lineNo, "discover", "missing via=slp|ssdp|dns|file")
			default:
				return nil, specErr(lineNo, "discover", "unknown source %q (want slp, ssdp, dns or file)", ds.Via)
			}
			spec.Discover = append(spec.Discover, ds)
		case "cacheable":
			if len(fields) < 3 {
				return nil, specErr(lineNo, "cacheable", "want: cacheable <operation> ttl=<duration> [vary=<path,...>]")
			}
			op := fields[1]
			if _, dup := spec.Cacheable[op]; dup {
				return nil, specErr(lineNo, "cacheable", "operation %q already declared cacheable", op)
			}
			var rule engine.CacheRule
			for _, kv := range fields[2:] {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, specErr(lineNo, "cacheable", "bad option %q", kv)
				}
				switch k {
				case "ttl":
					d, err := time.ParseDuration(v)
					if err != nil || d <= 0 {
						return nil, specErr(lineNo, "cacheable", "bad ttl %q", v)
					}
					rule.TTL = d
				case "vary":
					for _, p := range strings.Split(v, ",") {
						p = strings.TrimSpace(p)
						if p == "" {
							return nil, specErr(lineNo, "cacheable", "empty path in vary %q", v)
						}
						rule.Vary = append(rule.Vary, p)
					}
				default:
					return nil, specErr(lineNo, "cacheable", "unknown option %q", k)
				}
			}
			if rule.TTL <= 0 {
				return nil, specErr(lineNo, "cacheable", "operation %q needs ttl=<duration>", op)
			}
			if spec.Cacheable == nil {
				spec.Cacheable = map[string]engine.CacheRule{}
			}
			spec.Cacheable[op] = rule
		case "invalidates":
			if len(fields) < 3 {
				return nil, specErr(lineNo, "invalidates", "want: invalidates <operation> <cached-op,...>")
			}
			op := fields[1]
			if spec.Invalidates == nil {
				spec.Invalidates = map[string][]string{}
			}
			for _, arg := range fields[2:] {
				for _, target := range strings.Split(arg, ",") {
					target = strings.TrimSpace(target)
					if target == "" {
						return nil, specErr(lineNo, "invalidates", "empty cached-op in %q", arg)
					}
					spec.Invalidates[op] = append(spec.Invalidates[op], target)
				}
			}
		case "cache_size":
			if len(fields) != 2 {
				return nil, specErr(lineNo, "cache_size", "want: cache_size <n>")
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n <= 0 {
				return nil, specErr(lineNo, "cache_size", "bad cache size %q", fields[1])
			}
			spec.CacheSize = n
		case "cache_shards":
			if len(fields) != 2 {
				return nil, specErr(lineNo, "cache_shards", "want: cache_shards <n>")
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n <= 0 {
				return nil, specErr(lineNo, "cache_shards", "bad shard count %q", fields[1])
			}
			spec.CacheShards = n
		default:
			return nil, &SpecError{Line: lineNo + 1, Directive: fields[0],
				Msg: "unknown directive", sentinels: []error{ErrSpec}}
		}
	}
	if spec.MergedName == "" {
		return nil, &SpecError{Msg: "no merged automaton named (directive \"merged\" missing)",
			sentinels: []error{ErrSpec}}
	}
	if len(spec.Sides) == 0 {
		return nil, &SpecError{Msg: "no sides configured (directive \"side\" missing)",
			sentinels: []error{ErrSpec}}
	}
	for op, targets := range spec.Invalidates {
		for _, target := range targets {
			if _, ok := spec.Cacheable[target]; !ok {
				return nil, &SpecError{Directive: "invalidates",
					Msg:       fmt.Sprintf("operation %q invalidates %q, which is not declared cacheable", op, target),
					sentinels: []error{ErrSpec}}
			}
		}
	}
	for _, tn := range tunes {
		applied := false
		for i := range spec.Backends {
			if spec.Backends[i].Name == tn.name {
				tn.apply(&spec.Backends[i])
				applied = true
				break
			}
		}
		if !applied {
			return nil, specErr(tn.lineNo, tn.directive, "references undeclared backend %q", tn.name)
		}
	}
	// Discover directives may precede the backend they drive, so the
	// dangling-reference check is deferred like the tuning directives'.
	for _, ds := range spec.Discover {
		if _, ok := backendLines[ds.Backend]; !ok {
			return nil, specErr(discoverLines[ds.Backend], "discover", "references undeclared backend %q", ds.Backend)
		}
	}
	return spec, nil
}

// BuildBinder constructs the binder a side spec describes.
func (m *Models) BuildBinder(side SideSpec) (bind.Binder, error) {
	defs := map[string]automata.MsgDef{}
	if side.Defs != "" {
		a, ok := m.Automata[side.Defs]
		if !ok {
			return nil, fmt.Errorf("%w: defs automaton %q not loaded", ErrSpec, side.Defs)
		}
		defs = a.Messages
	}
	switch side.Protocol {
	case "xmlrpc":
		return &bind.XMLRPCBinder{Path: side.Path, Defs: defs}, nil
	case "soap":
		return &bind.SOAPBinder{Path: side.Path}, nil
	case "rest":
		routes, ok := m.Routes[side.Routes]
		if !ok {
			return nil, fmt.Errorf("%w: route table %q not loaded", ErrSpec, side.Routes)
		}
		return bind.NewRESTBinder(routes)
	case "giop":
		return bind.NewGIOPBinder(side.ObjectKey, defs)
	case "jsonrpc":
		return &bind.JSONRPCBinder{Path: side.Path, Defs: defs}, nil
	case "ssdp":
		return &bind.SSDPBinder{}, nil
	case "slp":
		return bind.NewSLPBinder()
	default:
		return nil, fmt.Errorf("%w: unknown protocol %q", ErrSpec, side.Protocol)
	}
}

// BuildMediator assembles (but does not start) a mediator from a spec.
func (m *Models) BuildMediator(spec *MediatorSpec) (*engine.Mediator, error) {
	cfg, err := m.buildConfig(spec)
	if err != nil {
		return nil, err
	}
	med, err := engine.New(cfg)
	if err != nil {
		closeDiscovery(cfg.Discovery)
		return nil, err
	}
	return med, nil
}

// buildSource constructs the discovery source a `discover` directive
// describes.
func buildSource(ds DiscoverSpec) (discovery.Source, error) {
	switch ds.Via {
	case "slp":
		return discovery.NewSLPSource(ds.Agent, ds.Type, ds.Scope)
	case "ssdp":
		return discovery.NewSSDPSource(ds.Search, ds.ST, discovery.SSDPOptions{MX: ds.MX, Listen: ds.Listen})
	case "dns":
		return discovery.NewDNSSource(ds.Name)
	case "file":
		return discovery.NewFileSource(ds.Path)
	default:
		return nil, fmt.Errorf("unknown source %q", ds.Via)
	}
}

// closeDiscovery releases reconcilers (and their sources) built before
// a construction failure; once engine.New succeeds the engine owns
// them.
func closeDiscovery(recs []*discovery.Reconciler) {
	for _, r := range recs {
		r.Close()
	}
}

// buildConfig translates a spec into an engine configuration; Deploy
// and BuildMediator share it so observability can be wired in between
// translation and engine construction.
func (m *Models) buildConfig(spec *MediatorSpec) (engine.Config, error) {
	merged, ok := m.Merged[spec.MergedName]
	if !ok {
		return engine.Config{}, fmt.Errorf("%w: merged automaton %q not loaded", ErrSpec, spec.MergedName)
	}
	cfg := engine.Config{
		Merged:       merged,
		Sides:        make(map[int]*engine.Side, len(spec.Sides)),
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
			return engine.Config{}, fmt.Errorf("%w: vocabulary map %q not loaded", ErrSpec, spec.TypeMap)
		}
		cfg.Funcs = map[string]mtl.Func{"maptype": mtl.TableFunc(tm)}
	}
	if len(spec.Backends) > 0 {
		cfg.Backends = make(map[string]*backend.Set, len(spec.Backends))
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
				return engine.Config{}, fmt.Errorf("%w: backend %q: %v", ErrSpec, bs.Name, err)
			}
			cfg.Backends[bs.Name] = set
		}
	}
	for _, ds := range spec.Discover {
		set, ok := cfg.Backends[ds.Backend]
		if !ok { // the parser already rejects this; keep buildConfig safe for hand-built specs
			closeDiscovery(cfg.Discovery)
			return engine.Config{}, fmt.Errorf("%w: discover references undeclared backend %q", ErrSpec, ds.Backend)
		}
		src, err := buildSource(ds)
		if err != nil {
			closeDiscovery(cfg.Discovery)
			return engine.Config{}, fmt.Errorf("%w: discover %s: %v", ErrSpec, ds.Backend, err)
		}
		minLive := 1
		for _, bs := range spec.Backends {
			if bs.Name == ds.Backend && bs.MinLive > 0 {
				minLive = bs.MinLive
			}
		}
		rec, err := discovery.New(set, discovery.Options{
			Source:   src,
			Refresh:  ds.Refresh,
			Debounce: ds.Debounce,
			MinTTL:   ds.MinTTL,
			MaxChurn: ds.MaxChurn,
			MinLive:  minLive,
		})
		if err != nil {
			src.Close()
			closeDiscovery(cfg.Discovery)
			return engine.Config{}, fmt.Errorf("%w: discover %s: %v", ErrSpec, ds.Backend, err)
		}
		cfg.Discovery = append(cfg.Discovery, rec)
	}
	for _, ss := range spec.Sides {
		binder, err := m.BuildBinder(ss)
		if err != nil {
			return engine.Config{}, err
		}
		transport := ss.Transport
		if transport == "" {
			transport = "tcp"
		}
		cfg.Sides[ss.Color] = &engine.Side{
			Binder: binder,
			Net:    network.Semantics{Transport: transport, Mode: "sync"},
			Target: ss.Target,
		}
		if ss.Server {
			cfg.ServerColor = ss.Color
		}
	}
	return cfg, nil
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
	cfg, err := m.buildConfig(spec)
	if err != nil {
		return nil, err
	}
	adminAddr := spec.Admin
	if adminOverride != "" {
		adminAddr = adminOverride
	}
	d := &Deployment{name: name}
	if adminAddr != "" {
		d.Observer = observe.Instrument(&cfg, observe.Options{})
	}
	med, err := engine.New(cfg)
	if err != nil {
		closeDiscovery(cfg.Discovery)
		return nil, err
	}
	listen := spec.Listen
	if listenOverride != "" {
		listen = listenOverride
	}
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	if err := med.Start(listen); err != nil {
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

// Package engine is Starlink's automata engine (paper Section 4.2): it
// interprets a concrete merged k-colored automaton at runtime, driving the
// sequence of receiving, sending, parsing, composing and translating
// messages that realises an application-middleware mediator.
//
// Roles follow the paper's deployment (Fig. 6): the mediator acts as the
// *server* towards the color-1 application (whose requests are redirected
// to it) and as a *client* towards the color-2 application. Transitions
// keep the application perspective of the models, so on the server color
// a "!" transition means the mediator receives, and a "?" transition
// means it sends the translated reply; on the client color the actions
// read naturally.
//
// Message handles: a received message binds to the transition's To state;
// a sent message is composed (by the preceding γ translation) at the
// transition's From state. γ-transitions execute pre-compiled MTL
// programs against the session environment; the MTL cache keyword
// persists for the lifetime of a client connection, which is what the
// Fig. 10 getInfo resolution relies on.
//
// Service connections are not owned by sessions: each mediator keeps a
// shared per-(color, address) pool (internal/network/pool) that sessions
// check connections out of for the duration of a flow sequence and back
// into when they end, so N concurrent client sessions cost far fewer
// than N dials per color. A sethost retarget is a pool-key change — the
// old connection returns to the pool for whichever session next wants
// that address — and a transport fault discards the connection and
// flushes its key before the redial/replay recovery path runs.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"starlink/internal/automata"
	"starlink/internal/backend"
	"starlink/internal/bind"
	"starlink/internal/discovery"
	"starlink/internal/message"
	"starlink/internal/mtl"
	"starlink/internal/network"
	"starlink/internal/network/pool"
	"starlink/internal/rcache"
)

// Errors reported by the engine.
var (
	// ErrConfig is wrapped by all configuration validation errors.
	ErrConfig = errors.New("engine: invalid configuration")
	// ErrUnexpectedAction is returned when a client performs an action the
	// automaton does not expect at the current state.
	ErrUnexpectedAction = errors.New("engine: unexpected action")
	// ErrStuck is returned when the automaton has no executable transition.
	ErrStuck = errors.New("engine: automaton stuck")
	// ErrDeadline is returned when a flow exhausts its deadline budget
	// (Config.FlowDeadline / the flow_deadline directive): some blocking
	// step — a dial, a pool wait, a retry backoff, a coalesced cache
	// wait, an exchange — would run past the flow's wall-clock deadline.
	// The flow fails fast instead; errors.Is(err, ErrDeadline) detects
	// it, and Stats.DeadlineExceeded counts it.
	ErrDeadline = errors.New("engine: flow deadline exceeded")
	// errClosing aborts service exchanges when the mediator is being
	// torn down (Close, or Shutdown past its deadline).
	errClosing = errors.New("engine: mediator closing")
)

// Side configures one color of the mediator.
type Side struct {
	// Binder maps between concrete packets and abstract action messages.
	Binder bind.Binder
	// Net carries the color's network semantics (transport defaults tcp).
	Net network.Semantics
	// Target is the service address for client-role colors (ignored on the
	// server color).
	Target string
	// Dialer optionally overrides how service connections are opened for
	// this side; tests use it to inject faulty transports. Defaults to
	// the network engine with the configured dial timeout.
	Dialer func(sem network.Semantics, addr string, framer network.Framer) (network.Conn, error)
}

// RetryPolicy is the explicit fault-recovery policy for service-side
// exchanges: every field means exactly what it says, with no magic
// zero or negative values. A nil Config.Retry takes the defaults
// (DefaultRetryAttempts, DefaultBackoff).
type RetryPolicy struct {
	// Attempts is how many times a failed service exchange is retried on
	// a fresh connection before the session fails (0 = the first failure
	// is final).
	Attempts int
	// Backoff seeds the backoff window: before retry n the session
	// sleeps a full-jitter delay drawn uniformly from
	// (0, min(Backoff<<n, MaxBackoff)] (0 = retry immediately).
	Backoff time.Duration
	// MaxBackoff caps the exponential growth of the backoff window
	// (0 = DefaultMaxBackoff). The shifted window saturates at the cap,
	// including when the shift itself overflows at high attempt counts.
	MaxBackoff time.Duration
	// Disabled turns fault recovery off entirely; the other fields are
	// ignored.
	Disabled bool
}

// attempts is the number of retries the policy allows.
func (p RetryPolicy) attempts() int {
	if p.Disabled {
		return 0
	}
	return p.Attempts
}

// delay computes the sleep before retry attempt+1: full jitter drawn
// uniformly over an exponentially growing window, clamped to
// MaxBackoff. The shift saturates at the cap — for attempt counts
// large enough that Backoff<<attempt would overflow, the window is the
// cap, never a skipped sleep (a signed-overflow result used to fail
// the d > 0 guard and turn the retry loop hot).
func (p RetryPolicy) delay(attempt int) time.Duration {
	if p.Disabled || p.Backoff <= 0 {
		return 0
	}
	max := p.MaxBackoff
	if max <= 0 {
		max = DefaultMaxBackoff
	}
	window := max
	// Overflow-safe saturation: Backoff<<attempt fits below the cap iff
	// Backoff <= max>>attempt (for attempt < 64; beyond that the window
	// is certainly saturated).
	if attempt < 64 && p.Backoff <= max>>uint(attempt) {
		window = p.Backoff << uint(attempt)
	}
	return time.Duration(rand.Int64N(int64(window))) + 1
}

// Config assembles a mediator.
type Config struct {
	// Merged is the concrete merged automaton to interpret.
	Merged *automata.Merged
	// ServerColor is the color whose application connects *to* the
	// mediator (defaults to Merged.Color1).
	ServerColor int
	// Sides configures each color.
	Sides map[int]*Side
	// HostMap resolves logical hosts set by the MTL sethost keyword to
	// real addresses (the simulation stand-in for DNS/deployment).
	HostMap map[string]string
	// Backends maps a logical service name to a replica set
	// (internal/backend). A client-role Side.Target — or a HostMap
	// resolution — that names a key of this map is load-balanced instead
	// of dialled literally: each pool checkout picks a live replica via
	// the set's policy, every exchange outcome is reported back for
	// passive outlier ejection, and the fault-recovery redial retries a
	// different healthy replica. An ejected replica's idle pooled
	// connections are flushed. The mediator owns the sets: Start starts
	// their health probers, Close/Shutdown stop them.
	Backends map[string]*backend.Set
	// Discovery holds the reconcilers (internal/discovery) that drive
	// Backends membership from live sources. The mediator owns them
	// like it owns the sets: Start launches their reconcile loops,
	// Close/Shutdown stops them (closing their sources), and a gateway
	// hot swap adopts their counters via AdoptDiscovery. Every
	// reconciler must drive a set present in Backends.
	Discovery []*discovery.Reconciler
	// Funcs adds extra MTL functions.
	Funcs map[string]mtl.Func
	// ExchangeTimeout bounds each network exchange (default 10s).
	ExchangeTimeout time.Duration
	// Retry, when non-nil, is the service-side fault-recovery policy;
	// nil means the defaults (DefaultRetryAttempts retries with
	// DefaultBackoff initial backoff, capped at DefaultMaxBackoff).
	Retry *RetryPolicy
	// FlowDeadline is the per-flow deadline budget: the wall-clock
	// ceiling, measured from the arrival of a flow's first client
	// request, that every blocking step of the flow's mediation —
	// service dials, pool checkout waits, retry backoffs, coalesced
	// cache waits and the exchanges themselves — is charged against.
	// Per-attempt network deadlines become min(ExchangeTimeout,
	// remaining budget), so worst-case flow latency is bounded by the
	// budget instead of stacking attempts × ExchangeTimeout + backoffs.
	// An exhausted budget fails the flow fast with ErrDeadline.
	// 0 means the default, 2 × ExchangeTimeout; a negative value
	// disables flow budgets entirely (pre-budget behavior).
	FlowDeadline time.Duration
	// Cache, when non-nil, enables the shared cross-flow response cache
	// (internal/rcache) for the declared service operations. All
	// sessions of the mediator share one cache; a flow about to send a
	// cacheable request either serves a deep-cloned cached reply, joins
	// an in-flight identical exchange, or executes it and populates the
	// cache.
	Cache *CachePolicy
	// DialTimeout bounds each service dial — and, pool-side, how long a
	// session waits for a pooled connection when the pool is at its
	// bound (default network.DefaultDialTimeout).
	DialTimeout time.Duration
	// PoolSize caps the pooled service connections per (color, address).
	// A session needing a connection beyond the cap waits, bounded by
	// DialTimeout, for another session to check one in. 0 means
	// DefaultPoolSize.
	PoolSize int
	// PoolIdle bounds how long an idle pooled service connection stays
	// warm for the next session before it is reaped. 0 means
	// DefaultPoolIdle; a negative value disables idle keep-alive (every
	// checkin closes its connection), effectively turning pooling off.
	PoolIdle time.Duration
	// Trace, when non-nil, receives one event per observable mediation
	// step (state entered, transition fired, redial, session error). It
	// is called synchronously from session goroutines and must be fast,
	// non-blocking and concurrency-safe; a panicking hook is recovered
	// and counted in Stats.HookPanics instead of killing the session.
	Trace func(TraceEvent)
	// Observer, when non-nil, receives the same events as Trace through
	// the structured sink interface (internal/observe implements it).
	// The same contract applies: called synchronously from session
	// goroutines, must not block, panics are recovered and counted.
	Observer Observer
}

// Observer is a structured trace sink: it receives every TraceEvent a
// Config.Trace hook would, as an interface so observability subsystems
// can be plugged in without closure indirection. Implementations must
// be concurrency-safe and must not block — they run inline on the
// mediation hot path.
type Observer interface {
	ObserveTrace(TraceEvent)
}

// retryPolicy resolves the effective fault-recovery policy: the Retry
// field when set (validated), else the defaults.
func (c Config) retryPolicy() (RetryPolicy, error) {
	if c.Retry == nil {
		return RetryPolicy{Attempts: DefaultRetryAttempts, Backoff: DefaultBackoff}, nil
	}
	p := *c.Retry
	if p.Disabled {
		return RetryPolicy{Disabled: true}, nil
	}
	if p.Attempts < 0 {
		return RetryPolicy{}, fmt.Errorf("%w: negative RetryPolicy.Attempts %d", ErrConfig, p.Attempts)
	}
	if p.Backoff < 0 {
		return RetryPolicy{}, fmt.Errorf("%w: negative RetryPolicy.Backoff %v", ErrConfig, p.Backoff)
	}
	if p.MaxBackoff < 0 {
		return RetryPolicy{}, fmt.Errorf("%w: negative RetryPolicy.MaxBackoff %v", ErrConfig, p.MaxBackoff)
	}
	return p, nil
}

// DefaultRetryAttempts, DefaultBackoff and DefaultMaxBackoff are the
// fault-recovery defaults applied when Config.Retry is nil (the cap
// also applies whenever RetryPolicy.MaxBackoff is left zero).
const (
	DefaultRetryAttempts = 2
	DefaultBackoff       = 50 * time.Millisecond
	DefaultMaxBackoff    = 2 * time.Second
)

// CacheRule declares one cacheable service operation: replies to it
// are stored for TTL and served to later identical requests. Vary,
// when non-empty, restricts which request field paths participate in
// the cache key (the spec's `vary=` clause); otherwise the whole
// outbound field tree does.
type CacheRule struct {
	// TTL is how long a stored reply stays servable. It must be > 0.
	TTL time.Duration
	// Vary lists the request field paths that distinguish cache
	// entries; empty means all fields.
	Vary []string
}

// CachePolicy is the spec-driven configuration of the shared response
// cache (the `cacheable`/`invalidates`/`cache_size`/`cache_shards`
// directives of a .mediator document).
type CachePolicy struct {
	// Rules maps cacheable service operation names to their rule.
	Rules map[string]CacheRule
	// Invalidates maps a write operation to the cacheable operations
	// whose entries it flushes when sent.
	Invalidates map[string][]string
	// MaxEntries bounds the number of stored replies (0 = rcache
	// default).
	MaxEntries int
	// Shards is the number of independently locked cache segments
	// (0 = rcache default).
	Shards int
}

// DefaultPoolSize and DefaultPoolIdle are the service-pool defaults
// applied when Config leaves the knobs zero.
const (
	DefaultPoolSize = pool.DefaultMaxActive
	DefaultPoolIdle = pool.DefaultIdleTimeout
)

// TraceKind classifies TraceEvents.
type TraceKind int

// Trace event kinds.
const (
	// TraceState fires when a session's automaton enters a state.
	TraceState TraceKind = iota
	// TraceTransition fires after a transition executes.
	TraceTransition
	// TraceRedial fires when a service connection is replaced (fault
	// recovery or a sethost retarget after the first checkout).
	TraceRedial
	// TraceError fires when a session ends with an error; it doubles as
	// the end marker of the flow that failed.
	TraceError
	// TraceFlowStart fires when a flow's first client request arrives.
	TraceFlowStart
	// TraceFlowEnd fires when an automaton traversal completes cleanly:
	// just before the final client reply is written, so a client holding
	// its answer finds the flow already published.
	TraceFlowEnd
	// TraceSessionEnd fires when a session's goroutine exits, however it
	// ended; observers use it to release per-session state.
	TraceSessionEnd
	// TraceCacheHit fires when a service exchange is answered from the
	// shared response cache instead of the network — either a stored
	// reply (Attempt 0) or a coalesced join of an in-flight leader's
	// exchange (Attempt 1). State carries the operation name.
	TraceCacheHit
)

// String names the kind for logs.
func (k TraceKind) String() string {
	switch k {
	case TraceState:
		return "state"
	case TraceTransition:
		return "transition"
	case TraceRedial:
		return "redial"
	case TraceError:
		return "error"
	case TraceFlowStart:
		return "flow-start"
	case TraceFlowEnd:
		return "flow-end"
	case TraceSessionEnd:
		return "session-end"
	case TraceCacheHit:
		return "cache-hit"
	default:
		return fmt.Sprintf("TraceKind(%d)", int(k))
	}
}

// TraceEvent is one observable step of a mediation session, delivered to
// the Config.Trace hook.
type TraceEvent struct {
	// Session numbers the client connection (1-based, in accept order).
	Session uint64
	// Flow numbers the automaton traversal within the session (1-based).
	Flow uint64
	// Kind selects which fields below are meaningful.
	Kind TraceKind
	// Time is when the event was emitted.
	Time time.Time
	// State is the state entered (TraceState) or the transition's target
	// (TraceTransition).
	State string
	// Transition is "from->to" for TraceTransition.
	Transition string
	// Color is the side a message transition or redial concerns.
	Color int
	// Attempt is the retry attempt for TraceRedial (0 for a sethost
	// retarget).
	Attempt int
	// Elapsed is the step duration for TraceTransition and TraceFlowEnd.
	// A client-reply transition is published before its reply is written,
	// so its Elapsed (and the flow's) covers building the reply, not the
	// write.
	Elapsed time.Duration
	// Err carries the cause for TraceError and fault-driven TraceRedial.
	Err error
	// Wire is a truncated copy (at most MaxTraceWire bytes) of the last
	// wire message received before a TraceError — the raw packet a parse
	// or translate fault choked on, for post-hoc diagnosis.
	Wire []byte
	// Budget is the flow's remaining deadline budget when the event was
	// emitted — negative once the deadline has passed, and zero when
	// flow budgets are disabled or the flow has not started.
	Budget time.Duration
}

// MaxTraceWire bounds the wire capture attached to TraceError events.
const MaxTraceWire = 256

// Stats are a mediator's lifetime counters.
type Stats struct {
	// Sessions is the number of client connections accepted.
	Sessions uint64
	// Flows is the number of complete automaton traversals, counted
	// before the final client reply is written.
	Flows uint64
	// Translations is the number of γ transitions executed.
	Translations uint64
	// MessagesIn and MessagesOut count messages received from and sent to
	// either side.
	MessagesIn, MessagesOut uint64
	// Failures is the number of sessions that ended with an error other
	// than the client disconnecting between flows.
	Failures uint64
	// Redials counts service connections that were replaced during a
	// session — after a transport fault or a sethost retarget.
	Redials uint64
	// RetriesExhausted counts service exchanges that still failed after
	// every configured retry.
	RetriesExhausted uint64
	// ClientFailures counts failed exchanges with the client application
	// (unparseable requests, unexpected actions, reply send errors).
	ClientFailures uint64
	// ServiceFailures counts service-side exchanges that failed for good
	// (retries exhausted, protocol errors, unparseable replies).
	ServiceFailures uint64
	// PoolHits counts service-connection checkouts served by an idle
	// pooled connection instead of a dial.
	PoolHits uint64
	// PoolDials counts service-connection checkouts that opened a fresh
	// connection. PoolDials well below Sessions is pool reuse at work.
	PoolDials uint64
	// PoolEvictions counts pooled connections closed early: idle
	// timeout, health-check rejection, idle overflow, or fault discard.
	PoolEvictions uint64
	// PoolWaitTimeouts counts checkout waiters that gave up — their
	// flow budget or dial timeout expired while the pool was at its
	// bound with no connection checked back in.
	PoolWaitTimeouts uint64
	// DeadlineExceeded counts flows that failed fast because their
	// deadline budget (Config.FlowDeadline) ran out mid-mediation.
	DeadlineExceeded uint64
	// HookPanics counts panics recovered from user Trace/Observer hooks.
	// A non-zero value means an observability callback is buggy; the
	// mediation flows themselves were unaffected.
	HookPanics uint64
	// CacheHits counts service exchanges answered from a stored reply;
	// CacheMisses counts cache lookups that led a fresh exchange;
	// CacheCoalesced counts exchanges that joined an in-flight leader;
	// CacheEvictions counts entries dropped by LRU pressure or TTL
	// expiry; CacheInvalidations counts entries flushed by write
	// operations. All zero unless Config.Cache is set.
	CacheHits, CacheMisses, CacheCoalesced uint64
	CacheEvictions, CacheInvalidations     uint64
}

// statCounters is the internal atomic form of Stats.
type statCounters struct {
	sessions, flows, translations   atomic.Uint64
	messagesIn, messagesOut         atomic.Uint64
	failures                        atomic.Uint64
	redials, retriesExhausted       atomic.Uint64
	clientFailures, serviceFailures atomic.Uint64
	hookPanics                      atomic.Uint64
	deadlineExceeded                atomic.Uint64
}

// Mediator executes merged automata, one session per accepted client
// connection. Its lifecycle: New → Start → (Shutdown | Close).
// Shutdown is the graceful path (stop accepting, drain in-flight flows,
// harvest idle sessions, close the pool); Close is the abrupt one.
type Mediator struct {
	cfg   Config
	retry RetryPolicy
	// flowBudget is the resolved per-flow deadline budget (0 = budgets
	// disabled via a negative Config.FlowDeadline).
	flowBudget time.Duration
	compiled   map[int]*mtl.CompiledProgram // γ transition index -> compiled program
	outs       map[string]outgoing          // state -> outgoing transitions, precomputed
	stats      statCounters
	// clientColors lists the colors the mediator plays the client role
	// for — the colors whose pool keys a backend ejection must flush.
	clientColors []int

	// rcache is the shared cross-flow response cache (nil unless
	// Config.Cache declares cacheable operations); cacheRules and
	// cacheInvalidates are the validated per-operation lookups consulted
	// on every service send.
	rcache           *rcache.Cache
	cacheRules       map[string]CacheRule
	cacheInvalidates map[string][]string

	// transitions, exchanges and translate are the latency histograms
	// behind Snapshot: per-transition execution, per-service-exchange
	// round-trip and per-γ-translation, lock-free log-scale bins.
	transitions histogram
	exchanges   histogram
	translate   histogram

	// draining refuses new flows (set by Shutdown); stopping aborts
	// in-flight service retries (set by Close and the Shutdown deadline).
	draining atomic.Bool
	stopping atomic.Bool

	mu       sync.Mutex
	closed   bool
	listener network.Listener
	pool     *pool.Pool
	conns    map[network.Conn]struct{} // client conns of live sessions
	svcConns map[network.Conn]struct{} // checked-out service conns
	idle     map[network.Conn]struct{} // client conns parked between flows
	wg       sync.WaitGroup
}

// Stats returns a snapshot of the mediator's counters.
func (m *Mediator) Stats() Stats {
	st := Stats{
		Sessions:         m.stats.sessions.Load(),
		Flows:            m.stats.flows.Load(),
		Translations:     m.stats.translations.Load(),
		MessagesIn:       m.stats.messagesIn.Load(),
		MessagesOut:      m.stats.messagesOut.Load(),
		Failures:         m.stats.failures.Load(),
		Redials:          m.stats.redials.Load(),
		RetriesExhausted: m.stats.retriesExhausted.Load(),
		ClientFailures:   m.stats.clientFailures.Load(),
		ServiceFailures:  m.stats.serviceFailures.Load(),
		HookPanics:       m.stats.hookPanics.Load(),
		DeadlineExceeded: m.stats.deadlineExceeded.Load(),
	}
	m.mu.Lock()
	p := m.pool
	m.mu.Unlock()
	if p != nil {
		ps := p.Stats()
		st.PoolHits, st.PoolDials, st.PoolEvictions = ps.Hits, ps.Dials, ps.Evictions()
		st.PoolWaitTimeouts = ps.WaitTimeouts
	}
	if m.rcache != nil {
		cs := m.rcache.Stats()
		st.CacheHits, st.CacheMisses, st.CacheCoalesced = cs.Hits, cs.Misses, cs.Coalesced
		st.CacheEvictions, st.CacheInvalidations = cs.Evictions, cs.Invalidations
	}
	return st
}

// CacheFlush drops every reply from the cross-flow response cache,
// forcing the next cacheable exchange of each key back to the service.
// It returns the number of entries dropped, and is a no-op for
// mediators deployed without a cache policy.
func (m *Mediator) CacheFlush() int {
	if m.rcache == nil {
		return 0
	}
	return m.rcache.Flush()
}

// New validates the configuration and pre-compiles all γ MTL programs.
func New(cfg Config) (*Mediator, error) {
	if cfg.Merged == nil {
		return nil, fmt.Errorf("%w: no merged automaton", ErrConfig)
	}
	if cfg.ServerColor == 0 {
		cfg.ServerColor = cfg.Merged.Color1
	}
	if cfg.ExchangeTimeout == 0 {
		cfg.ExchangeTimeout = 10 * time.Second
	}
	if cfg.PoolSize < 0 {
		return nil, fmt.Errorf("%w: negative PoolSize %d", ErrConfig, cfg.PoolSize)
	}
	retry, err := cfg.retryPolicy()
	if err != nil {
		return nil, err
	}
	colors := map[int]bool{}
	serviceSends := map[string]bool{}
	for _, t := range cfg.Merged.Transitions {
		if t.Kind == automata.KindMessage {
			colors[t.Color] = true
			if t.Color != cfg.ServerColor && t.Action == automata.Send {
				serviceSends[t.Message] = true
			}
		}
	}
	for c := range colors {
		side := cfg.Sides[c]
		if side == nil || side.Binder == nil {
			return nil, fmt.Errorf("%w: no binder for color %d", ErrConfig, c)
		}
		if c != cfg.ServerColor && side.Target == "" {
			return nil, fmt.Errorf("%w: no target address for client color %d", ErrConfig, c)
		}
	}
	if !colors[cfg.ServerColor] {
		return nil, fmt.Errorf("%w: server color %d has no transitions", ErrConfig, cfg.ServerColor)
	}
	for name, set := range cfg.Backends {
		if set == nil {
			return nil, fmt.Errorf("%w: backend set %q is nil", ErrConfig, name)
		}
	}
	for i, rec := range cfg.Discovery {
		if rec == nil {
			return nil, fmt.Errorf("%w: discovery reconciler %d is nil", ErrConfig, i)
		}
		if cfg.Backends[rec.SetName()] != rec.Backend() {
			return nil, fmt.Errorf("%w: discovery reconciler %d drives set %q, which is not in Backends", ErrConfig, i, rec.SetName())
		}
	}
	if cfg.Cache != nil {
		if cfg.Cache.MaxEntries < 0 {
			return nil, fmt.Errorf("%w: negative CachePolicy.MaxEntries %d", ErrConfig, cfg.Cache.MaxEntries)
		}
		if cfg.Cache.Shards < 0 {
			return nil, fmt.Errorf("%w: negative CachePolicy.Shards %d", ErrConfig, cfg.Cache.Shards)
		}
		for op, rule := range cfg.Cache.Rules {
			if !serviceSends[op] {
				return nil, fmt.Errorf("%w: cacheable operation %q is not a service-side invocation of the automaton", ErrConfig, op)
			}
			if rule.TTL <= 0 {
				return nil, fmt.Errorf("%w: cacheable operation %q needs a positive ttl, got %v", ErrConfig, op, rule.TTL)
			}
		}
		for op, targets := range cfg.Cache.Invalidates {
			if !serviceSends[op] {
				return nil, fmt.Errorf("%w: invalidating operation %q is not a service-side invocation of the automaton", ErrConfig, op)
			}
			for _, target := range targets {
				if _, ok := cfg.Cache.Rules[target]; !ok {
					return nil, fmt.Errorf("%w: operation %q invalidates %q, which is not declared cacheable", ErrConfig, op, target)
				}
			}
		}
	}
	// Resolve the flow budget: explicit when positive, derived from the
	// exchange timeout when left zero (one full exchange plus headroom
	// for dial, retries and translation), disabled when negative.
	var flowBudget time.Duration
	switch {
	case cfg.FlowDeadline > 0:
		flowBudget = cfg.FlowDeadline
	case cfg.FlowDeadline == 0:
		flowBudget = 2 * cfg.ExchangeTimeout
	}
	m := &Mediator{
		cfg:        cfg,
		retry:      retry,
		flowBudget: flowBudget,
		compiled:   make(map[int]*mtl.CompiledProgram),
		outs:       make(map[string]outgoing),
		conns:      make(map[network.Conn]struct{}),
		svcConns:   make(map[network.Conn]struct{}),
		idle:       make(map[network.Conn]struct{}),
	}
	for c := range colors {
		if c != cfg.ServerColor {
			m.clientColors = append(m.clientColors, c)
		}
	}
	sort.Ints(m.clientColors)
	if cfg.Cache != nil && len(cfg.Cache.Rules) > 0 {
		m.rcache = rcache.New(rcache.Options{
			MaxEntries: cfg.Cache.MaxEntries,
			Shards:     cfg.Cache.Shards,
		})
		m.cacheRules = cfg.Cache.Rules
		m.cacheInvalidates = cfg.Cache.Invalidates
	}
	handles := make([]string, len(cfg.Merged.States))
	for i, st := range cfg.Merged.States {
		handles[i] = st.Name
	}
	for i, t := range cfg.Merged.Transitions {
		o := m.outs[t.From]
		o.ts = append(o.ts, t)
		o.idx = append(o.idx, i)
		m.outs[t.From] = o
		if t.Kind != automata.KindGamma {
			continue
		}
		prog, err := mtl.Parse(stripComments(t.MTL))
		if err != nil {
			return nil, fmt.Errorf("%w: γ %s->%s: %v", ErrConfig, t.From, t.To, err)
		}
		cp, err := mtl.Compile(prog, mtl.CompileOptions{Handles: handles, Funcs: cfg.Funcs})
		if err != nil {
			return nil, fmt.Errorf("%w: γ %s->%s: %v", ErrConfig, t.From, t.To, err)
		}
		m.compiled[i] = cp
	}
	return m, nil
}

// outgoing is a state's outgoing transitions with their global indices,
// precomputed in New so each automaton step is O(1) instead of a rescan
// of the whole transition list.
type outgoing struct {
	ts  []automata.MergedTransition
	idx []int
}

// stripComments drops generator comment lines so auto-generated MTL with
// unresolved-field notes still compiles.
func stripComments(src string) string {
	lines := strings.Split(src, "\n")
	out := lines[:0]
	for _, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "#") {
			continue
		}
		out = append(out, l)
	}
	return strings.Join(out, "\n")
}

// poolOptions maps the mediator configuration onto the shared service
// pool: the configured bounds plus a dial hook that honours each side's
// Dialer override.
func (m *Mediator) poolOptions() pool.Options {
	opts := pool.Options{
		MaxActive:   m.cfg.PoolSize,
		IdleTimeout: m.cfg.PoolIdle,
		Dial: func(ctx context.Context, key pool.Key) (network.Conn, error) {
			side := m.cfg.Sides[key.Color]
			dial := side.Dialer
			if dial == nil {
				// The checkout context carries the dial timeout already
				// clipped to the flow's deadline budget; honour it so
				// dial time counts against the flow instead of running
				// on its own clock.
				timeout := m.cfg.DialTimeout
				if timeout <= 0 {
					timeout = network.DefaultDialTimeout
				}
				if dl, ok := ctx.Deadline(); ok {
					if rem := time.Until(dl); rem < timeout {
						timeout = rem
					}
				}
				if timeout <= 0 {
					return nil, fmt.Errorf("dial %v: %w", key, context.DeadlineExceeded)
				}
				dial = network.Engine{DialTimeout: timeout}.Dial
			}
			return dial(side.Net, key.Addr, side.Binder.Framer())
		},
	}
	if m.cfg.PoolIdle < 0 {
		// Idle keep-alive disabled: nothing is parked, so the timeout
		// reverts to the default (it only governs an empty idle set).
		opts.IdleTimeout = 0
		opts.MaxIdle = -1
	}
	return opts
}

// Start opens the shared service pool and listens for client-side
// connections.
func (m *Mediator) Start(listenAddr string) error {
	side := m.cfg.Sides[m.cfg.ServerColor]
	var eng network.Engine
	l, err := eng.Listen(side.Net, listenAddr, side.Binder.Framer())
	if err != nil {
		return err
	}
	p, err := pool.New(m.poolOptions())
	if err != nil {
		l.Close()
		return err
	}
	m.mu.Lock()
	m.listener = l
	m.pool = p
	m.mu.Unlock()
	m.startBackends()
	m.wg.Add(1)
	go m.acceptLoop()
	return nil
}

// startBackends hooks every replica set into the pool — an ejection or
// a discovery-driven removal flushes the replica's idle connections for
// every client color, since they were dialled to an endpoint now
// presumed sick (or gone) — then starts the sets' health probers and
// the discovery reconcile loops.
func (m *Mediator) startBackends() {
	flush := func(addr string) {
		m.mu.Lock()
		p := m.pool
		m.mu.Unlock()
		if p == nil {
			return
		}
		for _, color := range m.clientColors {
			p.Flush(pool.Key{Color: color, Addr: addr})
		}
	}
	for _, set := range m.cfg.Backends {
		set.OnEject(flush)
		set.OnRemove(flush)
		set.Start()
	}
	for _, rec := range m.cfg.Discovery {
		rec.Start()
	}
}

// closeBackends stops the discovery reconcilers (so membership stops
// churning first) and then every replica set's health prober
// (idempotent).
func (m *Mediator) closeBackends() {
	for _, rec := range m.cfg.Discovery {
		rec.Close()
	}
	for _, set := range m.cfg.Backends {
		set.Close()
	}
}

// Backends snapshots the mediator's replica sets, sorted by name, for
// the admin view and the -backends startup dump. Nil when the mediator
// has none.
func (m *Mediator) Backends() []backend.SetSnapshot {
	if len(m.cfg.Backends) == 0 {
		return nil
	}
	names := make([]string, 0, len(m.cfg.Backends))
	for name := range m.cfg.Backends {
		names = append(names, name)
	}
	sort.Strings(names)
	snaps := make([]backend.SetSnapshot, len(names))
	for i, name := range names {
		snaps[i] = m.cfg.Backends[name].Snapshot()
	}
	return snaps
}

// AdoptBackendHealth carries replica health state (ejections, cooloff
// deadlines, latency EWMAs) from a previous mediator's same-named sets
// into this one's, so a gateway hot swap does not forget which replicas
// are sick and re-route fresh traffic straight back into them.
func (m *Mediator) AdoptBackendHealth(prev *Mediator) {
	if prev == nil {
		return
	}
	for name, set := range m.cfg.Backends {
		if old := prev.cfg.Backends[name]; old != nil {
			set.Adopt(old)
		}
	}
}

// Discovery snapshots the mediator's discovery reconcilers, sorted by
// the set they drive, for the admin /discovery view and the -discover
// startup dump. Nil when the mediator has none.
func (m *Mediator) Discovery() []discovery.Snapshot {
	if len(m.cfg.Discovery) == 0 {
		return nil
	}
	snaps := make([]discovery.Snapshot, len(m.cfg.Discovery))
	for i, rec := range m.cfg.Discovery {
		snaps[i] = rec.Snapshot()
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Set < snaps[j].Set })
	return snaps
}

// AdoptDiscovery carries the cumulative discovery counters from a
// previous mediator's reconcilers into this one's (matched by the set
// they drive), so a gateway hot swap keeps /metrics rates continuous —
// the discovery analogue of AdoptBackendHealth.
func (m *Mediator) AdoptDiscovery(prev *Mediator) {
	if prev == nil {
		return
	}
	for _, rec := range m.cfg.Discovery {
		for _, old := range prev.cfg.Discovery {
			if old.SetName() == rec.SetName() {
				rec.Adopt(old)
			}
		}
	}
}

// PoolStats snapshots the shared service pool's occupancy (zero before
// Start). It backs the per-key pool gauges in internal/observe.
func (m *Mediator) PoolStats() pool.Stats {
	m.mu.Lock()
	p := m.pool
	m.mu.Unlock()
	if p == nil {
		return pool.Stats{}
	}
	return p.Stats()
}

// StartDetached opens the shared service pool without binding a
// client-facing listener: connections are handed in one by one via
// ServeConn. This is how a gateway hosts many mediators behind a single
// front-door listener. Lifecycle is otherwise identical to Start —
// Shutdown drains ServeConn sessions the same way it drains accepted
// ones.
func (m *Mediator) StartDetached() error {
	p, err := pool.New(m.poolOptions())
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.pool = p
	m.mu.Unlock()
	m.startBackends()
	return nil
}

// Addr returns the client-facing address, or "" for a detached
// mediator (StartDetached binds no listener).
func (m *Mediator) Addr() string {
	m.mu.Lock()
	l := m.listener
	m.mu.Unlock()
	if l == nil {
		return ""
	}
	return l.Addr().String()
}

// ServeConn runs a mediation session on a pre-established client
// connection (the gateway accept path). The session runs on its own
// goroutine; ServeConn returns immediately. The mediator takes
// ownership of conn — it is closed when the session ends. ErrDraining
// is returned (and conn left open, for the caller to retarget or
// close) when the mediator is draining, closed or not started.
func (m *Mediator) ServeConn(conn network.Conn) error {
	m.mu.Lock()
	if m.closed || m.draining.Load() || m.pool == nil {
		m.mu.Unlock()
		return ErrDraining
	}
	m.conns[conn] = struct{}{}
	// The wg.Add must happen under the lock: unlike the accept loop
	// (which holds its own wg slot), nothing else keeps Close's wg.Wait
	// from completing between the draining check and the Add.
	m.wg.Add(1)
	m.mu.Unlock()
	m.startSession(conn)
	return nil
}

// ErrDraining is returned by ServeConn when the mediator no longer
// accepts new sessions (draining, closed, or never started).
var ErrDraining = errors.New("engine: mediator draining")

func (m *Mediator) acceptLoop() {
	defer m.wg.Done()
	for {
		conn, err := m.listener.Accept()
		if err != nil {
			return
		}
		m.mu.Lock()
		if m.closed || m.draining.Load() {
			m.mu.Unlock()
			conn.Close()
			return
		}
		m.conns[conn] = struct{}{}
		m.wg.Add(1)
		m.mu.Unlock()
		m.startSession(conn)
	}
}

// startSession spawns the session goroutine for a registered client
// connection (shared by the accept loop and ServeConn); the caller has
// already taken the session's wg slot.
func (m *Mediator) startSession(conn network.Conn) {
	id := m.stats.sessions.Add(1)
	go func() {
		defer m.wg.Done()
		s := &session{
			med:       m,
			id:        id,
			client:    conn,
			services:  make(map[int]*serviceLink),
			lastWire:  make(map[int][]byte),
			sentAt:    make(map[int]time.Time),
			dialed:    make(map[int]struct{}),
			lastFault: make(map[int]string),
		}
		s.run()
	}()
}

// Close abruptly stops the mediator: in-flight sessions are cut off,
// then everything is torn down. Use Shutdown to drain them instead.
func (m *Mediator) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.draining.Store(true)
	m.stopping.Store(true)
	var err error
	if m.listener != nil {
		err = m.listener.Close()
	}
	for c := range m.conns {
		c.Close()
	}
	for c := range m.svcConns {
		c.Close()
	}
	p := m.pool
	m.mu.Unlock()
	m.wg.Wait()
	m.closeBackends()
	if p != nil {
		p.Close()
	}
	return err
}

// Shutdown gracefully stops the mediator: it stops accepting new
// sessions, harvests sessions that are idle between flows, and lets
// in-flight flows finish — a client mid-request still receives its
// reply. When ctx expires first, the remaining sessions are aborted as
// by Close and ctx's error is returned. Either way the service pool is
// closed before Shutdown returns, and the mediator cannot be restarted.
func (m *Mediator) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	var lerr error
	if !m.draining.Swap(true) {
		if m.listener != nil {
			lerr = m.listener.Close()
		}
		for c := range m.idle {
			c.Close()
			delete(m.idle, c)
		}
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		m.stopping.Store(true)
		m.mu.Lock()
		for c := range m.conns {
			c.Close()
		}
		for c := range m.svcConns {
			c.Close()
		}
		m.mu.Unlock()
		<-done
	}
	m.mu.Lock()
	m.closed = true
	p := m.pool
	m.mu.Unlock()
	m.closeBackends()
	if p != nil {
		p.Close()
	}
	if err != nil {
		return err
	}
	return lerr
}

func (m *Mediator) removeConn(c network.Conn) {
	m.mu.Lock()
	delete(m.conns, c)
	delete(m.idle, c)
	m.mu.Unlock()
}

// parkIdle registers a client connection as idle between flows, making
// it harvestable by Shutdown. It reports false when the mediator is
// already draining and the session should end instead of waiting for a
// request that will never be served.
func (m *Mediator) parkIdle(c network.Conn) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.draining.Load() {
		return false
	}
	m.idle[c] = struct{}{}
	return true
}

// unparkIdle marks a client connection active again (a request arrived).
func (m *Mediator) unparkIdle(c network.Conn) {
	m.mu.Lock()
	delete(m.idle, c)
	m.mu.Unlock()
}

// checkout draws a service connection from the shared pool, bounding
// the wait — dial time and pool exhaustion alike — by the configured
// dial timeout, clipped to the flow's deadline budget when one is set
// (a non-zero budget deadline): time already spent on the flow shrinks
// the dial window instead of extending the flow past its deadline.
// Checked-out connections are tracked so an abrupt teardown can
// unblock sessions waiting on them.
func (m *Mediator) checkout(color int, addr string, budget time.Time) (network.Conn, error) {
	timeout := m.cfg.DialTimeout
	if timeout <= 0 {
		timeout = network.DefaultDialTimeout
	}
	deadline := time.Now().Add(timeout)
	if !budget.IsZero() && budget.Before(deadline) {
		deadline = budget
	}
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	m.mu.Lock()
	p := m.pool
	m.mu.Unlock()
	if p == nil {
		return nil, fmt.Errorf("%w: mediator not started", ErrConfig)
	}
	conn, err := p.Get(ctx, pool.Key{Color: color, Addr: addr})
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.svcConns[conn] = struct{}{}
	m.mu.Unlock()
	return conn, nil
}

func (m *Mediator) untrackService(c network.Conn) {
	m.mu.Lock()
	delete(m.svcConns, c)
	m.mu.Unlock()
}

// session is one client connection's execution of the automaton. The
// automaton restarts after reaching a final state so a client can run the
// whole behaviour repeatedly on one connection.
type session struct {
	med      *Mediator
	id       uint64
	client   network.Conn
	services map[int]*serviceLink
	cache    mtl.Cache
	// env is the session's pooled MTL environment: one Env reused across
	// every automaton traversal (Reset clears it between flows), so a
	// steady-state flow allocates no fresh Messages/Vars maps. bound
	// holds the per-state target messages, index-aligned with
	// Merged.States and likewise recycled between flows; parsed inbound
	// messages replace these bindings for the rest of a flow, which is
	// why the slice (not the Env) is the owner.
	env   *mtl.Env
	bound []*message.Message
	// lastWire keeps the last request sent to each service color so a
	// reply lost to a transport fault can be replayed on a fresh
	// connection.
	lastWire map[int][]byte
	// sentAt records when each color's in-flight request was first sent,
	// feeding the per-exchange latency histogram at reply time.
	sentAt map[int]time.Time
	// dialed marks colors that have been checked out at least once, so a
	// replacement checkout is counted as a redial.
	dialed map[int]struct{}
	// lastFault remembers, per balanced color, the replica address of the
	// most recent fault, so the recovery redial avoids retrying the
	// replica that just failed while other candidates are live. Cleared
	// by the next successful exchange.
	lastFault map[int]string
	// hostOverride holds the current flow's sethost retarget; it is
	// cleared when the automaton restarts so one traversal's retarget
	// cannot leak into the next.
	hostOverride string
	// flow numbers the current automaton traversal (1-based); flowT0 is
	// when its first client request arrived, and lastRecv keeps the last
	// wire message received — attached (truncated) to error traces so
	// the flight recorder can show what a parse fault choked on.
	flow     uint64
	flowT0   time.Time
	lastRecv []byte
	// budget is the wall-clock deadline of the current flow, stamped
	// when its first client request arrives (zero while idle between
	// flows, or always when flow budgets are disabled). Every blocking
	// step of the flow is charged against it.
	budget time.Time
	// flowStarted flips once the current traversal has received its
	// first client request; until then the session counts as idle and
	// may be harvested by Shutdown.
	flowStarted bool
	// pendingAction / pendingRequest track a client request that has not
	// been answered yet, so a mediation failure can be reported as a
	// protocol-level fault instead of a dropped connection.
	pendingAction  string
	pendingRequest *message.Message
	// cachePending tracks, per service color, the response-cache role of
	// the exchange between its send and receive transitions: a cached or
	// coalesced reply waiting to be bound, a led flight to fulfil, or a
	// follower-fallback key to populate. Lazily allocated — nil for
	// mediators without a cache.
	cachePending map[int]*pendingCache
}

// pendingCache is one service color's in-progress cache interaction.
type pendingCache struct {
	// reply, when non-nil, is the deep-cloned cached (or coalesced)
	// reply to bind at the receive transition instead of reading the
	// network.
	reply *message.Message
	// flight, when non-nil, is the single-flight this session leads; it
	// is fulfilled when the real reply parses, aborted if the session
	// dies first.
	flight *rcache.Flight
	// key/op/ttl describe where a fetched reply is stored (leader
	// fulfilment or follower fallback).
	key string
	op  string
	ttl time.Duration
}

// serviceLink is a service-side connection checked out of the shared
// pool, together with the pool key's address (so a sethost retarget is
// detected as a key change), the replica set the address was picked
// from (nil for a literal target; the set's in-flight slot is held
// until the link is released) and whether a request is in flight on it
// (a connection with an unconsumed reply cannot be returned to the
// pool — the next session would read a stale reply).
type serviceLink struct {
	conn    network.Conn
	addr    string
	set     *backend.Set
	pending bool
}

// trace delivers ev to the configured hooks, stamping the session id,
// flow number and time. Each hook is shielded individually: a panic in
// one is recovered and counted without starving the other or killing
// the session goroutine mid-flow.
func (s *session) trace(ev TraceEvent) {
	m := s.med
	if m.cfg.Trace == nil && m.cfg.Observer == nil {
		return
	}
	ev.Session = s.id
	ev.Flow = s.flow
	ev.Time = time.Now()
	if !s.budget.IsZero() {
		ev.Budget = s.budget.Sub(ev.Time)
	}
	if m.cfg.Trace != nil {
		m.callHook(func() { m.cfg.Trace(ev) })
	}
	if m.cfg.Observer != nil {
		m.callHook(func() { m.cfg.Observer.ObserveTrace(ev) })
	}
}

// callHook runs one user observability callback, recovering a panic
// into the HookPanics counter so a buggy hook cannot take a session
// down with it.
func (m *Mediator) callHook(hook func()) {
	defer func() {
		if r := recover(); r != nil {
			m.stats.hookPanics.Add(1)
		}
	}()
	hook()
}

// truncWire copies at most MaxTraceWire bytes of a wire message for
// attachment to a TraceError event.
func truncWire(data []byte) []byte {
	if data == nil {
		return nil
	}
	n := len(data)
	if n > MaxTraceWire {
		n = MaxTraceWire
	}
	return append([]byte(nil), data[:n]...)
}

func (s *session) run() {
	defer func() {
		s.trace(TraceEvent{Kind: TraceSessionEnd})
		s.client.Close()
		s.med.removeConn(s.client)
		for color := range s.services {
			s.releaseService(color)
		}
		// A session dying while leading a single-flight must wake its
		// followers so they fall back to their own exchanges.
		s.abortFlights(nil)
	}()
	for {
		s.pendingAction, s.pendingRequest = "", nil
		s.hostOverride = ""
		s.flowStarted = false
		s.budget = time.Time{}
		s.flow++
		if err := s.runAutomaton(); err != nil {
			// A recv error on the very first transition of a flow is the
			// client ending the keep-alive connection, not a failure.
			if !errors.Is(err, errSessionDone) {
				s.med.stats.failures.Add(1)
				s.trace(TraceEvent{Kind: TraceError, Err: err, Wire: truncWire(s.lastRecv)})
				s.sendErrorReply(err)
			}
			return
		}
		if s.med.draining.Load() {
			// Shutdown in progress: the flow's reply is out, end the
			// session instead of waiting for another request.
			return
		}
	}
}

// endFlow publishes a completed traversal: the Flows counter and the
// TraceFlowEnd event. runAutomaton calls it before handing the final
// client reply to the transport, so a client that has read its answer
// finds the flow already accounted.
func (s *session) endFlow() {
	s.med.stats.flows.Add(1)
	if s.flowStarted {
		s.trace(TraceEvent{Kind: TraceFlowEnd, Elapsed: time.Since(s.flowT0)})
	}
}

// errSessionDone marks the clean end of a session (client disconnected
// between flows, or the mediator drained it).
var errSessionDone = errors.New("engine: session done")

// recvClientRequest reads one client request. The flow-initial read
// carries no deadline — an idle keep-alive connection may sit between
// flows indefinitely — and parks the session as idle first, so a
// Shutdown can harvest clients that are merely holding their
// connection open. Once a flow has started its budget deadline is
// stamped, and mid-flow reads (the client's next request of a
// multi-exchange traversal) are bounded by it.
func (s *session) recvClientRequest() ([]byte, error) {
	if s.flowStarted {
		if err := s.client.SetDeadline(s.budget); err != nil {
			return nil, err
		}
		data, err := s.client.Recv()
		if err == nil {
			s.lastRecv = data
		}
		return data, err
	}
	if err := s.client.SetDeadline(time.Time{}); err != nil {
		return nil, err
	}
	if !s.med.parkIdle(s.client) {
		return nil, errSessionDone
	}
	data, err := s.client.Recv()
	s.med.unparkIdle(s.client)
	if err != nil {
		return nil, err
	}
	s.flowStarted = true
	s.flowT0 = time.Now()
	if fb := s.med.flowBudget; fb > 0 {
		s.budget = s.flowT0.Add(fb)
	}
	s.lastRecv = data
	s.trace(TraceEvent{Kind: TraceFlowStart})
	return data, nil
}

// remaining reports the time left in the flow's deadline budget; ok is
// false when budgets are disabled or the flow has not started.
func (s *session) remaining() (time.Duration, bool) {
	if s.budget.IsZero() {
		return 0, false
	}
	return time.Until(s.budget), true
}

// exchangeDeadline is the per-attempt network deadline: the exchange
// timeout, clipped to the flow's remaining budget so attempts cannot
// stack past the flow deadline.
func (s *session) exchangeDeadline() time.Time {
	d := time.Now().Add(s.med.cfg.ExchangeTimeout)
	if !s.budget.IsZero() && s.budget.Before(d) {
		return s.budget
	}
	return d
}

// budgetExceeded records one flow-budget exhaustion and builds the
// typed fast-fail error, carrying the last transport error (if any)
// for diagnosis.
func (s *session) budgetExceeded(op string, color int, lastErr error) error {
	s.med.stats.deadlineExceeded.Add(1)
	s.med.stats.serviceFailures.Add(1)
	if lastErr != nil {
		return fmt.Errorf("%s (color %d): %w (last attempt: %v)", op, color, ErrDeadline, lastErr)
	}
	return fmt.Errorf("%s (color %d): %w", op, color, ErrDeadline)
}

// sendErrorReply reports a mediation failure to a client that is still
// waiting for an answer, if the client-side binder can build faults.
func (s *session) sendErrorReply(cause error) {
	if s.pendingAction == "" {
		return
	}
	side := s.med.cfg.Sides[s.med.cfg.ServerColor]
	replier, ok := side.Binder.(bind.ErrorReplier)
	if !ok {
		return
	}
	data, err := replier.BuildErrorReply(s.pendingAction, s.pendingRequest, cause.Error())
	if err != nil {
		return
	}
	if err := s.client.SetDeadline(time.Now().Add(s.med.cfg.ExchangeTimeout)); err != nil {
		return
	}
	// The session ends either way; a fault that cannot be delivered has
	// no one left to report to.
	_ = s.sendClient(data)
}

// sendClient hands one message to the client connection. It is counted
// before it is on the wire, so a client holding its reply never reads a
// MessagesOut that lacks it, and taken back if the send fails.
func (s *session) sendClient(data []byte) error {
	s.med.stats.messagesOut.Add(1)
	err := s.client.Send(data)
	if err != nil {
		s.med.stats.messagesOut.Add(^uint64(0))
	}
	return err
}

// runAutomaton executes one start-to-final traversal.
func (s *session) runAutomaton() error {
	merged := s.med.cfg.Merged
	env := s.env
	if env == nil {
		env = mtl.NewEnv(&s.cache)
		env.Funcs = s.med.cfg.Funcs
		s.env = env
		s.bound = make([]*message.Message, len(merged.States))
	} else {
		env.Reset()
	}
	for i, st := range merged.States {
		// Recycle the per-state target messages: a flow's parsed inbound
		// messages are bound over these, so by the next traversal the
		// recycled tree is unreferenced and safe to truncate in place.
		msg := s.bound[i]
		if msg == nil {
			msg = message.New("")
			s.bound[i] = msg
		} else {
			msg.Name = ""
			msg.Fields = msg.Fields[:0]
		}
		env.Bind(st.Name, msg)
	}
	state := merged.Start
	lastClientAction := ""
	var lastClientRequest *message.Message
	lastServiceAction := map[int]string{}

	s.trace(TraceEvent{Kind: TraceState, State: state})
	for !merged.IsFinal(state) {
		out := s.med.outs[state]
		if len(out.ts) == 0 {
			return fmt.Errorf("%w: state %s has no outgoing transitions", ErrStuck, state)
		}
		if len(out.ts) > 1 {
			// Branch state: the client application chooses the next
			// operation. All alternatives must be client-side invocations;
			// the received action selects the branch.
			start := time.Now()
			next, err := s.execBranch(out.ts, env, &lastClientAction, &lastClientRequest)
			if err != nil {
				return err
			}
			elapsed := time.Since(start)
			s.med.transitions.observe(elapsed)
			s.trace(TraceEvent{
				Kind: TraceTransition, State: next, Transition: state + "->" + next,
				Color: s.med.cfg.ServerColor, Elapsed: elapsed,
			})
			state = next
			s.trace(TraceEvent{Kind: TraceState, State: state})
			continue
		}
		t, idx := out.ts[0], out.idx[0]
		start := time.Now()
		var reply []byte
		switch t.Kind {
		case automata.KindGamma:
			env.Host = ""
			if err := s.med.compiled[idx].Exec(env); err != nil {
				return fmt.Errorf("γ %s->%s: %w", t.From, t.To, err)
			}
			s.med.stats.translations.Add(1)
			s.med.translate.observe(time.Since(start))
			if env.Host != "" {
				s.hostOverride = env.Host
			}
		case automata.KindMessage:
			var err error
			reply, err = s.execMessage(t, env, &lastClientAction, &lastClientRequest, lastServiceAction)
			if err != nil {
				return err
			}
		}
		elapsed := time.Since(start)
		s.med.transitions.observe(elapsed)
		s.trace(TraceEvent{
			Kind: TraceTransition, State: t.To, Transition: t.From + "->" + t.To,
			Color: t.Color, Elapsed: elapsed,
		})
		state = t.To
		s.trace(TraceEvent{Kind: TraceState, State: state})
		if reply != nil {
			// Everything a reply implies is published before the client
			// can read it: the transition above, and the flow when this
			// reply ends it.
			if merged.IsFinal(state) {
				s.endFlow()
				return s.sendClientReply(reply)
			}
			if err := s.sendClientReply(reply); err != nil {
				return err
			}
		}
	}
	// A traversal that does not end in a client reply.
	s.endFlow()
	return nil
}

// sendClientReply writes a built client reply within the exchange
// deadline and clears the pending request it answers.
func (s *session) sendClientReply(data []byte) error {
	if err := s.client.SetDeadline(s.exchangeDeadline()); err != nil {
		return err
	}
	if err := s.sendClient(data); err != nil {
		s.med.stats.clientFailures.Add(1)
		return fmt.Errorf("send client reply: %w", err)
	}
	s.pendingAction, s.pendingRequest = "", nil
	return nil
}

// execBranch receives the client's next request at a branch state and
// follows the alternative carrying that action. Every alternative must be
// a server-color Send transition (the models express "the client decides
// what to do next" only on its own invocations).
func (s *session) execBranch(
	outs []automata.MergedTransition,
	env *mtl.Env,
	lastClientAction *string,
	lastClientRequest **message.Message,
) (string, error) {
	cfg := s.med.cfg
	for _, t := range outs {
		if t.Kind != automata.KindMessage || t.Color != cfg.ServerColor || t.Action != automata.Send {
			return "", fmt.Errorf("%w: branch state %s mixes non-client-invocation alternatives",
				ErrStuck, t.From)
		}
	}
	side := cfg.Sides[cfg.ServerColor]
	data, err := s.recvClientRequest()
	if err != nil {
		return "", fmt.Errorf("%w: %v", errSessionDone, err)
	}
	s.med.stats.messagesIn.Add(1)
	action, abs, err := side.Binder.ParseRequest(data)
	if err != nil {
		s.med.stats.clientFailures.Add(1)
		return "", fmt.Errorf("parse client request: %w", err)
	}
	s.pendingAction, s.pendingRequest = action, abs
	for _, t := range outs {
		if t.Message != action {
			continue
		}
		*lastClientAction = action
		*lastClientRequest = abs
		env.Bind(t.To, abs)
		return t.To, nil
	}
	s.med.stats.clientFailures.Add(1)
	return "", fmt.Errorf("%w: got %q, automaton offers %s at %s",
		ErrUnexpectedAction, action, branchNames(outs), outs[0].From)
}

func branchNames(outs []automata.MergedTransition) string {
	names := make([]string, len(outs))
	for i, t := range outs {
		names[i] = t.Message
	}
	return strings.Join(names, "|")
}

func (s *session) execMessage(
	t automata.MergedTransition,
	env *mtl.Env,
	lastClientAction *string,
	lastClientRequest **message.Message,
	lastServiceAction map[int]string,
) ([]byte, error) {
	cfg := s.med.cfg
	side := cfg.Sides[t.Color]
	serverSide := t.Color == cfg.ServerColor
	switch {
	case serverSide && t.Action == automata.Send:
		// Client invokes: mediator receives the request.
		data, err := s.recvClientRequest()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errSessionDone, err) // client gone
		}
		s.med.stats.messagesIn.Add(1)
		action, abs, err := side.Binder.ParseRequest(data)
		if err != nil {
			s.med.stats.clientFailures.Add(1)
			return nil, fmt.Errorf("parse client request: %w", err)
		}
		// Record the pending request before validating it, so even an
		// unexpected action is answered with a fault.
		s.pendingAction, s.pendingRequest = action, abs
		if action != t.Message {
			s.med.stats.clientFailures.Add(1)
			return nil, fmt.Errorf("%w: got %q, automaton expects %q at %s",
				ErrUnexpectedAction, action, t.Message, t.From)
		}
		*lastClientAction = action
		*lastClientRequest = abs
		env.Bind(t.To, abs)
	case serverSide && t.Action == automata.Receive:
		// Client receives: build the translated reply. The caller sends
		// it, after accounting this transition.
		abs := env.Message(t.From)
		if abs == nil {
			abs = message.New(t.Message)
		}
		abs.Name = t.Message
		copyCorrelationFields(*lastClientRequest, abs)
		data, err := side.Binder.BuildReply(*lastClientAction, abs)
		if err != nil {
			return nil, fmt.Errorf("build client reply: %w", err)
		}
		return data, nil
	case t.Action == automata.Send:
		// Mediator invokes the service.
		abs := env.Message(t.From)
		if abs == nil {
			abs = message.New(t.Message)
		}
		abs.Name = t.Message
		if s.med.rcache != nil && s.cacheCheck(t, abs) {
			// Answered from the cache (or a coalesced in-flight
			// exchange): no network send, the reply is parked for the
			// receive transition.
			lastServiceAction[t.Color] = t.Message
			return nil, nil
		}
		data, err := side.Binder.BuildRequest(t.Message, abs)
		if err != nil {
			s.abortFlight(t.Color, err)
			return nil, fmt.Errorf("build service request: %w", err)
		}
		if err := s.serviceSend(t.Color, data); err != nil {
			s.abortFlight(t.Color, err)
			return nil, err
		}
		s.med.stats.messagesOut.Add(1)
		lastServiceAction[t.Color] = t.Message
	default:
		// Mediator receives the service reply.
		if pc := s.cachePending[t.Color]; pc != nil && pc.reply != nil {
			// Serve the parked cached/coalesced reply without touching
			// the network.
			delete(s.cachePending, t.Color)
			abs := pc.reply
			abs.Name = t.Message
			env.Bind(t.To, abs)
			return nil, nil
		}
		data, err := s.serviceRecv(t.Color)
		if err != nil {
			s.abortFlight(t.Color, err)
			return nil, err
		}
		s.med.stats.messagesIn.Add(1)
		abs, err := side.Binder.ParseReply(lastServiceAction[t.Color], data)
		if err != nil {
			s.abortFlight(t.Color, err)
			s.med.stats.serviceFailures.Add(1)
			return nil, fmt.Errorf("parse service reply: %w", err)
		}
		abs.Name = t.Message
		if pc := s.cachePending[t.Color]; pc != nil {
			delete(s.cachePending, t.Color)
			if pc.flight != nil {
				s.med.rcache.Fulfill(pc.flight, abs, pc.ttl)
			} else {
				s.med.rcache.Put(pc.op, pc.key, abs, pc.ttl)
			}
		}
		env.Bind(t.To, abs)
	}
	return nil, nil
}

// cacheCheck runs the response-cache protocol for one service-side
// invocation: write operations flush the entries they invalidate, and
// cacheable operations are looked up. It reports true when the reply
// is already in hand (cache hit or coalesced join) and the network
// exchange must be skipped; false means the caller proceeds with the
// real exchange, with cachePending recording how its reply feeds back
// into the cache.
func (s *session) cacheCheck(t automata.MergedTransition, abs *message.Message) bool {
	m := s.med
	if targets := m.cacheInvalidates[t.Message]; len(targets) > 0 {
		m.rcache.Invalidate(targets)
	}
	rule, ok := m.cacheRules[t.Message]
	if !ok {
		return false
	}
	// The cache key uses the logical target — a backend set name when the
	// color is balanced — so a reply cached via one replica is served for
	// identical requests routed to any replica.
	key := rcache.Key(t.Message, s.serviceTarget(t.Color), abs, rule.Vary)
	reply, flight, leader := m.rcache.Acquire(t.Message, key)
	if reply != nil {
		s.parkReply(t.Color, reply)
		s.trace(TraceEvent{Kind: TraceCacheHit, Color: t.Color, State: t.Message})
		return true
	}
	if leader {
		s.setPending(t.Color, &pendingCache{flight: flight, key: key, op: t.Message, ttl: rule.TTL})
		return false
	}
	// Follower: wait for the leader's exchange. Bound the wait by the
	// exchange timeout — the leader's own exchange is bounded by it too
	// — clipped to this flow's remaining budget. A budget already gone
	// skips the wait entirely; the fallback exchange below then fails
	// fast through serviceSend's own budget check.
	wait := m.cfg.ExchangeTimeout
	if rem, ok := s.remaining(); ok && rem < wait {
		wait = rem
	}
	start := time.Now()
	rep, err := flight.Wait(wait)
	if err == nil {
		s.parkReply(t.Color, rep)
		s.trace(TraceEvent{Kind: TraceCacheHit, Color: t.Color, State: t.Message,
			Attempt: 1, Elapsed: time.Since(start)})
		return true
	}
	// Leader aborted (or timed out): fall back to a direct exchange and
	// populate the cache ourselves.
	s.setPending(t.Color, &pendingCache{key: key, op: t.Message, ttl: rule.TTL})
	return false
}

func (s *session) parkReply(color int, reply *message.Message) {
	s.setPending(color, &pendingCache{reply: reply})
}

func (s *session) setPending(color int, pc *pendingCache) {
	if s.cachePending == nil {
		s.cachePending = make(map[int]*pendingCache)
	}
	s.cachePending[color] = pc
}

// abortFlight releases one color's cache bookkeeping after its
// exchange failed: a led flight is aborted so followers fall back.
func (s *session) abortFlight(color int, err error) {
	pc := s.cachePending[color]
	if pc == nil {
		return
	}
	delete(s.cachePending, color)
	if pc.flight != nil {
		s.med.rcache.Abort(pc.flight, err)
	}
}

// abortFlights releases every color's pending cache state (session
// teardown).
func (s *session) abortFlights(err error) {
	for color := range s.cachePending {
		s.abortFlight(color, err)
	}
}

// serviceSend delivers a composed request to a service color, retrying
// on a fresh connection when the pooled one turns out to be broken. The
// wire bytes are remembered so a later lost reply can replay them.
// Every attempt — dial, send, backoff — is charged against the flow's
// deadline budget; an exhausted budget fails fast with ErrDeadline.
func (s *session) serviceSend(color int, data []byte) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if rem, ok := s.remaining(); ok && rem <= 0 {
			return s.budgetExceeded("send service request", color, lastErr)
		}
		link, err := s.serviceConn(color, attempt)
		if err == nil {
			if err = link.conn.SetDeadline(s.exchangeDeadline()); err == nil {
				link.pending = true
				err = link.conn.Send(data)
			}
			if err == nil {
				s.lastWire[color] = data
				s.sentAt[color] = time.Now()
				return nil
			}
			if !network.IsTransportError(err) {
				s.med.stats.serviceFailures.Add(1)
				return fmt.Errorf("send service request: %w", err)
			}
			s.evictService(color, err)
		}
		lastErr = err
		if attempt >= s.med.retry.attempts() || s.med.stopping.Load() {
			s.med.stats.retriesExhausted.Add(1)
			s.med.stats.serviceFailures.Add(1)
			return fmt.Errorf("send service request (color %d): retries exhausted: %w", color, lastErr)
		}
		if !s.backoff(attempt) {
			return s.budgetExceeded("send service request", color, lastErr)
		}
	}
}

// serviceRecv reads a service reply, recovering from transport faults by
// redialling and replaying the in-flight request on the new connection.
// Like serviceSend, every attempt is charged against the flow's
// deadline budget: each read deadline is min(ExchangeTimeout,
// remaining budget), and a flow whose budget runs out mid-recovery
// fails fast with ErrDeadline instead of stacking further attempts.
func (s *session) serviceRecv(color int) ([]byte, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if rem, ok := s.remaining(); ok && rem <= 0 {
			return nil, s.budgetExceeded("recv service reply", color, lastErr)
		}
		data, err := s.tryServiceRecv(color, attempt)
		if err == nil {
			s.lastRecv = data
			var elapsed time.Duration
			if t0, ok := s.sentAt[color]; ok {
				elapsed = time.Since(t0)
				s.med.exchanges.observe(elapsed)
				delete(s.sentAt, color)
			}
			if link, ok := s.services[color]; ok {
				link.pending = false
				if link.set != nil {
					// A completed round trip is the replica's health
					// signal: it feeds the latency EWMA and clears any
					// avoid-on-redial hint.
					link.set.Report(link.addr, elapsed, nil)
					delete(s.lastFault, color)
				}
			}
			return data, nil
		}
		if !network.IsTransportError(err) {
			s.med.stats.serviceFailures.Add(1)
			return nil, fmt.Errorf("recv service reply: %w", err)
		}
		s.evictService(color, err)
		lastErr = err
		if attempt >= s.med.retry.attempts() || s.lastWire[color] == nil || s.med.stopping.Load() {
			// Nothing to replay means retrying cannot produce the reply.
			s.med.stats.retriesExhausted.Add(1)
			s.med.stats.serviceFailures.Add(1)
			return nil, fmt.Errorf("recv service reply (color %d): retries exhausted: %w", color, lastErr)
		}
		if !s.backoff(attempt) {
			return nil, s.budgetExceeded("recv service reply", color, lastErr)
		}
	}
}

// tryServiceRecv performs one receive attempt; on a retry (attempt > 0)
// it first replays the remembered request so the fresh connection has
// something to answer.
func (s *session) tryServiceRecv(color, attempt int) ([]byte, error) {
	link, err := s.serviceConn(color, attempt)
	if err != nil {
		return nil, err
	}
	if err := link.conn.SetDeadline(s.exchangeDeadline()); err != nil {
		return nil, err
	}
	if attempt > 0 {
		link.pending = true
		if err := link.conn.Send(s.lastWire[color]); err != nil {
			return nil, err
		}
	}
	return link.conn.Recv()
}

// backoff sleeps the policy's jittered, capped delay before retry
// attempt+1, bounded by the flow's remaining deadline budget. It
// reports false — without sleeping — when the remaining budget could
// not fit both the sleep and a meaningful retry, so the caller fails
// fast instead of burning the budget's tail on a doomed attempt.
func (s *session) backoff(attempt int) bool {
	d := s.med.retry.delay(attempt)
	if rem, ok := s.remaining(); ok && d >= rem {
		return false
	}
	if d > 0 {
		time.Sleep(d)
	}
	return true
}

// releaseService checks a color's connection back into the shared pool.
// A connection with an unconsumed reply in flight would poison its next
// user, so it is discarded instead of parked.
func (s *session) releaseService(color int) {
	link, ok := s.services[color]
	if !ok {
		return
	}
	delete(s.services, color)
	s.med.untrackService(link.conn)
	if link.set != nil {
		link.set.Release(link.addr)
	}
	key := pool.Key{Color: color, Addr: link.addr}
	if link.pending {
		s.med.pool.Discard(key, link.conn)
	} else {
		s.med.pool.Put(key, link.conn)
	}
}

// evictService reports a broken service connection to the pool so the
// next exchange checks out a fresh one, and flushes the key's idle
// siblings: they were dialled to the same dead endpoint, and vetting
// them one by one would burn the retry budget on stale sockets. A
// balanced replica additionally gets the fault reported to its set —
// feeding passive ejection — and is remembered so the recovery redial
// picks a different live replica.
func (s *session) evictService(color int, cause error) {
	link, ok := s.services[color]
	if !ok {
		return
	}
	delete(s.services, color)
	s.med.untrackService(link.conn)
	if link.set != nil {
		link.set.Release(link.addr)
		link.set.Report(link.addr, 0, cause)
		s.lastFault[color] = link.addr
	}
	key := pool.Key{Color: color, Addr: link.addr}
	s.med.pool.Discard(key, link.conn)
	s.med.pool.Flush(key)
}

// copyCorrelationFields carries binder-internal fields (labels starting
// with "_", e.g. the GIOP request id) from the request into the reply.
func copyCorrelationFields(req, reply *message.Message) {
	if req == nil || reply == nil {
		return
	}
	for _, f := range req.Fields {
		if strings.HasPrefix(f.Label, "_") && reply.Field(f.Label) == nil {
			reply.Add(f.Clone())
		}
	}
}

// serviceTarget resolves the current logical target of a client-role
// color, honouring the flow's sethost retarget via the host map. The
// result is either a literal address or the name of a backend replica
// set — resolving a set to a concrete replica is serviceConn's job, so
// cache keys and retarget detection stay per-service, not per-replica.
func (s *session) serviceTarget(color int) string {
	addr := s.med.cfg.Sides[color].Target
	if s.hostOverride != "" {
		if mapped, ok := s.med.cfg.HostMap[s.hostOverride]; ok {
			addr = mapped
		}
	}
	return addr
}

// serviceConn returns (checking out of the pool lazily) the connection
// towards a client-role color. A held connection is kept only while it
// still points at the target the flow wants: a sethost retarget that
// fires after the first checkout is a pool-key change — the old
// connection goes back to the pool for its own key — as is a transport
// fault (via evictService). A target naming a backend replica set is
// resolved to a concrete replica by the set's balancing policy,
// avoiding the last faulted replica; the session then sticks to that
// replica until release or fault. Replacement checkouts are counted as
// Redials; attempt > 0 marks a fault-recovery redial in the trace.
func (s *session) serviceConn(color, attempt int) (*serviceLink, error) {
	target := s.serviceTarget(color)
	set := s.med.cfg.Backends[target]
	if link, ok := s.services[color]; ok {
		if link.set == set && (set != nil || link.addr == target) {
			return link, nil
		}
		// Retargeted after checkout: the connection is healthy, it just
		// points somewhere this flow no longer wants to talk to.
		s.releaseService(color)
	}
	if s.med.stopping.Load() {
		return nil, fmt.Errorf("service connection (color %d, %s): %w", color, target, errClosing)
	}
	addr := target
	if set != nil {
		addr = set.Pick(s.lastFault[color])
	}
	conn, err := s.med.checkout(color, addr, s.budget)
	if err != nil {
		if set != nil {
			// The in-flight slot Pick took is never used; a failed
			// checkout is a replica fault for ejection accounting.
			set.Release(addr)
			set.Report(addr, 0, err)
			s.lastFault[color] = addr
		}
		return nil, fmt.Errorf("service connection (color %d, %s): %w", color, addr, err)
	}
	link := &serviceLink{conn: conn, addr: addr, set: set}
	if _, redialed := s.dialed[color]; redialed {
		s.med.stats.redials.Add(1)
		s.trace(TraceEvent{Kind: TraceRedial, Color: color, State: addr, Attempt: attempt})
	} else {
		s.dialed[color] = struct{}{}
	}
	s.services[color] = link
	return link, nil
}

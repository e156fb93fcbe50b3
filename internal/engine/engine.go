// Package engine is Starlink's automata engine (paper Section 4.2): it
// interprets a concrete merged k-colored automaton at runtime, as a step
// and a shell.
//
// The step (flow.go) walks the automaton and touches no socket. New
// compiles the automaton into a plan, one step per state of the paper's
// three types — receiving, sending and no-action (γ) — and a flow's next
// takes the transition an event picks and returns what the state it enters
// asks for: read the client, send to a colour, receive from it, reply to
// the client, or nothing more. A received message binds to the
// transition's target state; a sent one is what the preceding γ composed
// at its source state; γ runs pre-compiled MTL whose cache keyword lasts
// as long as the client connection (the Fig. 10 getInfo resolution).
//
// The shell is the session: it performs each action and feeds the outcome
// back. It owns everything with a clock or a socket: the client
// connection, one link per service colour with its retry, replay and
// back-off, deadlines, packet buffers, the response cache, counters and
// the trace. The mediator acts as the server towards the color-1
// application (Fig. 6) and as a client towards the color-2 one, whose
// connections come from a pool shared by every session of the mediator.
package engine

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
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
	"starlink/internal/protocol/bufpool"
	"starlink/internal/rcache"
)

// Errors reported by the engine.
var (
	// ErrConfig is wrapped by all configuration validation errors.
	ErrConfig = errors.New("engine: invalid configuration")
	// ErrUnexpectedAction is returned when a client performs an action the
	// automaton does not expect at the current state.
	ErrUnexpectedAction = errors.New("engine: unexpected action")
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
	// Its Framer also says how the color travels: New resolves the
	// color's transport from it once (network.SemanticsOf).
	Binder bind.Binder
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
}

// delay computes the sleep before retry attempt+1: full jitter drawn
// uniformly over an exponentially growing window, clamped to
// MaxBackoff. The shift saturates at the cap — for attempt counts
// large enough that Backoff<<attempt would overflow, the window is the
// cap, never a skipped sleep (a signed-overflow result used to fail
// the d > 0 guard and turn the retry loop hot).
func (p RetryPolicy) delay(attempt int) time.Duration {
	if p.Backoff <= 0 {
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
	// hot swap adopts their counters via Adopt. Every reconciler must
	// drive a set present in Backends.
	Discovery []*discovery.Reconciler
	// Funcs adds extra MTL functions.
	Funcs map[string]mtl.Func
	// ExchangeTimeout bounds each network exchange (default
	// DefaultExchangeTimeout).
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
	// cacheable request either serves a cached reply, joins an in-flight
	// identical exchange, or executes it and populates the cache. A
	// cached reply is bound as the cache holds it where no γ program can
	// write into it, and copied where one can.
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
	// is the one sink (observe.Instrument points it at the flow tracer),
	// called synchronously from session goroutines, so it must be fast,
	// non-blocking and concurrency-safe; a panicking hook is recovered
	// and counted in Stats.HookPanics instead of killing the session.
	Trace func(TraceEvent)

	// wholeReplies parses every service reply whole, as if no binder were a
	// bind.Projector: the tests' way to hold projection to no projection.
	wholeReplies bool
}

// retryPolicy resolves the effective fault-recovery policy: the Retry
// field when set (validated), else the defaults.
func (c Config) retryPolicy() (RetryPolicy, error) {
	if c.Retry == nil {
		return RetryPolicy{Attempts: DefaultRetryAttempts, Backoff: DefaultBackoff}, nil
	}
	p := *c.Retry
	if p.Attempts < 0 || p.Backoff < 0 || p.MaxBackoff < 0 {
		return RetryPolicy{}, fmt.Errorf("%w: a negative value in %+v", ErrConfig, p)
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
// applied when Config leaves the knobs zero; DefaultExchangeTimeout is
// the exchange bound the same way, and half the default flow budget.
const (
	DefaultPoolSize        = pool.DefaultMaxActive
	DefaultPoolIdle        = pool.DefaultIdleTimeout
	DefaultExchangeTimeout = 10 * time.Second
)

// TraceKind classifies TraceEvents.
type TraceKind int

// Trace event kinds.
const (
	// TraceTransition fires after a transition executes; it is the one
	// event of a step, and its State the state the step entered.
	TraceTransition TraceKind = iota
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

// traceKinds names the kinds in order.
var traceKinds = [...]string{"transition", "redial", "error", "flow-start", "flow-end", "session-end", "cache-hit"}

// String names the kind for logs.
func (k TraceKind) String() string {
	if k >= 0 && int(k) < len(traceKinds) {
		return traceKinds[k]
	}
	return fmt.Sprintf("TraceKind(%d)", int(k))
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
	// State is the state a TraceTransition entered (the transition's
	// target).
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
	// Parse and Build are the binder's part of a message TraceTransition's
	// Elapsed: decoding the packet it received (Parse), or encoding the one
	// it sends (Build). Zero where the binder did not run — a γ, a reply
	// the response cache had — and measured only when a Trace hook is set.
	Parse, Build time.Duration
	// FrameRead, PoolWait and ServiceWait are the wire's part of it, as
	// Parse and Build are measured: reading the client's request off its
	// connection, waiting for a service connection from the pool, and
	// waiting for the service's reply and reading it. The fourth wire
	// stage, writing a client reply, has no field: a client-reply
	// transition is published before its reply is written, and the write
	// is timed into the stage histogram only.
	FrameRead, PoolWait, ServiceWait time.Duration
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

// Stats are a mediator's lifetime counters, as Snapshot reads them.
type Stats = counters[uint64]

// counters declares each lifetime counter of a mediator once: a field
// here and its row in Fields, which gives the name and help text /metrics
// exports it under. Sessions increment the live form,
// counters[atomic.Uint64], and Snapshot loads it into a Stats row by row.
// The Pool* and Cache* cells are the exception: Snapshot fills them from
// its one sample of the pool and of the cache, and their live cells stay
// zero.
type counters[T any] struct {
	// Flows counts complete automaton traversals before the final client
	// reply is written. Failures counts sessions that ended with an error
	// other than the client disconnecting between flows.
	Sessions, Flows, Translations, MessagesIn, MessagesOut, Failures T
	// Redials counts service connections replaced during a session, after
	// a transport fault or a sethost retarget.
	Redials, RetriesExhausted, ClientFailures, ServiceFailures T
	// PoolEvictions counts pooled connections closed early: idle timeout,
	// health-check rejection, idle overflow or fault discard.
	PoolHits, PoolDials, PoolEvictions, PoolWaitTimeouts T
	// DeadlineExceeded counts flows whose Config.FlowDeadline budget ran
	// out mid-mediation. A non-zero HookPanics means the Trace hook is
	// buggy; the flows themselves were unaffected.
	DeadlineExceeded, HookPanics T
	// The Cache* counters stay zero unless Config.Cache is set.
	CacheHits, CacheMisses, CacheCoalesced, CacheEvictions, CacheInvalidations T
}

// Metric is one row of a declaration table: the name and help text of a
// /metrics family and the cell that holds its value. The row of one series
// of a labelled family names it as the exposition format writes it,
// labels and all (`starlink_stage_seconds{stage="parse",color="1"}`), and
// the rows of the family follow one another.
type Metric[T any] struct {
	Name, Help string
	Value      *T
}

// Fields lists the counters in the order /metrics exports them.
func (c *counters[T]) Fields() []Metric[T] {
	return []Metric[T]{
		{"starlink_sessions_total", "Client connections accepted.", &c.Sessions},
		{"starlink_flows_total", "Complete automaton traversals.", &c.Flows},
		{"starlink_translations_total", "Gamma (MTL) transitions executed.", &c.Translations},
		{"starlink_messages_in_total", "Messages received from either side.", &c.MessagesIn},
		{"starlink_messages_out_total", "Messages sent to either side.", &c.MessagesOut},
		{"starlink_failures_total", "Sessions that ended with an error.", &c.Failures},
		{"starlink_redials_total", "Service connections replaced mid-session.", &c.Redials},
		{"starlink_retries_exhausted_total", "Service exchanges that failed after every retry.", &c.RetriesExhausted},
		{"starlink_client_failures_total", "Failed client-side exchanges.", &c.ClientFailures},
		{"starlink_service_failures_total", "Service-side exchanges that failed for good.", &c.ServiceFailures},
		{"starlink_pool_hits_total", "Service checkouts served by an idle pooled connection.", &c.PoolHits},
		{"starlink_pool_dials_total", "Service checkouts that opened a fresh connection.", &c.PoolDials},
		{"starlink_pool_evictions_total", "Pooled connections closed early.", &c.PoolEvictions},
		{"starlink_pool_wait_timeouts_total", "Pool checkouts abandoned while waiting at the MaxActive bound.", &c.PoolWaitTimeouts},
		{"starlink_flow_deadline_exceeded_total", "Flows failed fast because their deadline budget ran out.", &c.DeadlineExceeded},
		{"starlink_hook_panics_total", "Panics recovered from the Trace hook.", &c.HookPanics},
		{"starlink_cache_hits_total", "Service exchanges served from the cross-flow response cache.", &c.CacheHits},
		{"starlink_cache_misses_total", "Cacheable exchanges that went to the service (leader elections).", &c.CacheMisses},
		{"starlink_cache_coalesced_total", "Cacheable exchanges that joined an in-flight leader.", &c.CacheCoalesced},
		{"starlink_cache_evictions_total", "Cached replies dropped by TTL expiry or LRU overflow.", &c.CacheEvictions},
		{"starlink_cache_invalidations_total", "Cached replies flushed by write-operation invalidation.", &c.CacheInvalidations},
	}
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
	// plan is the merged automaton compiled for the flows to walk; its
	// links are the colors the mediator plays the client role for.
	plan *plan
	// sems is how each color travels, from its binder's framer.
	sems  map[int]network.Semantics
	stats counters[atomic.Uint64]
	// readers are the binders the links parse replies with, by link: the
	// side's, projected to what the plan reads of each reply where the
	// binder is a bind.Projector.
	readers []bind.Binder

	// rcache is the shared cross-flow response cache (nil unless
	// Config.Cache declares cacheable operations); its rules and
	// invalidations are read from cfg.Cache, validated by New.
	rcache *rcache.Cache

	// hists are the live latency histograms behind Snapshot.Latencies.
	hists histograms[histogram]

	// draining refuses new flows (set by Shutdown); stopping aborts
	// in-flight service retries (set when Shutdown's context expires,
	// which for Close is at once).
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

// Snapshot is one reading of a mediator: its counters, its latency
// histograms, the occupancy of its pool and the health of its replica sets
// and discovery sources. /metrics, /healthz, /backends and /discovery each
// read one.
type Snapshot struct {
	// Stats are the lifetime counters.
	Stats Stats
	// Latencies are the latency histograms.
	Latencies
	// Pool is the service pool's occupancy, zero before Start. The Pool*
	// counters of Stats are read from this same sample.
	Pool pool.Stats
	// Backends are the replica sets, sorted by name; nil when there are
	// none.
	Backends []backend.SetSnapshot
	// Discovery are the discovery reconcilers, sorted by the set they
	// drive; nil when there are none.
	Discovery []discovery.Snapshot
}

// Snapshot reads each counter, histogram, the pool, the cache, each replica
// set and each discovery source once.
func (m *Mediator) Snapshot() Snapshot {
	var snap Snapshot
	live := m.stats.Fields()
	for i, f := range snap.Stats.Fields() {
		*f.Value = live[i].Value.Load()
	}
	hists := m.hists.Fields()
	for i, f := range snap.Latencies.Fields() {
		*f.Value = hists[i].Value.snapshot()
	}
	m.mu.Lock()
	p := m.pool
	m.mu.Unlock()
	if p != nil {
		snap.Pool = p.Stats()
	}
	st, ps := &snap.Stats, &snap.Pool
	st.PoolHits, st.PoolDials, st.PoolEvictions, st.PoolWaitTimeouts = ps.Hits, ps.Dials, ps.Evictions(), ps.WaitTimeouts
	if m.rcache != nil {
		cs := m.rcache.Stats()
		st.CacheHits, st.CacheMisses, st.CacheCoalesced = cs.Hits, cs.Misses, cs.Coalesced
		st.CacheEvictions, st.CacheInvalidations = cs.Evictions, cs.Invalidations
	}
	for _, set := range m.cfg.Backends {
		snap.Backends = append(snap.Backends, set.Snapshot())
	}
	sort.Slice(snap.Backends, func(i, j int) bool { return snap.Backends[i].Name < snap.Backends[j].Name })
	for _, rec := range m.cfg.Discovery {
		snap.Discovery = append(snap.Discovery, rec.Snapshot())
	}
	sort.Slice(snap.Discovery, func(i, j int) bool { return snap.Discovery[i].Set < snap.Discovery[j].Set })
	return snap
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
		cfg.ExchangeTimeout = DefaultExchangeTimeout
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = network.DefaultDialTimeout
	}
	if cfg.PoolSize < 0 {
		return nil, fmt.Errorf("%w: negative PoolSize %d", ErrConfig, cfg.PoolSize)
	}
	retry, err := cfg.retryPolicy()
	if err != nil {
		return nil, err
	}
	if err := cfg.Merged.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrConfig, err)
	}
	p, err := newPlan(cfg.Merged, cfg.ServerColor, cfg.Funcs)
	if err != nil {
		return nil, err
	}
	sems := make(map[int]network.Semantics, 1+len(p.links))
	for _, c := range append([]int{cfg.ServerColor}, p.links...) {
		side := cfg.Sides[c]
		if side == nil || side.Binder == nil {
			return nil, fmt.Errorf("%w: no binder for color %d", ErrConfig, c)
		}
		if c != cfg.ServerColor && side.Target == "" {
			return nil, fmt.Errorf("%w: no target address for client color %d", ErrConfig, c)
		}
		sems[c] = network.SemanticsOf(side.Binder.Framer())
	}
	readers := make([]bind.Binder, len(p.links))
	for i, c := range p.links {
		readers[i] = cfg.Sides[c].Binder
		if pj, ok := readers[i].(bind.Projector); ok && len(p.keeps[i]) > 0 && !cfg.wholeReplies {
			readers[i] = pj.Project(p.keeps[i])
		}
	}
	serviceSends := map[string]bool{}
	for _, st := range p.steps {
		if st.kind == kSend {
			serviceSends[st.arcs[0].op] = true
		}
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
		if cfg.Cache.MaxEntries < 0 || cfg.Cache.Shards < 0 {
			return nil, fmt.Errorf("%w: negative CachePolicy.MaxEntries %d or Shards %d", ErrConfig, cfg.Cache.MaxEntries, cfg.Cache.Shards)
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
		plan:       p,
		sems:       sems,
		readers:    readers,
		conns:      make(map[network.Conn]struct{}),
		svcConns:   make(map[network.Conn]struct{}),
		idle:       make(map[network.Conn]struct{}),
	}
	if cfg.Cache != nil && len(cfg.Cache.Rules) > 0 {
		m.rcache = rcache.New(rcache.Options{
			MaxEntries: cfg.Cache.MaxEntries,
			Shards:     cfg.Cache.Shards,
		})
	}
	return m, nil
}

// poolOptions maps the mediator configuration onto the shared service
// pool: the configured bounds plus a dial hook that honours each side's
// Dialer override.
func (m *Mediator) poolOptions() pool.Options {
	return pool.Options{
		MaxActive:   m.cfg.PoolSize,
		IdleTimeout: m.cfg.PoolIdle,
		Dial: func(ctx context.Context, key pool.Key) (network.Conn, error) {
			side := m.cfg.Sides[key.Color]
			dial := side.Dialer
			if dial == nil {
				// The checkout context's deadline is the dial timeout
				// already clipped to the flow's deadline budget; honour it
				// so dial time counts against the flow instead of running
				// on its own clock.
				dl, _ := ctx.Deadline()
				timeout := time.Until(dl)
				if timeout <= 0 {
					return nil, fmt.Errorf("dial %v: %w", key, context.DeadlineExceeded)
				}
				dial = network.Engine{DialTimeout: timeout}.Dial
			}
			return dial(m.sems[key.Color], key.Addr, side.Binder.Framer())
		},
	}
}

// Start opens the shared service pool and listens for client-side
// connections: StartDetached plus an accept loop that hands every
// connection to ServeConn, until the listener is closed.
func (m *Mediator) Start(listenAddr string) error {
	side := m.cfg.Sides[m.cfg.ServerColor]
	l, err := network.Engine{}.Listen(m.sems[m.cfg.ServerColor], listenAddr, side.Binder.Framer())
	if err != nil {
		return err
	}
	if err := m.StartDetached(); err != nil {
		l.Close()
		return err
	}
	m.mu.Lock()
	m.listener = l
	m.mu.Unlock()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		network.AcceptLoop(l.Accept, func(conn network.Conn) {
			if m.ServeConn(conn) != nil {
				conn.Close()
			}
		})
	}()
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
		for _, color := range m.plan.links {
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

// Adopt carries what must outlive a gateway hot swap from the mediator
// this one replaces: the replica health of same-named backend sets
// (ejections, cooloff deadlines, latency EWMAs), so the swap does not
// forget which replicas are sick and route fresh traffic straight back
// into them, and the cumulative counters of the discovery reconcilers
// (matched by the set they drive), so /metrics rates stay continuous.
func (m *Mediator) Adopt(prev *Mediator) {
	if prev == nil {
		return
	}
	for name, set := range m.cfg.Backends {
		if old := prev.cfg.Backends[name]; old != nil {
			set.Adopt(old)
		}
	}
	for _, rec := range m.cfg.Discovery {
		for _, old := range prev.cfg.Discovery {
			if old.SetName() == rec.SetName() {
				rec.Adopt(old)
			}
		}
	}
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
	// The wg.Add must happen under the lock: for a gateway's hand-off
	// nothing else keeps Shutdown's wg.Wait from completing between the
	// draining check and the Add.
	m.wg.Add(1)
	m.mu.Unlock()
	s := m.newSession(conn)
	go func() {
		defer m.wg.Done()
		s.run()
	}()
	return nil
}

// newSession numbers a session for conn and gives it a link per
// client-role color.
func (m *Mediator) newSession(conn network.Conn) *session {
	s := &session{med: m, id: m.stats.Sessions.Add(1), client: conn, links: make([]serviceLink, len(m.plan.links))}
	for i, color := range m.plan.links {
		s.links[i].s, s.links[i].color, s.links[i].reader = s, color, m.readers[i]
	}
	return s
}

// ErrDraining is returned by ServeConn when the mediator no longer
// accepts new sessions (draining, closed, or never started).
var ErrDraining = errors.New("engine: mediator draining")

// Close abruptly stops the mediator: a Shutdown with no time to drain,
// so in-flight sessions are cut off, then everything is torn down.
func (m *Mediator) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.Shutdown(ctx); err != context.Canceled {
		return err
	}
	return nil
}

// Shutdown gracefully stops the mediator: it stops accepting new
// sessions, harvests sessions that are idle between flows, and lets
// in-flight flows finish — a client mid-request still receives its
// reply. When ctx expires first, the remaining sessions are cut off and
// ctx's error is returned. Either way the service pool is closed before
// Shutdown returns, and the mediator cannot be restarted.
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
		// Cut every live session off: retries stop, and closing the
		// client and the checked-out service connections unblocks
		// whatever a session is waiting in.
		err = ctx.Err()
		m.mu.Lock()
		m.stopping.Store(true)
		for c := range m.conns {
			c.Close()
		}
		for c := range m.svcConns {
			c.Close()
		}
		m.mu.Unlock()
		<-done
	}
	// Release what the mediator owns: the discovery reconcilers (so
	// membership stops churning first), every replica set's health
	// prober, then the pool. Each close is idempotent, so a Close that
	// overtakes a Shutdown in progress may run this twice.
	m.mu.Lock()
	m.closed = true
	p := m.pool
	m.mu.Unlock()
	for _, rec := range m.cfg.Discovery {
		rec.Close()
	}
	for _, set := range m.cfg.Backends {
		set.Close()
	}
	if p != nil {
		p.Close()
	}
	return cmp.Or(err, lerr)
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
// the wait — dial time and pool exhaustion alike — by deadline: the
// configured dial timeout, which the caller has clipped to its flow's
// deadline budget, so time already spent on the flow shrinks the dial
// window instead of extending the flow past its deadline. Checked-out
// connections are tracked so an abrupt teardown can unblock sessions
// waiting on them.
func (m *Mediator) checkout(color int, addr string, deadline time.Time) (network.Conn, error) {
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	// Only sessions check out, and ServeConn starts none before the pool.
	conn, err := m.pool.Get(ctx, pool.Key{Color: color, Addr: addr})
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.svcConns[conn] = struct{}{}
	m.mu.Unlock()
	return conn, nil
}

// session is one client connection's execution of the automaton, the
// shell around the step: it performs what the step asks and feeds the
// outcome back. The automaton restarts after reaching a final state so a
// client can run the whole behaviour repeatedly on one connection;
// everything about talking to a service is a link's.
type session struct {
	med    *Mediator
	id     uint64
	client network.Conn
	// links holds one serviceLink per client-role color, in plan.links
	// order.
	links []serviceLink
	// step walks the automaton; cache holds what its γ programs cache,
	// for the lifetime of the connection (Fig. 10).
	step  flow
	cache mtl.Cache
	// flow numbers the current automaton traversal (1-based); flowT0 is
	// when its first client request arrived (zero until it has, while the
	// session counts as idle and may be harvested by Shutdown), and
	// lastRecv keeps the last
	// wire message received — attached (truncated) to error traces so
	// the flight recorder can show what a parse fault choked on. It is
	// forgotten when the flow ends, with the buffers it points into.
	flow     uint64
	flowT0   time.Time
	lastRecv []byte
	// recvBuf holds every packet a flow reads but its first: service
	// replies and the client's later requests, each dead once parsed.
	// replyBuf holds the client reply being sent, dead once Send returns.
	recvBuf, replyBuf wireBuf
	// budget is the wall-clock deadline of the current flow, stamped
	// when its first client request arrives (zero while idle between
	// flows, or always when flow budgets are disabled). Every blocking
	// step of the flow is charged against it.
	budget time.Time
	// stages are the stage durations of the transition under way, for its
	// TraceEvent; timed only while a Trace hook is set.
	stages [len(stageNames)]time.Duration
}

// The stages of a message, as session.stages and histograms.Stages index
// them, and stageNames names them: the binder's two, then the wire's four.
const (
	stageParse = iota
	stageBuild
	stageFrameRead
	stagePoolWait
	stageServiceWait
	stageReplyWrite
)

var stageNames = [...]string{"parse", "build", "frame_read", "pool_wait", "service_wait", "reply_write"}

// clock is the time a stage starts, when a Trace hook is set to read what
// it took; the zero time, and no clock read, otherwise.
func (s *session) clock() time.Time {
	if s.med.cfg.Trace == nil {
		return time.Time{}
	}
	return time.Now()
}

// timed ends a stage that started at t0 on the side of colour color: its
// duration goes to the stage histogram and, but for a reply write, which
// comes after its transition is published, to the transition's TraceEvent.
// A stage a transition runs more than once — a pool wait per retry — adds
// up there.
func (s *session) timed(stage, color int, t0 time.Time) {
	if t0.IsZero() {
		return
	}
	d := time.Since(t0)
	if stage != stageReplyWrite {
		s.stages[stage] += d
	}
	if color == 1 || color == 2 {
		s.med.hists.Stages[stage][color-1].observe(d)
	}
}

// serviceLink is everything a session knows about one client-role
// color, and the only code that talks to that service: the connection
// checked out of the shared pool, the request in flight, and the one
// retry loop (exchange) that both phases of an exchange run through.
type serviceLink struct {
	s     *session
	color int
	// reader parses the link's replies (Mediator.readers).
	reader bind.Binder
	// conn is the held connection (nil while none is checked out), addr
	// its pool key's address — so a sethost retarget is detected as a key
	// change — and set the replica set addr was picked from (nil for a
	// literal target; the set's in-flight slot is held until the
	// connection is dropped).
	conn network.Conn
	addr string
	set  *backend.Set
	// pending marks a request in flight on conn: a connection with an
	// unconsumed reply cannot be returned to the pool — the next session
	// would read a stale reply.
	pending bool
	// dialed marks a link that has checked out before, so a replacement
	// checkout is counted as a redial.
	dialed bool
	// lastFault is the replica address of the most recent fault, so the
	// recovery redial avoids retrying the replica that just failed while
	// other candidates are live. Cleared by the next successful exchange.
	lastFault string
	// op is the operation last sent — it selects how the reply parses —
	// wire its bytes, in reqBuf and replayed on a fresh connection when
	// the reply is lost to a transport fault, and sentAt when it first
	// went out, feeding the per-exchange latency histogram at reply time.
	op     string
	wire   []byte
	reqBuf wireBuf
	sentAt time.Time
	// cache is the response-cache role of the exchange between its send
	// and receive transitions; zero for an uncached exchange.
	cache cacheRole
}

// cacheRole is one exchange's part in the shared response cache.
type cacheRole struct {
	// reply, when non-nil, is the cached (or coalesced) reply, as the
	// cache holds it, to bind at the receive transition instead of
	// reading the network.
	reply *message.Message
	// flight, when non-nil, is the single-flight this session leads; it
	// is fulfilled when the real reply parses, aborted if the exchange
	// or the session dies first.
	flight *rcache.Flight
	// key and ttl say where a fetched reply is stored (leader fulfilment
	// or follower fallback); ttl is positive exactly when one is.
	key string
	ttl time.Duration
}

// packets pools the buffers a flow reads and writes its packets in
// (DESIGN.md §9, "Wire buffers").
var packets = sync.Pool{New: func() any { return new([]byte) }}

// wireBuf is one of a flow's packet buffers. It is taken from packets at
// its first use in a flow and given back when the flow ends; in between,
// each packet written into it ends the life of the one before.
type wireBuf struct{ p *[]byte }

// dst returns the buffer, emptied, for the next packet.
func (w *wireBuf) dst() []byte {
	if w.p == nil {
		w.p = packets.Get().(*[]byte)
	}
	return (*w.p)[:0]
}

// use keeps the storage an append form wrote packet to — grown, when the
// packet did not fit — and passes its results on.
func (w *wireBuf) use(packet []byte, err error) ([]byte, error) {
	*w.p = packet[:0]
	return packet, err
}

// release gives the buffer back to the pool, unless a large packet grew
// it past bufpool.MaxRetain: that one is dropped.
func (w *wireBuf) release() {
	if w.p != nil && cap(*w.p) <= bufpool.MaxRetain {
		packets.Put(w.p)
	}
	w.p = nil
}

// releasePackets ends the flow's hold on packet memory: its buffers go
// back to the pool, and what pointed into them is forgotten, so a session
// parked between flows holds no packet.
func (s *session) releasePackets() {
	s.recvBuf.release()
	s.replyBuf.release()
	s.lastRecv = nil
	for i := range s.links {
		s.links[i].reqBuf.release()
		s.links[i].wire = nil
	}
}

// trace delivers ev to the configured hook, stamping the session id,
// flow number, time and remaining budget.
func (s *session) trace(ev TraceEvent) {
	if s.med.cfg.Trace == nil {
		return
	}
	ev.Session, ev.Flow, ev.Time = s.id, s.flow, time.Now()
	if !s.budget.IsZero() {
		ev.Budget = s.budget.Sub(ev.Time)
	}
	s.med.callHook(ev)
}

// callHook runs the user's observability callback, recovering a panic
// into the HookPanics counter so a buggy hook cannot take a session
// down with it.
func (m *Mediator) callHook(ev TraceEvent) {
	defer func() {
		if r := recover(); r != nil {
			m.stats.HookPanics.Add(1)
		}
	}()
	m.cfg.Trace(ev)
}

func (s *session) run() {
	defer func() {
		s.trace(TraceEvent{Kind: TraceSessionEnd})
		s.client.Close()
		s.med.removeConn(s.client)
		for i := range s.links {
			s.links[i].drop(nil)
			s.links[i].abortFlight(nil) // a flight left open by a flow that ended cleanly
		}
	}()
	for {
		s.flowT0, s.budget = time.Time{}, time.Time{}
		s.flow++
		err := s.runFlow()
		if err != nil {
			// A flow dying while it leads a single-flight must wake the
			// followers so they fall back to their own exchanges — before
			// the client is told, a write they should not wait for.
			for i := range s.links {
				s.links[i].abortFlight(err)
			}
			// The client ending the keep-alive connection between flows is
			// no failure; losing it mid-flow is (recvClientRequest).
			if !errors.Is(err, errSessionDone) {
				s.med.stats.Failures.Add(1)
				s.trace(TraceEvent{Kind: TraceError, Err: err, Wire: bytes.Clone(s.lastRecv[:min(len(s.lastRecv), MaxTraceWire)])})
				s.sendErrorReply(err)
			}
		}
		// The trace has its copy of the last packet; the flow's are dead.
		s.releasePackets()
		// A failed flow ends the session; so does Shutdown in progress once
		// the flow's reply is out, instead of waiting for another request.
		if err != nil || s.med.draining.Load() {
			return
		}
	}
}

// errSessionDone marks the clean end of a session (client disconnected
// between flows, or the mediator drained it).
var errSessionDone = errors.New("engine: session done")

// recvClientRequest reads and parses one client request. The
// flow-initial read carries no deadline — an idle keep-alive connection may
// sit between flows indefinitely — and parks the session as idle first, so
// a Shutdown can harvest clients that are merely holding their connection
// open. Only that read may end the session cleanly: it returns
// errSessionDone, as it is, when the client has gone. It reads into a
// packet of its own, so a parked session holds no packet buffer; the
// flow's later reads go to its receive buffer. Once a flow has started its
// budget deadline is stamped, and mid-flow reads (the client's next
// request of a multi-exchange traversal) are bounded by it; a client lost
// there has failed the flow (clientGone).
func (s *session) recvClientRequest() (event, error) {
	initial := s.flowT0.IsZero()
	// The budget is still zero — no deadline — on the flow-initial read.
	if err := s.client.SetDeadline(s.budget); err != nil {
		return event{}, s.clientGone(initial, err)
	}
	var data []byte
	var err error
	t0 := s.clock()
	if initial {
		if !s.med.parkIdle(s.client) {
			return event{}, errSessionDone
		}
		data, err = s.client.Recv()
		s.med.unparkIdle(s.client)
	} else {
		data, err = s.recvBuf.use(s.client.RecvAppend(s.recvBuf.dst()))
	}
	s.timed(stageFrameRead, s.med.cfg.ServerColor, t0)
	if err != nil {
		return event{}, s.clientGone(initial, err)
	}
	s.lastRecv = data
	if initial {
		s.flowT0 = time.Now()
		if fb := s.med.flowBudget; fb > 0 {
			s.budget = s.flowT0.Add(fb)
		}
		s.trace(TraceEvent{Kind: TraceFlowStart})
	}
	s.med.stats.MessagesIn.Add(1)
	t0 = s.clock()
	op, msg, err := s.med.cfg.Sides[s.med.cfg.ServerColor].Binder.ParseRequest(data)
	s.timed(stageParse, s.med.cfg.ServerColor, t0)
	if err != nil {
		s.med.stats.ClientFailures.Add(1)
		return event{}, fmt.Errorf("parse client request: %w", err)
	}
	return event{op: op, msg: msg}, nil
}

// clientGone is the error of a client read that failed. Between flows
// it is errSessionDone. In the middle of a flow — a client that closed
// its connection, or stalled past the flow's deadline budget — it is a
// client failure, and with the budget spent a deadline exhaustion too;
// run counts the failed flow and traces it.
func (s *session) clientGone(initial bool, err error) error {
	if initial {
		return errSessionDone
	}
	s.med.stats.ClientFailures.Add(1)
	if !s.budget.IsZero() && !time.Now().Before(s.budget) {
		s.med.stats.DeadlineExceeded.Add(1)
		return fmt.Errorf("recv client request: %w (last attempt: %v)", ErrDeadline, err)
	}
	return fmt.Errorf("recv client request: %w", err)
}

// within is the deadline of a blocking step that may take at most limit:
// now+limit, clipped to the flow's deadline budget when one is set, so
// no dial, pool wait, exchange attempt, coalesced wait or backoff can
// run — or stack — past the flow deadline.
func (s *session) within(limit time.Duration) time.Time {
	d := time.Now().Add(limit)
	if !s.budget.IsZero() && s.budget.Before(d) {
		return s.budget
	}
	return d
}

// budgetExceeded records one flow-budget exhaustion and builds the
// typed fast-fail error, carrying the last transport error (if any)
// for diagnosis.
func (s *session) budgetExceeded(op string, color int, lastErr error) error {
	s.med.stats.DeadlineExceeded.Add(1)
	s.med.stats.ServiceFailures.Add(1)
	if lastErr != nil {
		return fmt.Errorf("%s (color %d): %w (last attempt: %v)", op, color, ErrDeadline, lastErr)
	}
	return fmt.Errorf("%s (color %d): %w", op, color, ErrDeadline)
}

// sendErrorReply reports a mediation failure to a client that is still
// waiting for an answer, if the client-side binder can build faults.
func (s *session) sendErrorReply(cause error) {
	replier, ok := s.med.cfg.Sides[s.med.cfg.ServerColor].Binder.(bind.ErrorReplier)
	if !ok || s.step.pendingAction == "" {
		return
	}
	// The session ends either way; a fault that cannot be delivered has
	// no one left to report to.
	data, err := replier.BuildErrorReply(s.step.pendingAction, s.step.pending, cause.Error())
	if err == nil && s.client.SetDeadline(time.Now().Add(s.med.cfg.ExchangeTimeout)) == nil {
		_ = s.sendClient(data)
	}
}

// sendClient hands one message to the client connection. It is counted
// before it is on the wire, so a client holding its reply never reads a
// MessagesOut that lacks it, and taken back if the send fails.
func (s *session) sendClient(data []byte) error {
	s.med.stats.MessagesOut.Add(1)
	err := s.client.Send(data)
	if err != nil {
		s.med.stats.MessagesOut.Add(^uint64(0))
	}
	return err
}

// runFlow walks one start-to-final traversal: it performs each action of
// the step but a γ, which next runs, and feeds the outcome back, tracing
// every transition the step takes.
func (s *session) runFlow() error {
	act := s.step.reset(s.med.plan, &s.cache)
	for act.kind != kDone {
		start := time.Now()
		var ev event
		var reply []byte
		var err error
		switch act.kind {
		case kRead:
			ev, err = s.recvClientRequest()
		case kSend:
			err = s.links[act.link].send(act.op, act.msg)
		case kRecv:
			ev.msg, ev.cached, err = s.links[act.link].recv(act.op)
		case kReply:
			t0 := s.clock()
			reply, err = s.replyBuf.use(s.med.cfg.Sides[s.med.cfg.ServerColor].Binder.AppendReply(s.replyBuf.dst(), act.op, act.msg))
			s.timed(stageBuild, s.med.cfg.ServerColor, t0)
			if err != nil {
				err = fmt.Errorf("build client reply: %w", err)
			}
		}
		if err != nil {
			return err
		}
		asked := act.kind
		if act, err = s.step.next(ev); err != nil {
			if asked == kRead {
				s.med.stats.ClientFailures.Add(1)
			}
			return err
		}
		if asked == kGamma {
			s.med.stats.Translations.Add(1)
			s.med.hists.Translate.observe(time.Since(start))
		}
		a := s.step.fired
		elapsed := time.Since(start)
		s.med.hists.Transitions.observe(elapsed)
		s.trace(TraceEvent{
			Kind: TraceTransition, State: s.med.plan.steps[a.to].name, Transition: a.label,
			Color: a.color, Elapsed: elapsed, Parse: s.stages[stageParse], Build: s.stages[stageBuild],
			FrameRead: s.stages[stageFrameRead], PoolWait: s.stages[stagePoolWait], ServiceWait: s.stages[stageServiceWait],
		})
		s.stages = [len(stageNames)]time.Duration{}
		// Everything a reply implies is published before the client can
		// read it: the transition above, and the flow when this reply ends
		// it, so a client that has its answer finds the flow accounted.
		if act.kind == kDone {
			s.med.stats.Flows.Add(1)
			s.trace(TraceEvent{Kind: TraceFlowEnd, Elapsed: time.Since(s.flowT0)})
		}
		if reply != nil {
			t0 := s.clock()
			err := s.sendClientReply(reply)
			s.timed(stageReplyWrite, s.med.cfg.ServerColor, t0)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// sendClientReply writes a built client reply within the exchange
// deadline.
func (s *session) sendClientReply(data []byte) error {
	if err := s.client.SetDeadline(s.within(s.med.cfg.ExchangeTimeout)); err != nil {
		return err
	}
	if err := s.sendClient(data); err != nil {
		s.med.stats.ClientFailures.Add(1)
		return fmt.Errorf("send client reply: %w", err)
	}
	return nil
}

// send is the first phase of an exchange: the mediator invokes operation
// op of the service — unless the response cache has the reply in hand,
// in which case nothing goes out and the reply is parked for recv.
func (l *serviceLink) send(op string, abs *message.Message) error {
	m := l.s.med
	l.op = op
	if m.rcache != nil && l.cacheCheck(abs) {
		return nil
	}
	t0 := l.s.clock()
	data, err := l.reqBuf.use(m.cfg.Sides[l.color].Binder.AppendRequest(l.reqBuf.dst(), op, abs))
	l.s.timed(stageBuild, l.color, t0)
	if err != nil {
		return fmt.Errorf("build service request: %w", err)
	}
	if _, err := l.exchange(data); err != nil {
		return err
	}
	// The wire bytes are remembered so a later lost reply can replay them.
	l.wire, l.sentAt = data, time.Now()
	m.stats.MessagesOut.Add(1)
	return nil
}

// recv is the second phase of an exchange: it returns the service's reply
// to the last send, named name, and whether the cache holds it too — the
// parked cached reply when there is one, else the network's, parsed and
// handed to the cache when this exchange leads a flight or populates a key.
func (l *serviceLink) recv(name string) (*message.Message, bool, error) {
	m := l.s.med
	if abs := l.cache.reply; abs != nil {
		l.cache = cacheRole{}
		return abs, true, nil
	}
	t0 := l.s.clock()
	data, err := l.exchange(nil)
	l.s.timed(stageServiceWait, l.color, t0)
	if err != nil {
		return nil, false, err
	}
	l.s.lastRecv = data
	var elapsed time.Duration
	if !l.sentAt.IsZero() {
		elapsed = time.Since(l.sentAt)
		m.hists.Exchanges.observe(elapsed)
		l.sentAt = time.Time{}
	}
	l.pending = false
	if l.set != nil {
		// A completed round trip is the replica's health signal: it
		// feeds the latency EWMA and clears any avoid-on-redial hint.
		l.set.Report(l.addr, elapsed, nil)
		l.lastFault = ""
	}
	m.stats.MessagesIn.Add(1)
	// A reply the response cache is to hold is parsed whole: it outlives
	// the flow, and what the cache holds is what the service sent.
	c, reader := l.cache, l.reader
	if c.flight != nil || c.ttl > 0 {
		reader = m.cfg.Sides[l.color].Binder
	}
	t0 = l.s.clock()
	abs, err := reader.ParseReply(l.op, data)
	l.s.timed(stageParse, l.color, t0)
	if err != nil {
		m.stats.ServiceFailures.Add(1)
		return nil, false, fmt.Errorf("parse service reply: %w", err)
	}
	abs.Name = name
	l.cache = cacheRole{}
	switch {
	case c.flight != nil:
		m.rcache.Fulfill(c.flight, abs, c.ttl)
	case c.ttl > 0:
		m.rcache.Put(l.op, c.key, abs, c.ttl)
	default:
		return abs, false, nil
	}
	return abs, true, nil
}

// cacheCheck runs the response-cache protocol for the invocation of
// l.op: write operations flush the entries they invalidate, and
// cacheable operations are looked up. It reports true when the reply
// is already in hand (cache hit or coalesced join) and the network
// exchange must be skipped; false means the caller proceeds with the
// real exchange, with l.cache recording how its reply feeds back into
// the cache.
func (l *serviceLink) cacheCheck(abs *message.Message) bool {
	s, m := l.s, l.s.med
	if targets := m.cfg.Cache.Invalidates[l.op]; len(targets) > 0 {
		m.rcache.Invalidate(targets)
	}
	rule, ok := m.cfg.Cache.Rules[l.op]
	if !ok {
		return false
	}
	// The cache key uses the logical target — a backend set name when the
	// color is balanced — so a reply cached via one replica is served for
	// identical requests routed to any replica.
	key := rcache.Key(l.op, s.serviceTarget(l.color), abs, rule.Vary)
	reply, flight, leader := m.rcache.Acquire(l.op, key)
	if reply != nil {
		l.cache = cacheRole{reply: reply}
		s.trace(TraceEvent{Kind: TraceCacheHit, Color: l.color, State: l.op})
		return true
	}
	if leader {
		l.cache = cacheRole{flight: flight, key: key, ttl: rule.TTL}
		return false
	}
	// Follower: wait for the leader's exchange. Bound the wait by the
	// exchange timeout — the leader's own exchange is bounded by it too
	// — clipped to this flow's remaining budget. A budget already gone
	// skips the wait entirely; the fallback exchange below then fails
	// fast through exchange's own budget check.
	start := time.Now()
	rep, err := flight.Wait(time.Until(s.within(m.cfg.ExchangeTimeout)))
	if err == nil {
		l.cache = cacheRole{reply: rep}
		s.trace(TraceEvent{Kind: TraceCacheHit, Color: l.color, State: l.op,
			Attempt: 1, Elapsed: time.Since(start)})
		return true
	}
	// Leader aborted (or timed out): fall back to a direct exchange and
	// populate the cache ourselves.
	l.cache = cacheRole{key: key, ttl: rule.TTL}
	return false
}

// abortFlight releases the link's cache role when its flow has failed:
// a led flight is aborted so followers fall back.
func (l *serviceLink) abortFlight(err error) {
	if l.cache.flight != nil {
		l.s.med.rcache.Abort(l.cache.flight, err)
	}
	l.cache = cacheRole{}
}

// exchange runs one phase of a service exchange through the engine's
// only retry loop. With a request it is the send phase. With nil it is
// the receive phase: the reply is read, and once a fault has cost the
// connection the request went out on, the remembered request is first
// replayed on the fresh one so it has something to answer. A transport
// fault evicts the connection and is retried after a backoff — as is a
// failure to get a connection at all, whatever its class — until the
// policy's attempts are spent or the mediator is stopping; any other
// error is final. Every attempt — dial, pool wait, send, read, backoff —
// is charged against the flow's deadline budget, and an exhausted budget
// fails fast with ErrDeadline instead of stacking further attempts.
func (l *serviceLink) exchange(request []byte) ([]byte, error) {
	s, m := l.s, l.s.med
	phase, replay := "send service request", false
	if request == nil {
		phase, replay = "recv service reply", true
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if !s.budget.IsZero() && !time.Now().Before(s.budget) {
			return nil, s.budgetExceeded(phase, l.color, lastErr)
		}
		err := l.connect(attempt)
		if err == nil {
			if replay && attempt > 0 {
				request = l.wire
			}
			var reply []byte
			if reply, err = l.do(request, replay); err == nil {
				return reply, nil
			}
			if !network.IsTransportError(err) {
				m.stats.ServiceFailures.Add(1)
				return nil, fmt.Errorf("%s: %w", phase, err)
			}
			l.drop(err)
		}
		lastErr = err
		// Nothing to replay means retrying cannot produce the reply.
		if attempt >= m.retry.Attempts || m.stopping.Load() || (replay && l.wire == nil) {
			m.stats.RetriesExhausted.Add(1)
			m.stats.ServiceFailures.Add(1)
			return nil, fmt.Errorf("%s (color %d): retries exhausted: %w", phase, l.color, lastErr)
		}
		if !s.backoff(attempt) {
			return nil, s.budgetExceeded(phase, l.color, lastErr)
		}
	}
}

// do is one attempt on the held connection, under the per-attempt
// network deadline (the exchange timeout, within the flow's budget):
// write request when there is one, then read the reply when recv is set.
func (l *serviceLink) do(request []byte, recv bool) ([]byte, error) {
	if err := l.conn.SetDeadline(l.s.within(l.s.med.cfg.ExchangeTimeout)); err != nil {
		return nil, err
	}
	if request != nil {
		l.pending = true
		if err := l.conn.Send(request); err != nil {
			return nil, err
		}
	}
	if !recv {
		return nil, nil
	}
	return l.s.recvBuf.use(l.conn.RecvAppend(l.s.recvBuf.dst()))
}

// backoff sleeps the policy's jittered, capped delay before retry
// attempt+1, bounded by the flow's remaining deadline budget. It
// reports false — without sleeping — when the remaining budget could
// not fit both the sleep and a meaningful retry, so the caller fails
// fast instead of burning the budget's tail on a doomed attempt.
func (s *session) backoff(attempt int) bool {
	d := s.med.retry.delay(attempt)
	if s.within(d).Equal(s.budget) { // the sleep would end at or past the flow's deadline
		return false
	}
	if d > 0 {
		time.Sleep(d)
	}
	return true
}

// drop gives the held connection up. Without a cause it goes back to the
// shared pool — unless a reply is still in flight on it, which would
// poison its next user, so it is discarded instead of parked. With a
// cause, a transport fault, it is discarded and the key's idle siblings
// are flushed: they were dialled to the same dead endpoint, and vetting
// them one by one would burn the retry budget on stale sockets. A
// balanced replica also gets the fault reported to its set — feeding
// passive ejection — and is remembered so the redial picks another.
func (l *serviceLink) drop(cause error) {
	if l.conn == nil {
		return
	}
	m := l.s.med
	conn, key := l.conn, pool.Key{Color: l.color, Addr: l.addr}
	discard := l.pending || cause != nil
	l.conn, l.pending = nil, false
	m.mu.Lock()
	delete(m.svcConns, conn)
	m.mu.Unlock()
	if l.set != nil {
		l.set.Release(l.addr)
		if cause != nil {
			l.set.Report(l.addr, 0, cause)
			l.lastFault = l.addr
		}
	}
	if !discard {
		m.pool.Put(key, conn)
		return
	}
	m.pool.Discard(key, conn)
	if cause != nil {
		m.pool.Flush(key)
	}
}

// serviceTarget resolves the current logical target of a client-role
// color, honouring the flow's sethost retarget via the host map. The
// result is either a literal address or the name of a backend replica
// set — resolving a set to a concrete replica is connect's job, so
// cache keys and retarget detection stay per-service, not per-replica.
func (s *session) serviceTarget(color int) string {
	addr := s.med.cfg.Sides[color].Target
	if s.step.host != "" {
		if mapped, ok := s.med.cfg.HostMap[s.step.host]; ok {
			addr = mapped
		}
	}
	return addr
}

// connect makes sure the link holds a connection to where the flow
// wants to talk, checking one out of the pool lazily. A held connection
// is kept only while it still points at that target: a sethost retarget
// that fires after the first checkout is a pool-key change — the old
// connection goes back to the pool for its own key — as is a transport
// fault (via drop). A target naming a backend replica set is resolved
// to a concrete replica by the set's balancing policy, avoiding the
// last faulted replica; the link then sticks to that replica until it
// drops the connection. Replacement checkouts are counted as Redials;
// attempt > 0 marks a fault-recovery redial in the trace.
func (l *serviceLink) connect(attempt int) error {
	s, m := l.s, l.s.med
	target := s.serviceTarget(l.color)
	set := m.cfg.Backends[target]
	if l.conn != nil {
		if l.set == set && (set != nil || l.addr == target) {
			return nil
		}
		// Retargeted after checkout: the connection is healthy, it just
		// points somewhere this flow no longer wants to talk to.
		l.drop(nil)
	}
	if m.stopping.Load() {
		return fmt.Errorf("service connection (color %d, %s): %w", l.color, target, errClosing)
	}
	addr := target
	if set != nil {
		addr = set.Pick(l.lastFault)
	}
	t0 := s.clock()
	conn, err := m.checkout(l.color, addr, s.within(m.cfg.DialTimeout))
	s.timed(stagePoolWait, l.color, t0)
	if err != nil {
		if set != nil {
			// The in-flight slot Pick took is never used; a failed
			// checkout is a replica fault for ejection accounting.
			set.Release(addr)
			set.Report(addr, 0, err)
			l.lastFault = addr
		}
		return fmt.Errorf("service connection (color %d, %s): %w", l.color, addr, err)
	}
	l.conn, l.addr, l.set = conn, addr, set
	if l.dialed {
		m.stats.Redials.Add(1)
		s.trace(TraceEvent{Kind: TraceRedial, Color: l.color, State: addr, Attempt: attempt})
	}
	l.dialed = true
	return nil
}

// Package engine is Starlink's automata engine (paper Section 4.2): it
// interprets a concrete merged k-colored automaton at runtime as two
// steps and a shell.
//
// The steps decide and touch no socket and no clock. The flow's step
// (flow.go) walks the automaton, compiled by New into one step per state
// of the paper's three types — receiving, sending and no-action (γ) — and
// returns what the state it enters asks for: read the client, send to a
// colour, receive from it, reply to the client, or nothing more. γ runs
// pre-compiled MTL whose cache keyword lasts as long as the client
// connection (the Fig. 10 getInfo resolution). The link's step (link.go)
// decides each service exchange: retry, replay, the replica to avoid, the
// response cache's part, the budget, and what becomes of a connection.
//
// The shell is the session: it performs each action and feeds the outcome
// back. It owns the client connection; each of its flows takes a flow
// state from the mediator — the step, a link per service colour, whose
// connections come from a pool shared by every flow, and the packet
// buffers — and gives it back when it ends. The mediator is the server
// towards the color-1 application (Fig. 6) and a client towards the
// color-2 one.
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
	// ErrDeadline is returned when a blocking step of a flow — a dial, a
	// pool wait, a backoff, a coalesced cache wait, an exchange — would run
	// past the flow's budget (Config.FlowDeadline); Stats.DeadlineExceeded
	// counts it.
	ErrDeadline = errors.New("engine: flow deadline exceeded")
	// errClosing stops service checkouts once the mediator is torn down.
	errClosing = errors.New("engine: mediator closing")
)

// Side configures one color of the mediator.
type Side struct {
	// Binder maps between concrete packets and abstract action messages;
	// its Framer says how the color travels (network.SemanticsOf).
	Binder bind.Binder
	// Target is the service address of a client-role color.
	Target string
	// Dialer, when set, opens the side's service connections instead of
	// the network engine; tests inject faulty transports with it.
	Dialer func(sem network.Semantics, addr string, framer network.Framer) (network.Conn, error)
}

// RetryPolicy is the fault-recovery policy of service exchanges; every
// field means what it says. A nil Config.Retry takes the defaults.
type RetryPolicy struct {
	// Attempts is how many times a failed service exchange is retried on
	// a fresh connection (0: the first failure is final).
	Attempts int
	// Backoff seeds the backoff: before retry n the session sleeps a
	// delay drawn uniformly from (0, min(Backoff<<n, MaxBackoff)]
	// (0: retry at once).
	Backoff time.Duration
	// MaxBackoff caps the window (0: DefaultMaxBackoff).
	MaxBackoff time.Duration
}

// delay draws the sleep before retry attempt+1. The window saturates at
// the cap, also where Backoff<<attempt would overflow: an overflowed
// window once skipped the sleep and turned the retry loop hot.
func (p RetryPolicy) delay(attempt int) time.Duration {
	if p.Backoff <= 0 {
		return 0
	}
	max := cmp.Or(p.MaxBackoff, DefaultMaxBackoff)
	window := max
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
	// real addresses.
	HostMap map[string]string
	// Backends maps a logical service name to a replica set. A target
	// that names one is balanced: each checkout picks a live replica,
	// each outcome is reported for passive ejection, and a redial avoids
	// the replica that failed. The mediator starts and stops the sets.
	Backends map[string]*backend.Set
	// Discovery holds the reconcilers that drive Backends membership from
	// live sources, each of a set in Backends; the mediator starts and
	// stops them, and a gateway hot swap adopts their counters (Adopt).
	Discovery []*discovery.Reconciler
	// Funcs adds extra MTL functions.
	Funcs map[string]mtl.Func
	// ExchangeTimeout bounds each network exchange (default
	// DefaultExchangeTimeout).
	ExchangeTimeout time.Duration
	// Retry is the fault-recovery policy; nil means the defaults.
	Retry *RetryPolicy
	// FlowDeadline is the per-flow budget: from a flow's first client
	// request, every blocking step of the flow — dials, pool waits,
	// backoffs, coalesced cache waits, the exchanges — is charged against
	// it, and an exhausted budget fails the flow fast with ErrDeadline.
	// 0 means 2 × ExchangeTimeout; every flow has a budget.
	FlowDeadline time.Duration
	// Cache, when non-nil, enables the response cache shared by every
	// session for the declared service operations: a cacheable request is
	// served from it, joins an identical exchange in flight, or fetches
	// the reply and stores it.
	Cache *CachePolicy
	// DialTimeout bounds each service dial and each wait for a pooled
	// connection (default network.DefaultDialTimeout).
	DialTimeout time.Duration
	// PoolSize caps the pooled service connections per (color, address);
	// 0 means DefaultPoolSize.
	PoolSize int
	// PoolIdle bounds how long an idle pooled connection stays warm; 0
	// means DefaultPoolIdle, and a negative value closes it on check-in.
	PoolIdle time.Duration
	// Trace, when non-nil, receives one event per observable mediation
	// step, synchronously from session goroutines, so it must be fast and
	// concurrency-safe; a panic in it is counted in Stats.HookPanics.
	Trace func(TraceEvent)

	// wholeReplies parses every service reply whole, as if no binder were a
	// bind.Projector: the tests' way to hold projection to no projection.
	wholeReplies bool
}

// retryPolicy resolves the effective fault-recovery policy: the Retry
// field when set (validated), else the defaults.
func (c Config) retryPolicy() (RetryPolicy, error) {
	if c.Retry == nil {
		return DefaultRetry(), nil
	}
	p := *c.Retry
	if p.Attempts < 0 || p.Backoff < 0 || p.MaxBackoff < 0 {
		return RetryPolicy{}, fmt.Errorf("%w: a negative value in %+v", ErrConfig, p)
	}
	return p, nil
}

// The defaults of Config and RetryPolicy.
const (
	DefaultRetryAttempts   = 2
	DefaultBackoff         = 50 * time.Millisecond
	DefaultMaxBackoff      = 2 * time.Second
	DefaultPoolSize        = pool.DefaultMaxActive
	DefaultPoolIdle        = pool.DefaultIdleTimeout
	DefaultExchangeTimeout = 10 * time.Second
)

// DefaultRetry is the policy a nil Config.Retry stands for.
func DefaultRetry() RetryPolicy {
	return RetryPolicy{Attempts: DefaultRetryAttempts, Backoff: DefaultBackoff}
}

// CacheRule declares one cacheable service operation: its replies are
// stored for TTL (> 0) and served to later identical requests, those whose
// Vary field paths are equal, or all their fields if Vary is empty.
type CacheRule struct {
	TTL  time.Duration
	Vary []string
}

// CachePolicy configures the response cache (the `cacheable`,
// `invalidates`, `cache_size` and `cache_shards` directives).
type CachePolicy struct {
	// Rules maps cacheable service operation names to their rule.
	Rules map[string]CacheRule
	// Invalidates maps a write operation to the cacheable operations
	// whose entries it flushes when sent.
	Invalidates map[string][]string
	// MaxEntries and Shards bound the stored replies and split the cache
	// into locked segments (0: the rcache defaults).
	MaxEntries, Shards int
}

// TraceKind classifies TraceEvents.
type TraceKind int

// Trace event kinds.
const (
	// TraceTransition fires after a transition executes; its State is the
	// state entered.
	TraceTransition TraceKind = iota
	// TraceRedial fires when a service connection is replaced, after a
	// fault or a sethost retarget.
	TraceRedial
	// TraceError fires when a session ends with an error, and ends the
	// flow that failed.
	TraceError
	// TraceFlowStart fires when a flow's first client request arrives.
	TraceFlowStart
	// TraceFlowEnd fires when a traversal completes, before the final
	// client reply is written.
	TraceFlowEnd
	// TraceSessionEnd fires when a session ends, however it ended.
	TraceSessionEnd
	// TraceCacheHit fires when the response cache answers an exchange: a
	// stored reply (Attempt 0) or a joined leader's (Attempt 1). State
	// is the operation.
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
	// Session numbers the client connection and Flow the traversal within
	// it, both from 1.
	Session, Flow uint64
	// Kind selects which fields below are meaningful.
	Kind TraceKind
	// Time is when the event was emitted.
	Time time.Time
	// State is the state a TraceTransition entered, and Transition its
	// "from->to".
	State, Transition string
	// Color is the side a message transition or redial concerns.
	Color int
	// Attempt is the retry attempt of a TraceRedial (0 for a retarget).
	Attempt int
	// Elapsed is the step's duration for TraceTransition and TraceFlowEnd.
	// A client-reply transition is published before its reply is written,
	// so its Elapsed covers building the reply, not the write.
	Elapsed time.Duration
	// Parse and Build are the binder's part of a message transition's
	// Elapsed, zero where the binder did not run; FrameRead, PoolWait and
	// ServiceWait are the wire's: reading the client's request, waiting for
	// a pooled connection, and waiting for the service's reply. All are
	// measured only while a Trace hook is set. A client reply's write has
	// no field, for it comes after its transition is published.
	Parse, Build                     time.Duration
	FrameRead, PoolWait, ServiceWait time.Duration
	// Err carries the cause for TraceError and fault-driven TraceRedial.
	Err error
	// Wire is a copy, at most MaxTraceWire bytes, of the last packet
	// received before a TraceError.
	Wire []byte
	// Budget is the flow's remaining budget when the event was emitted:
	// negative once it is spent, zero before the flow has started.
	Budget time.Duration
}

// MaxTraceWire bounds the wire capture attached to TraceError events.
const MaxTraceWire = 256

// Stats are a mediator's lifetime counters, as Snapshot reads them.
type Stats = counters[uint64]

// counters declares each lifetime counter of a mediator once: a field
// here and its row in Fields, the name and help text /metrics exports it
// under. Sessions increment the live form, counters[atomic.Uint64], and
// Snapshot loads it into a Stats, but for the Pool* and Cache* cells,
// which it fills from its one sample of the pool and of the cache.
type counters[T any] struct {
	// Flows counts complete traversals; Translations, γ programs executed
	// (a hit sent a rendered reply runs none, DESIGN.md §13); Failures,
	// sessions that ended with an error other than the client leaving.
	// A failed flow adds to Failures last, after the counters of its cause
	// (ClientFailures, ServiceFailures, RetriesExhausted, DeadlineExceeded),
	// so a snapshot that shows a flow's failure shows its cause.
	Sessions, Flows, Translations, MessagesIn, MessagesOut, Failures T
	// Redials counts service connections replaced after a fault or a
	// sethost retarget.
	Redials, RetriesExhausted, ClientFailures, ServiceFailures T
	// PoolEvictions counts pooled connections closed early: idle timeout,
	// a check-in with idle keep-alive off, a discard or a flush.
	PoolHits, PoolDials, PoolEvictions, PoolWaitTimeouts T
	// DeadlineExceeded counts flows whose budget ran out; HookPanics,
	// panics of the Trace hook, which the flows survive.
	DeadlineExceeded, HookPanics T
	// The Cache* counters stay zero unless Config.Cache is set.
	CacheHits, CacheMisses, CacheCoalesced, CacheEvictions, CacheInvalidations T
}

// Metric is one row of a declaration table: the name and help text of a
// /metrics family and the cell that holds its value. A series of a
// labelled family is named as the exposition format writes it, labels
// and all (`starlink_stage_seconds{stage="parse",color="1"}`), beside the
// rest of its family.
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
		{"starlink_redials_total", "Service connections replaced mid-flow.", &c.Redials},
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
	cfg    Config
	policy linkPolicy
	// flowBudget is the resolved per-flow budget; plan the automaton
	// compiled for the flows to walk; sems how each color travels.
	flowBudget time.Duration
	plan       *plan
	sems       map[int]network.Semantics
	stats      counters[atomic.Uint64]
	// readers are the binders the links parse replies with, by link: the
	// side's, projected to what the plan reads of each reply where the
	// binder is a bind.Projector.
	readers []bind.Binder
	// rcache is the response cache, nil unless Config.Cache declares a
	// cacheable operation; hists are the live latency histograms.
	rcache *rcache.Cache
	hists  histograms[histogram]

	// draining refuses new flows (set by Shutdown); stopping stops service
	// checkouts and retries (set when Shutdown's context expires, at once
	// for Close).
	draining atomic.Bool
	stopping atomic.Bool

	mu       sync.Mutex
	closed   bool
	listener network.Listener
	pool     *pool.Pool
	conns    map[network.Conn]struct{} // client conns of live sessions
	svcConns map[network.Conn]struct{} // checked-out service conns
	idle     map[network.Conn]struct{} // client conns parked between flows
	// spares are the flow states of ended flows, for the next to take
	// (Mediator.take), whose stores hold spareBytes, at most maxSpareBytes.
	spares     []*flowState
	spareBytes int
	wg         sync.WaitGroup
}

// maxSpareBytes bounds the bytes the stores of a mediator's spares keep. An
// Add flow's store keeps about 3 KB and a fifty-entry search's about 90 KB:
// spares for every flow a busy gateway runs at once, and a few of the
// largest, without a burst of large flows pinning a store each.
const maxSpareBytes = 256 << 10

// take hands a flow of s the flow state an ended flow left, or a new one.
func (m *Mediator) take(s *session) *flowState {
	var f *flowState
	m.mu.Lock()
	if n := len(m.spares); n > 0 {
		f, m.spares[n-1] = m.spares[n-1], nil
		m.spares = m.spares[:n-1]
		m.spareBytes -= f.held
	}
	m.mu.Unlock()
	if f == nil {
		f = &flowState{links: make([]serviceLink, len(m.plan.links))}
		for i, color := range m.plan.links {
			f.links[i] = serviceLink{s: f, color: color, idx: int32(i), m: link{p: &m.policy}}
		}
	}
	f.session = s
	return f
}

// give keeps an ended flow's state for the flows to come, emptied by its
// run: packets and connections given back, the store reset and under the
// race detector poisoned. A state whose store would take the spares past
// maxSpareBytes is left to the collector.
func (m *Mediator) give(f *flowState) {
	f.session, f.step.env.Cache = nil, nil
	f.held = f.step.env.Store().Held()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.spareBytes+f.held <= maxSpareBytes {
		m.spares = append(m.spares, f)
		m.spareBytes += f.held
	}
}

// Snapshot is one reading of a mediator, of which /metrics, /healthz,
// /backends and /discovery each read one.
type Snapshot struct {
	// Stats are the lifetime counters.
	Stats Stats
	// Latencies are the latency histograms.
	Latencies
	// Pool is the service pool's occupancy, zero before Start, and the
	// sample the Pool* counters of Stats are read from.
	Pool pool.Stats
	// Backends are the replica sets by name, and Discovery the discovery
	// reconcilers by the set they drive; nil when there are none.
	Backends  []backend.SetSnapshot
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

// CacheFlush drops every reply from the response cache and returns how
// many it dropped, 0 for a mediator without a cache.
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
	if cfg.FlowDeadline < 0 {
		return nil, fmt.Errorf("%w: negative FlowDeadline %v: every flow has a budget", ErrConfig, cfg.FlowDeadline)
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
	m := &Mediator{
		cfg:        cfg,
		policy:     linkPolicy{retry: retry, exchange: cfg.ExchangeTimeout, dial: cfg.DialTimeout},
		flowBudget: cmp.Or(cfg.FlowDeadline, 2*cfg.ExchangeTimeout),
		plan:       p,
		sems:       sems,
		readers:    readers,
		conns:      make(map[network.Conn]struct{}),
		svcConns:   make(map[network.Conn]struct{}),
		idle:       make(map[network.Conn]struct{}),
	}
	if cfg.Cache != nil && len(cfg.Cache.Rules) > 0 {
		m.rcache = rcache.New(rcache.Options{MaxEntries: cfg.Cache.MaxEntries, Shards: cfg.Cache.Shards})
	}
	return m, nil
}

// Start is StartDetached and an accept loop that hands every client
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

// startBackends hooks every replica set into the pool, so an ejected or
// removed replica's idle connections are flushed for every client color,
// then starts the sets' health probers and the discovery loops.
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
// this one replaces: the replica health of same-named backend sets, so
// the swap does not route traffic back into sick replicas, and the
// counters of the discovery reconcilers of the same sets, so /metrics
// rates stay continuous.
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

// StartDetached opens the shared service pool, whose dials honour each
// side's Dialer, and starts the backends, binding no listener: a gateway
// hands connections in through ServeConn.
func (m *Mediator) StartDetached() error {
	p, err := pool.New(pool.Options{
		MaxActive:   m.cfg.PoolSize,
		IdleTimeout: m.cfg.PoolIdle,
		Dial: func(ctx context.Context, key pool.Key) (network.Conn, error) {
			side := m.cfg.Sides[key.Color]
			dial := side.Dialer
			if dial == nil {
				// The checkout's deadline is the dial timeout clipped to the
				// flow's budget: a dial counts against the flow.
				dl, _ := ctx.Deadline()
				timeout := time.Until(dl)
				if timeout <= 0 {
					return nil, fmt.Errorf("dial %v: %w", key, context.DeadlineExceeded)
				}
				dial = network.Engine{DialTimeout: timeout}.Dial
			}
			return dial(m.sems[key.Color], key.Addr, side.Binder.Framer())
		},
	})
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.pool = p
	m.mu.Unlock()
	m.startBackends()
	return nil
}

// Addr returns the client-facing address, "" for a detached mediator.
func (m *Mediator) Addr() string {
	m.mu.Lock()
	l := m.listener
	m.mu.Unlock()
	if l == nil {
		return ""
	}
	return l.Addr().String()
}

// ServeConn starts a mediation session on conn, on its own goroutine, and
// owns conn from then on. When the mediator is draining, closed or not
// started it returns ErrDraining and leaves conn to the caller.
func (m *Mediator) ServeConn(conn network.Conn) error {
	m.mu.Lock()
	if m.closed || m.draining.Load() || m.pool == nil {
		m.mu.Unlock()
		return ErrDraining
	}
	m.conns[conn] = struct{}{}
	// Under the lock, or Shutdown's wait could end between the draining
	// check and the Add.
	m.wg.Add(1)
	m.mu.Unlock()
	s := m.newSession(conn)
	go func() {
		defer m.wg.Done()
		s.run()
	}()
	return nil
}

// newSession numbers a session for conn.
func (m *Mediator) newSession(conn network.Conn) *session {
	return &session{med: m, id: m.stats.Sessions.Add(1), client: conn}
}

// ErrDraining is returned by ServeConn when the mediator takes no session.
var ErrDraining = errors.New("engine: mediator draining")

// Close is a Shutdown with no time to drain.
func (m *Mediator) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.Shutdown(ctx); err != context.Canceled {
		return err
	}
	return nil
}

// Shutdown stops the mediator: it takes no new session, harvests those
// idle between flows and lets flows in progress finish. When ctx expires
// first, the remaining sessions are cut off and ctx's error returned.
// Either way the pool is closed before it returns, for good.
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
		// Cut the sessions off: closing their connections unblocks
		// whatever they wait in.
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
	// Release the discovery reconcilers first, so membership stops
	// churning, then the replica sets and the pool; each close is
	// idempotent, for a Close may overtake a Shutdown in progress.
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

// park marks a client connection idle between flows, for Shutdown to
// harvest, or busy again. It parks nothing and reports false when the
// mediator is draining, and the session should end instead of waiting.
func (m *Mediator) park(c network.Conn, idle bool) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !idle || m.closed || m.draining.Load() {
		delete(m.idle, c)
		return !idle
	}
	m.idle[c] = struct{}{}
	return true
}

// session is one client connection's execution of the automaton, the
// shell around the steps. The automaton restarts after a final state, so
// a client can run the whole behaviour repeatedly on one connection.
// Between flows it holds only what follows; a flow takes the rest (flowState).
type session struct {
	med    *Mediator
	id     uint64
	client network.Conn
	// flow numbers the current traversal from 1; cache holds what its γ
	// programs cache, for the lifetime of the connection (Fig. 10).
	flow  uint64
	cache mtl.Cache
}

// flowState is the shell of one flow: the step, the service links, the
// packet buffers and the clock readings, taken from the mediator once the
// flow's first request is read and given back when it ends (Mediator.take,
// give), so the flow states in use are the flows in progress.
type flowState struct {
	*session
	// step walks the automaton; links are the service links, in plan.links
	// order; held is what step's store kept when the state was given back.
	step  flow
	links []serviceLink
	held  int
	// flowT0 is when the flow's first client request arrived; lastRecv is
	// the last packet received, for an error trace.
	flowT0   time.Time
	lastRecv []byte
	// recvBuf holds every packet a flow reads but its first: service
	// replies and the client's later requests, each dead once parsed.
	// replyBuf holds the client reply being sent, dead once Send returns.
	recvBuf, replyBuf wireBuf
	// now is the flow's last reading of the clock (tick): once per step
	// and once per blocking action of a link. waitAt is when the receive
	// under way began, while a Trace hook is set, and rtt what its round
	// trip took.
	now    time.Time
	waitAt time.Time
	rtt    time.Duration
	// stages are the stage durations of the transition under way, for its
	// TraceEvent; timed only while a Trace hook is set.
	stages [len(stageNames)]time.Duration
}

// The stages of a message, as flowState.stages and histograms.Stages index
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

// budget is the deadline of the flow: its flowBudget from the arrival of
// its first client request.
func (s *flowState) budget() time.Time { return s.flowT0.Add(s.med.flowBudget) }

// tick reads the clock into now and returns it. It is one of the two
// places the session reads the clock (`make check` holds engine.go to
// them): once per step of a flow, and once after each blocking action — a
// client or service read or write, a pool checkout, a backoff sleep, a
// wait for a cache flight. Everything else a flow times or bounds — a
// link event's budget left, when a request went out, a round trip, a
// deadline — is read off the last tick.
func (s *flowState) tick() time.Time {
	s.now = time.Now()
	return s.now
}

// clock is the time a stage starts, when a Trace hook is set to read what
// it took; the zero time, and no clock read, otherwise. It is the other
// place the session reads the clock: only for a trace.
func (s *session) clock() time.Time {
	if s.med.cfg.Trace == nil {
		return time.Time{}
	}
	return time.Now()
}

// timed ends a stage that started at t0 on the side of colour color: its
// duration goes to the stage histogram and, but for a reply write, which
// comes after its transition is published, adds up in the transition's
// TraceEvent.
func (s *flowState) timed(stage, color int, t0 time.Time) {
	if t0.IsZero() {
		return
	}
	d := s.clock().Sub(t0)
	if stage != stageReplyWrite {
		s.stages[stage] += d
	}
	if color == 1 || color == 2 {
		s.med.hists.Stages[stage][color-1].observe(d)
	}
}

// serviceLink is the shell of one client-role colour's link (link.go): it
// holds what the machine only names — the pooled connection, the replica
// set, the request's bytes, the cache flight — and is the only code that
// talks to that service, performing each action the machine asks for.
type serviceLink struct {
	s     *flowState
	color int
	// idx is the link's index in plan.links, which picks its reader
	// (Mediator.readers); dialed marks a link that has checked out in this
	// flow, so the next checkout is a redial.
	idx    int32
	dialed bool
	m      link
	// conn is the held connection, nil while none is; addr the replica it
	// was, or was last to be, checked out to, and set the replica set that
	// picked addr, whose in-flight slot is held until conn is given up.
	conn network.Conn
	addr string
	set  *backend.Set
	// sentAt is when the request went out, as time since the flow began;
	// op is the exchange's operation, and reqBuf holds its request, for a
	// replay, until the flow ends.
	sentAt time.Duration
	op     string
	reqBuf wireBuf
	// reply is the exchange's reply once it is in hand; flight, key and hit
	// (the entry a lookup found it in) are the response cache's part.
	reply  *message.Message
	flight *rcache.Flight
	key    string
	hit    *rcache.Entry
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

// use keeps the packet an append form wrote, in storage grown when it did
// not fit, and passes its results on.
func (w *wireBuf) use(packet []byte, err error) ([]byte, error) {
	*w.p = packet
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
// parked between flows holds no packet. The links have let go of theirs.
func (s *flowState) releasePackets() {
	s.recvBuf.release()
	s.replyBuf.release()
	s.lastRecv = nil
}

// trace delivers ev, stamped with what is left of the flow's budget.
func (s *flowState) trace(ev TraceEvent) { s.emit(ev, s.budget()) }

// emit delivers ev to the configured hook, stamping the session id, flow
// number, time and, but for the zero budget, the budget left. A panic of
// the hook is counted in HookPanics, and the session goes on.
func (s *session) emit(ev TraceEvent, budget time.Time) {
	if s.med.cfg.Trace == nil {
		return
	}
	ev.Session, ev.Flow, ev.Time = s.id, s.flow, s.clock()
	if !budget.IsZero() {
		ev.Budget = budget.Sub(ev.Time)
	}
	defer func() {
		if recover() != nil {
			s.med.stats.HookPanics.Add(1)
		}
	}()
	s.med.cfg.Trace(ev)
}

// run serves the session's flows, each with a flow state taken once its
// first request is read, until the client leaves between flows (no
// failure), a flow fails, or Shutdown is in progress once a flow's reply
// is out.
func (s *session) run() {
	defer func() {
		s.emit(TraceEvent{Kind: TraceSessionEnd}, time.Time{})
		s.client.Close()
		s.med.mu.Lock()
		delete(s.med.conns, s.client)
		delete(s.med.idle, s.client)
		s.med.mu.Unlock()
	}()
	for {
		s.flow++
		first, ok := s.await()
		if !ok {
			return
		}
		f := s.med.take(s)
		err := f.run(first)
		s.med.give(f)
		if err != nil || s.med.draining.Load() {
			return
		}
	}
}

// await reads a flow's first request, and reports false when the session
// is to end instead. The read has no deadline, for a keep-alive connection
// may idle between flows, and parks the session for Shutdown to harvest;
// it reads into a packet of its own, so a parked session holds no buffer.
func (s *session) await() ([]byte, bool) {
	if s.client.SetDeadline(time.Time{}) != nil || !s.med.park(s.client, true) {
		return nil, false
	}
	data, err := s.client.Recv()
	s.med.park(s.client, false)
	return data, err == nil
}

// run walks one flow whose first request, just read, is first, which
// starts its budget and its first transition, and ends it. The client's
// wait between flows is no part of the flow, so that read is timed from
// the flow's start too. Its exchanges end with it: a flight one still
// leads is aborted before the client is told, a write followers should
// not wait for. Then the trace has its copy of the last packet and the
// client its answer, and the flow's packets and messages are dead.
func (s *flowState) run(first []byte) error {
	s.flowT0, s.lastRecv = s.tick(), first
	s.timed(stageFrameRead, s.med.cfg.ServerColor, s.clock())
	s.trace(TraceEvent{Kind: TraceFlowStart})
	s.med.stats.MessagesIn.Add(1)
	err := s.runFlow(first)
	for i := range s.links {
		s.links[i].end(err)
	}
	if err != nil {
		s.med.stats.Failures.Add(1)
		s.trace(TraceEvent{Kind: TraceError, Err: err, Wire: bytes.Clone(s.lastRecv[:min(len(s.lastRecv), MaxTraceWire)])})
		s.sendErrorReply(err)
	}
	s.releasePackets()
	s.step.release()
	return err
}

// recvClientRequest parses a client request: data, the flow's first, or
// else the next one read within the flow's budget.
func (s *flowState) recvClientRequest(data []byte) (event, error) {
	if data == nil {
		if err := s.client.SetDeadline(s.budget()); err != nil {
			return event{}, s.clientGone(err)
		}
		t0 := s.clock()
		var err error
		data, err = s.recvBuf.use(s.client.RecvAppend(s.recvBuf.dst()))
		s.tick()
		s.timed(stageFrameRead, s.med.cfg.ServerColor, t0)
		if err != nil {
			return event{}, s.clientGone(err)
		}
		s.lastRecv = data
		s.med.stats.MessagesIn.Add(1)
	}
	t0 := s.clock()
	op, msg, err := s.med.cfg.Sides[s.med.cfg.ServerColor].Binder.ParseRequestIn(s.step.env.Store(), data)
	s.timed(stageParse, s.med.cfg.ServerColor, t0)
	if err != nil {
		s.med.stats.ClientFailures.Add(1)
		return event{}, fmt.Errorf("parse client request: %w", err)
	}
	return event{op: op, msg: msg}, nil
}

// clientGone is the error of a client read within a flow that failed: a
// client failure, and a deadline exhaustion too once the budget is spent.
func (s *flowState) clientGone(err error) error {
	s.med.stats.ClientFailures.Add(1)
	if !s.now.Before(s.budget()) {
		s.med.stats.DeadlineExceeded.Add(1)
		return fmt.Errorf("recv client request: %w (last attempt: %v)", ErrDeadline, err)
	}
	return fmt.Errorf("recv client request: %w", err)
}

// sendErrorReply reports a mediation failure to a client that is still
// waiting for an answer, if the client-side binder can build faults.
func (s *flowState) sendErrorReply(cause error) {
	replier, ok := s.med.cfg.Sides[s.med.cfg.ServerColor].Binder.(bind.ErrorReplier)
	if !ok || s.step.pendingAction == "" {
		return
	}
	// The session ends either way; a fault that cannot be delivered has
	// no one left to report to.
	data, err := replier.BuildErrorReply(s.step.pendingAction, s.step.pending, cause.Error())
	if err == nil && s.client.SetDeadline(s.tick().Add(s.med.cfg.ExchangeTimeout)) == nil {
		_ = s.sendClient(data)
	}
}

// sendClient hands one message to the client connection, counted before
// it is on the wire, so a client holding its reply never reads a
// MessagesOut that lacks it, and taken back if the send fails.
func (s *flowState) sendClient(data []byte) error {
	s.med.stats.MessagesOut.Add(1)
	err := s.client.Send(data)
	if err != nil {
		s.med.stats.MessagesOut.Add(^uint64(0))
	}
	return err
}

// runFlow walks one start-to-final traversal from its first request: it
// performs each action of the step but a γ, which next runs, and feeds the
// outcome back, tracing every transition the step takes. A transition is
// timed from the tick that ended the one before, the first from the
// flow's start, to the tick that ends it.
func (s *flowState) runFlow(first []byte) error {
	act := s.step.reset(s.med.plan, &s.cache)
	for start := s.flowT0; act.kind != kDone; start = s.now {
		var ev event
		var reply []byte
		var err error
		switch act.kind {
		case kRead:
			ev, err = s.recvClientRequest(first)
			first = nil
		case kSend:
			err = s.links[act.link].send(act.op, act.msg)
		case kRecv:
			ev, err = s.links[act.link].recv(act.op)
		case kReply:
			// A hit is sent what the first on its entry rendered (act.wire).
			if reply = act.wire; reply == nil {
				t0 := s.clock()
				reply, err = s.replyBuf.use(s.med.cfg.Sides[s.med.cfg.ServerColor].Binder.AppendReply(s.replyBuf.dst(), act.op, act.msg))
				s.timed(stageBuild, s.med.cfg.ServerColor, t0)
				if err != nil {
					err = fmt.Errorf("build client reply: %w", err)
				} else if r := act.keep; r != nil {
					r.wire = bytes.Clone(reply)
					s.links[s.med.plan.steps[r.state].link].hit.Keep(r)
				}
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
		elapsed := s.tick().Sub(start)
		if asked == kGamma && s.step.sent == nil {
			s.med.stats.Translations.Add(1)
			s.med.hists.Translate.observe(elapsed)
		}
		a := s.step.fired
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
			s.trace(TraceEvent{Kind: TraceFlowEnd, Elapsed: s.now.Sub(s.flowT0)})
		}
		if reply != nil {
			t0 := s.clock()
			err := s.sendClientReply(reply)
			s.tick()
			s.timed(stageReplyWrite, s.med.cfg.ServerColor, t0)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// sendClientReply writes a built client reply within the exchange
// timeout, clipped to the flow's budget.
func (s *flowState) sendClientReply(data []byte) error {
	dl, budget := s.now.Add(s.med.cfg.ExchangeTimeout), s.budget()
	if budget.Before(dl) {
		dl = budget
	}
	if err := s.client.SetDeadline(dl); err != nil {
		return err
	}
	if err := s.sendClient(data); err != nil {
		s.med.stats.ClientFailures.Add(1)
		return fmt.Errorf("send client reply: %w", err)
	}
	return nil
}

// end ends the link's part in a flow: the machine gives a held connection
// back and aborts a flight the link leads, and what the flow left on the
// link is let go, so the next checkout is the next flow's first.
func (l *serviceLink) end(err error) {
	l.run(linkEvent{kind: evFlowEnd, err: err}, nil, "")
	l.reqBuf.release()
	l.reply, l.hit, l.key, l.dialed = nil, nil, "", false
}

// send is the first phase of an exchange: the mediator invokes operation
// op with abs, unless the response cache has the reply in hand.
func (l *serviceLink) send(op string, abs *message.Message) error {
	l.op, l.reply, l.hit = op, nil, nil
	ev := linkEvent{kind: evSend}
	if l.s.med.rcache != nil {
		ev = l.acquire(abs)
	}
	_, err := l.run(ev, abs, "")
	return err
}

// recv is the second phase of an exchange: the event of the service's
// reply to the last send, named name, with what the cache says of it.
func (l *serviceLink) recv(name string) (event, error) {
	l.s.waitAt = l.s.clock()
	cached, err := l.run(linkEvent{kind: evRecv}, nil, name)
	ev := event{msg: l.reply, cached: cached, hit: l.hit != nil}
	if ev.hit {
		ev.kept, _ = l.hit.Kept().(*rendering)
	}
	l.reply = nil
	return ev, err
}

// acquire is the response cache's part of a send of abs, whose outcome
// starts it: a write flushes the entries it invalidates, and a cacheable
// request is looked up under its logical target — a backend set's name
// when the colour is balanced, so a reply cached via one replica serves all.
func (l *serviceLink) acquire(abs *message.Message) linkEvent {
	s, m := l.s, l.s.med
	if targets := m.cfg.Cache.Invalidates[l.op]; len(targets) > 0 {
		m.rcache.Invalidate(targets)
	}
	rule, ok := m.cfg.Cache.Rules[l.op]
	if !ok {
		return linkEvent{kind: evSend}
	}
	l.key = rcache.Key(l.op, s.serviceTarget(l.color), abs, rule.Vary)
	hit, flight, leader := m.rcache.Lookup(l.op, l.key)
	l.flight = flight
	switch {
	case hit != nil:
		l.reply, l.hit = hit.Reply(), hit
		s.trace(TraceEvent{Kind: TraceCacheHit, Color: l.color, State: l.op})
		return linkEvent{kind: evHit}
	case leader:
		return linkEvent{kind: evLead}
	}
	return linkEvent{kind: evFollow}
}

// run feeds ev to the machine and performs what it asks, with abs the
// request and name the reply's name, until it ends the phase: done, saying
// whether the reply is one the cache holds, or failed with its error. Each
// event is stamped with the budget left at the session's last tick, which
// every blocking action renews, and an action's deadline is its bound from
// that instant: budget - left + d.
func (l *serviceLink) run(ev linkEvent, abs *message.Message, name string) (bool, error) {
	for {
		ev.left = l.s.med.flowBudget - l.s.now.Sub(l.s.flowT0)
		act := l.m.next(ev)
		switch act.kind {
		case aDone:
			return act.cached, nil
		case aFail:
			return false, l.failed(act)
		}
		ev = l.perform(act, abs, name)
	}
}

// perform carries out one action and returns its outcome.
func (l *serviceLink) perform(act linkAction, abs *message.Message, name string) linkEvent {
	s, m := l.s, l.s.med
	var err error
	switch act.kind {
	case aWait:
		start := s.now
		rep, err := l.flight.Wait(act.d)
		if s.tick(); err != nil {
			l.flight = nil
			return linkEvent{kind: evFlightFailed}
		}
		l.flight, l.reply = nil, rep
		s.trace(TraceEvent{Kind: TraceCacheHit, Color: l.color, State: l.op, Attempt: 1, Elapsed: s.now.Sub(start)})
		return linkEvent{kind: evFlightDone}
	case aBuild:
		t0 := s.clock()
		_, err = l.reqBuf.use(m.cfg.Sides[l.color].Binder.AppendRequest(l.reqBuf.dst(), l.op, abs))
		s.timed(stageBuild, l.color, t0)
		if err != nil {
			return linkEvent{kind: evProtocolFault, err: err}
		}
		return linkEvent{kind: evBuilt}
	case aCheckout:
		return l.checkout(act)
	case aWrite:
		if err = l.conn.SetDeadline(l.s.budget().Add(act.d - l.m.left)); err == nil {
			err = l.conn.Send(*l.reqBuf.p)
		}
		s.tick()
		if err == nil {
			if !l.m.receiving { // not a replay
				l.sentAt = s.now.Sub(s.flowT0)
				m.stats.MessagesOut.Add(1)
			}
			return linkEvent{kind: evWritten}
		}
	case aRead:
		var data []byte
		if err = l.conn.SetDeadline(l.s.budget().Add(act.d - l.m.left)); err == nil {
			data, err = s.recvBuf.use(l.conn.RecvAppend(s.recvBuf.dst()))
		}
		s.tick()
		if err == nil {
			s.timed(stageServiceWait, l.color, s.waitAt)
			if s.lastRecv, s.rtt = data, 0; l.sentAt > 0 {
				s.rtt, l.sentAt = s.now.Sub(s.flowT0)-l.sentAt, 0
				m.hists.Exchanges.observe(s.rtt)
			}
			m.stats.MessagesIn.Add(1)
			return linkEvent{kind: evRead}
		}
	case aParse:
		// A reply the response cache is to hold outlives the flow: it is
		// parsed whole, onto the heap. Any other is the flow's.
		reader, st := m.readers[l.idx], s.step.env.Store()
		if act.cached {
			reader, st = m.cfg.Sides[l.color].Binder, nil
		}
		t0 := s.clock()
		reply, perr := reader.ParseReplyIn(st, l.op, s.lastRecv)
		s.timed(stageParse, l.color, t0)
		if perr != nil {
			return linkEvent{kind: evProtocolFault, err: perr}
		}
		reply.Name, l.reply = name, reply
		return linkEvent{kind: evParsed}
	case aRelease:
		l.release(act.fate)
	case aReport:
		l.set.Report(l.addr, s.rtt, act.err) // the set reads a latency only with no error
	case aSleep:
		if m.stopping.Load() {
			return linkEvent{kind: evStopping}
		}
		time.Sleep(act.d)
		s.tick()
	case aFulfil:
		m.rcache.Fulfill(l.flight, l.reply, m.cfg.Cache.Rules[l.op].TTL)
		l.flight = nil
	case aStore:
		m.rcache.Put(l.op, l.key, l.reply, m.cfg.Cache.Rules[l.op].TTL)
	case aAbort:
		m.rcache.Abort(l.flight, act.err)
		l.flight = nil
	}
	if err != nil {
		return l.fault(err)
	}
	return linkEvent{kind: evAck}
}

// fault classifies an error of the held connection: a transport fault a
// retry may get round, with the backoff drawn for it, or a final one.
func (l *serviceLink) fault(err error) linkEvent {
	if network.IsTransportError(err) {
		return linkEvent{kind: evTransportFault, err: err, addr: l.addr, balanced: l.set != nil,
			jitter: l.m.p.retry.delay(int(l.m.attempt))}
	}
	return linkEvent{kind: evProtocolFault, err: err}
}

// failed builds the error an exchange failed with, and counts it.
func (l *serviceLink) failed(act linkAction) error {
	st, phase := &l.s.med.stats, "send service request"
	switch {
	case act.why == failBuild:
		return fmt.Errorf("build service request: %w", act.err)
	case act.why == failParse:
		phase = "parse service reply"
	case l.m.receiving:
		phase = "recv service reply"
	}
	st.ServiceFailures.Add(1)
	switch act.why {
	case failExhausted:
		st.RetriesExhausted.Add(1)
		return fmt.Errorf("%s (color %d): retries exhausted: %w", phase, l.color, act.err)
	case failDeadline:
		st.DeadlineExceeded.Add(1)
		if act.err != nil {
			return fmt.Errorf("%s (color %d): %w (last attempt: %v)", phase, l.color, ErrDeadline, act.err)
		}
		return fmt.Errorf("%s (color %d): %w", phase, l.color, ErrDeadline)
	}
	return fmt.Errorf("%s: %w", phase, act.err)
}

// serviceTarget resolves the current logical target of a client-role
// color, honouring the flow's sethost retarget via the host map. The
// result is either a literal address or the name of a backend replica
// set — resolving a set to a concrete replica is checkout's job, so
// cache keys and retarget detection stay per-service, not per-replica.
func (s *flowState) serviceTarget(color int) string {
	addr := s.med.cfg.Sides[color].Target
	if s.step.host != "" {
		if mapped, ok := s.med.cfg.HostMap[s.step.host]; ok {
			addr = mapped
		}
	}
	return addr
}

// checkout makes sure the link holds a connection to where the flow wants
// to talk: the held one while it points there, else one from the pool. A
// replica set's target is resolved by the set's policy, avoiding the
// replica the machine names, and the link sticks to it until it gives the
// connection up.
func (l *serviceLink) checkout(act linkAction) linkEvent {
	s, m := l.s, l.s.med
	target := s.serviceTarget(l.color)
	set := m.cfg.Backends[target]
	if l.conn != nil {
		if l.set == set && (set != nil || l.addr == target) {
			return linkEvent{kind: evCheckedOut, addr: l.addr, balanced: set != nil}
		}
		return linkEvent{kind: evRetarget}
	}
	if m.stopping.Load() {
		return linkEvent{kind: evStopping, err: fmt.Errorf("service connection (color %d, %s): %w", l.color, target, errClosing)}
	}
	l.addr, l.set = target, set
	if set != nil {
		l.addr = set.Pick(act.avoid)
	}
	t0 := s.clock()
	conn, err := m.pool.GetUntil(l.s.budget().Add(act.d-l.m.left), pool.Key{Color: l.color, Addr: l.addr})
	s.tick()
	s.timed(stagePoolWait, l.color, t0)
	if err != nil {
		if set != nil {
			set.Release(l.addr) // the in-flight slot Pick took
		}
		return linkEvent{kind: evCheckoutFailed, err: fmt.Errorf("service connection (color %d, %s): %w", l.color, l.addr, err),
			addr: l.addr, balanced: set != nil, jitter: l.m.p.retry.delay(int(l.m.attempt))}
	}
	m.mu.Lock()
	m.svcConns[conn] = struct{}{} // for a teardown to close
	m.mu.Unlock()
	l.conn = conn
	if l.dialed {
		m.stats.Redials.Add(1)
		s.trace(TraceEvent{Kind: TraceRedial, Color: l.color, State: l.addr, Attempt: int(l.m.attempt)})
	}
	l.dialed = true
	return linkEvent{kind: evCheckedOut, addr: l.addr, balanced: set != nil}
}

// release gives the held connection up to the fate the machine decided.
func (l *serviceLink) release(fate connFate) {
	m := l.s.med
	conn, key := l.conn, pool.Key{Color: l.color, Addr: l.addr}
	l.conn = nil
	m.mu.Lock()
	delete(m.svcConns, conn)
	m.mu.Unlock()
	if l.set != nil {
		l.set.Release(l.addr)
	}
	if fate == connPut {
		m.pool.Put(key, conn)
		return
	}
	m.pool.Discard(key, conn)
	if fate == connFlush {
		m.pool.Flush(key)
	}
}

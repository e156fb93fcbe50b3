package observe

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"starlink/internal/backend"
	"starlink/internal/discovery"
	"starlink/internal/engine"
	"starlink/internal/network/pool"
)

// Registry is a pull-model metrics registry: each metric is a name,
// help text and a closure sampled at exposition time, rendered in the
// Prometheus text format (version 0.0.4). Starlink's counters already
// live as lock-free atomics inside the engine, pool and observer, so
// the registry stores no state of its own — a scrape is a walk over
// snapshot closures.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	names   map[string]bool
}

// metric is one registered family; exactly one of the sample funcs is
// set, selected by typ. Each is handed the scrape's sample of the
// metric's source, nil for a metric that has none.
type metric struct {
	name, help, typ string
	from            *source
	scalar          func(sample any) float64
	labelKey        string
	vec             func(sample any) map[string]uint64
	hist            func(sample any) engine.LatencyHistogram
}

// source is something several metrics read — a mediator's Snapshot, say
// — sampled once per WriteText and not once per metric: the metrics of
// one scrape then describe one instant, and whatever lock the sample takes
// is taken once.
type source struct{ take func() any }

// sampled registers metrics that read one sample of type T per scrape.
type sampled[T any] struct {
	r    *Registry
	from *source
}

func sample[T any](r *Registry, take func() T) sampled[T] {
	return sampled[T]{r, &source{func() any { return take() }}}
}

func (s sampled[T]) counter(name, help string, f func(T) uint64) {
	s.r.register(&metric{name: name, help: help, typ: "counter", from: s.from,
		scalar: func(v any) float64 { return float64(f(v.(T))) }})
}

func (s sampled[T]) histogram(name, help string, f func(T) engine.LatencyHistogram) {
	s.r.register(&metric{name: name, help: help, typ: "histogram", from: s.from,
		hist: func(v any) engine.LatencyHistogram { return f(v.(T)) }})
}

// vec registers a family keyed by one label; typ is "counter" or "gauge".
func (s sampled[T]) vec(typ, name, labelKey, help string, f func(T) map[string]uint64) {
	s.r.register(&metric{name: name, help: help, typ: typ, from: s.from, labelKey: labelKey,
		vec: func(v any) map[string]uint64 { return f(v.(T)) }})
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) register(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[m.name] {
		panic(fmt.Sprintf("observe: metric %q registered twice", m.name))
	}
	r.names[m.name] = true
	r.metrics = append(r.metrics, m)
}

// Counter registers a monotonically increasing metric.
func (r *Registry) Counter(name, help string, f func() uint64) {
	r.register(&metric{name: name, help: help, typ: "counter",
		scalar: func(any) float64 { return float64(f()) }})
}

// Gauge registers a point-in-time value.
func (r *Registry) Gauge(name, help string, f func() float64) {
	r.register(&metric{name: name, help: help, typ: "gauge", scalar: func(any) float64 { return f() }})
}

// CounterVec registers a counter family keyed by one label; f returns
// the current label→value samples.
func (r *Registry) CounterVec(name, labelKey, help string, f func() map[string]uint64) {
	r.register(&metric{name: name, help: help, typ: "counter", labelKey: labelKey,
		vec: func(any) map[string]uint64 { return f() }})
}

// GaugeVec registers a gauge family keyed by one label; f returns the
// current label→value samples.
func (r *Registry) GaugeVec(name, labelKey, help string, f func() map[string]uint64) {
	r.register(&metric{name: name, help: help, typ: "gauge", labelKey: labelKey,
		vec: func(any) map[string]uint64 { return f() }})
}

// Histogram registers a latency distribution exposed with cumulative
// le buckets in seconds.
func (r *Registry) Histogram(name, help string, f func() engine.LatencyHistogram) {
	r.register(&metric{name: name, help: help, typ: "histogram",
		hist: func(any) engine.LatencyHistogram { return f() }})
}

// WriteText renders every registered metric in Prometheus text
// exposition format.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	metrics := make([]*metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()
	taken := map[*source]any{}
	for _, m := range metrics {
		var v any // the scrape's sample of m's source
		if m.from != nil {
			if _, ok := taken[m.from]; !ok {
				taken[m.from] = m.from.take()
			}
			v = taken[m.from]
		}
		if m.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.typ); err != nil {
			return err
		}
		var err error
		switch {
		case m.vec != nil:
			err = writeVec(w, m, m.vec(v))
		case m.hist != nil:
			err = writeHistogram(w, m.name, m.hist(v))
		default:
			_, err = fmt.Fprintf(w, "%s %s\n", m.name, formatFloat(m.scalar(v)))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeVec(w io.Writer, m *metric, samples map[string]uint64) error {
	keys := make([]string, 0, len(samples))
	for k := range samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s{%s=%q} %d\n", m.name, m.labelKey, k, samples[k]); err != nil {
			return err
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, h engine.LatencyHistogram) error {
	var cumulative uint64
	for i, b := range h.Buckets {
		cumulative += b.Count
		le := "+Inf"
		if i < len(h.Buckets)-1 {
			le = formatFloat(b.High.Seconds())
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cumulative); err != nil {
			return err
		}
	}
	if len(h.Buckets) == 0 {
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(h.Sum.Seconds())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
	return err
}

// formatFloat renders a sample value the way Prometheus expects:
// integral values without an exponent, the rest in compact form.
func formatFloat(v float64) string {
	if v == float64(uint64(v)) && v < 1e15 {
		return fmt.Sprintf("%d", uint64(v))
	}
	return fmt.Sprintf("%g", v)
}

// mediatorSource is what RegisterMediator reads of an *engine.Mediator;
// the test that counts samples per scrape puts a counting fake behind it.
type mediatorSource interface {
	Snapshot() engine.Snapshot
	PoolStats() pool.Stats
	Backends() []backend.SetSnapshot
	Discovery() []discovery.Snapshot
}

// mediatorSample is one scrape's view of a mediator: every starlink_*
// series of it below is computed from the same one.
type mediatorSample struct {
	engine.Snapshot
	pool      pool.Stats
	backends  []backend.SetSnapshot
	discovery []discovery.Snapshot
}

// mediatorCounters are the lifetime counters of engine.Stats, in the
// order /metrics lists them.
var mediatorCounters = []struct {
	name, help string
	value      func(*engine.Stats) uint64
}{
	{"starlink_sessions_total", "Client connections accepted.", func(s *engine.Stats) uint64 { return s.Sessions }},
	{"starlink_flows_total", "Complete automaton traversals.", func(s *engine.Stats) uint64 { return s.Flows }},
	{"starlink_translations_total", "Gamma (MTL) transitions executed.", func(s *engine.Stats) uint64 { return s.Translations }},
	{"starlink_messages_in_total", "Messages received from either side.", func(s *engine.Stats) uint64 { return s.MessagesIn }},
	{"starlink_messages_out_total", "Messages sent to either side.", func(s *engine.Stats) uint64 { return s.MessagesOut }},
	{"starlink_failures_total", "Sessions that ended with an error.", func(s *engine.Stats) uint64 { return s.Failures }},
	{"starlink_redials_total", "Service connections replaced mid-session.", func(s *engine.Stats) uint64 { return s.Redials }},
	{"starlink_retries_exhausted_total", "Service exchanges that failed after every retry.", func(s *engine.Stats) uint64 { return s.RetriesExhausted }},
	{"starlink_client_failures_total", "Failed client-side exchanges.", func(s *engine.Stats) uint64 { return s.ClientFailures }},
	{"starlink_service_failures_total", "Service-side exchanges that failed for good.", func(s *engine.Stats) uint64 { return s.ServiceFailures }},
	{"starlink_pool_hits_total", "Service checkouts served by an idle pooled connection.", func(s *engine.Stats) uint64 { return s.PoolHits }},
	{"starlink_pool_dials_total", "Service checkouts that opened a fresh connection.", func(s *engine.Stats) uint64 { return s.PoolDials }},
	{"starlink_pool_evictions_total", "Pooled connections closed early.", func(s *engine.Stats) uint64 { return s.PoolEvictions }},
	{"starlink_pool_wait_timeouts_total", "Pool checkouts abandoned while waiting at the MaxActive bound.", func(s *engine.Stats) uint64 { return s.PoolWaitTimeouts }},
	{"starlink_flow_deadline_exceeded_total", "Flows failed fast because their deadline budget ran out.", func(s *engine.Stats) uint64 { return s.DeadlineExceeded }},
	{"starlink_hook_panics_total", "Panics recovered from the Trace hook.", func(s *engine.Stats) uint64 { return s.HookPanics }},
	{"starlink_cache_hits_total", "Service exchanges served from the cross-flow response cache.", func(s *engine.Stats) uint64 { return s.CacheHits }},
	{"starlink_cache_misses_total", "Cacheable exchanges that went to the service (leader elections).", func(s *engine.Stats) uint64 { return s.CacheMisses }},
	{"starlink_cache_coalesced_total", "Cacheable exchanges that joined an in-flight leader.", func(s *engine.Stats) uint64 { return s.CacheCoalesced }},
	{"starlink_cache_evictions_total", "Cached replies dropped by TTL expiry or LRU overflow.", func(s *engine.Stats) uint64 { return s.CacheEvictions }},
	{"starlink_cache_invalidations_total", "Cached replies flushed by write-operation invalidation.", func(s *engine.Stats) uint64 { return s.CacheInvalidations }},
}

// RegisterMediator wires a mediator's whole Snapshot surface — the
// lifetime Stats counters, the pool counters and both 32-bin latency
// histograms — into the registry under the starlink_* namespace. A scrape
// takes one Snapshot and one PoolStats, whatever the number of series.
func RegisterMediator(r *Registry, med *engine.Mediator) { registerMediator(r, med) }

func registerMediator(r *Registry, med mediatorSource) {
	m := sample(r, func() *mediatorSample {
		return &mediatorSample{med.Snapshot(), med.PoolStats(), med.Backends(), med.Discovery()}
	})
	for _, c := range mediatorCounters {
		m.counter(c.name, c.help, func(s *mediatorSample) uint64 { return c.value(&s.Stats) })
	}
	m.histogram("starlink_transition_seconds", "Latency of individual automaton transitions.",
		func(s *mediatorSample) engine.LatencyHistogram { return s.Transitions })
	m.histogram("starlink_exchange_seconds", "Latency of service request/reply round-trips.",
		func(s *mediatorSample) engine.LatencyHistogram { return s.Exchanges })
	m.histogram("starlink_translate_seconds", "Latency of gamma translations alone.",
		func(s *mediatorSample) engine.LatencyHistogram { return s.Translate })
	// Per-key pool occupancy: aggregate Hits/Dials/Evictions say nothing
	// about which (color, address) is under pressure, so idle, in-flight
	// and blocked-checkout gauges are exported per key.
	perKey := func(f func(pool.KeyStats) int) func(*mediatorSample) map[string]uint64 {
		return func(s *mediatorSample) map[string]uint64 {
			out := make(map[string]uint64, len(s.pool.PerKey))
			for k, ks := range s.pool.PerKey {
				out[k.String()] = uint64(f(ks))
			}
			return out
		}
	}
	m.vec("gauge", "starlink_pool_idle_conns", "key",
		"Idle pooled service connections per (color, address) key.",
		perKey(func(ks pool.KeyStats) int { return ks.Idle }))
	m.vec("gauge", "starlink_pool_inflight_conns", "key",
		"Checked-out pooled service connections per (color, address) key.",
		perKey(func(ks pool.KeyStats) int { return ks.InFlight }))
	m.vec("gauge", "starlink_pool_waiters", "key",
		"Checkouts blocked on the pool bound per (color, address) key.",
		perKey(func(ks pool.KeyStats) int { return ks.Waiters }))
	if med.Backends() != nil {
		registerBackends(m)
	}
	if med.Discovery() != nil {
		registerDiscovery(m)
	}
}

// registerBackends exports the mediator's replica sets: per-replica
// health/traffic series labelled "set/addr" and per-set ejection
// totals. Registered only for mediators deployed with `backend`
// directives, so plain single-address mediators keep a clean scrape.
func registerBackends(m sampled[*mediatorSample]) {
	perReplica := func(f func(backend.ReplicaSnapshot) uint64) func(*mediatorSample) map[string]uint64 {
		return func(s *mediatorSample) map[string]uint64 {
			out := map[string]uint64{}
			for _, set := range s.backends {
				for _, rs := range set.Replicas {
					out[set.Name+"/"+rs.Addr] = f(rs)
				}
			}
			return out
		}
	}
	m.vec("gauge", "starlink_backend_up", "replica",
		"1 when the replica is live or in probation, 0 while ejected and cooling.",
		perReplica(func(rs backend.ReplicaSnapshot) uint64 {
			if rs.Live || rs.Probation {
				return 1
			}
			return 0
		}))
	m.vec("gauge", "starlink_backend_inflight", "replica",
		"Service exchanges currently charged to the replica.",
		perReplica(func(rs backend.ReplicaSnapshot) uint64 { return uint64(rs.InFlight) }))
	m.vec("counter", "starlink_backend_picks_total", "replica",
		"Balancing decisions that landed on the replica.",
		perReplica(func(rs backend.ReplicaSnapshot) uint64 { return rs.Picks }))
	m.vec("counter", "starlink_backend_failures_total", "replica",
		"Exchange failures reported against the replica.",
		perReplica(func(rs backend.ReplicaSnapshot) uint64 { return rs.Failures }))
	m.vec("counter", "starlink_backend_probes_total", "replica",
		"Active health probes sent to the replica.",
		perReplica(func(rs backend.ReplicaSnapshot) uint64 { return rs.Probes }))
	m.vec("counter", "starlink_backend_probe_failures_total", "replica",
		"Active health probes the replica failed.",
		perReplica(func(rs backend.ReplicaSnapshot) uint64 { return rs.ProbeFailures }))
	perSet := func(f func(backend.SetSnapshot) uint64) func(*mediatorSample) map[string]uint64 {
		return func(s *mediatorSample) map[string]uint64 {
			out := map[string]uint64{}
			for _, set := range s.backends {
				out[set.Name] = f(set)
			}
			return out
		}
	}
	m.vec("counter", "starlink_backend_ejections_total", "set",
		"Replicas ejected from the set (passive or probe-driven).",
		perSet(func(s backend.SetSnapshot) uint64 { return s.Ejections }))
	m.vec("counter", "starlink_backend_readmissions_total", "set",
		"Ejected replicas re-admitted after a probation success.",
		perSet(func(s backend.SetSnapshot) uint64 { return s.Readmissions }))
}

// registerDiscovery exports the mediator's discovery reconcilers:
// per-set resolution/churn counters and a last-resolution-age gauge.
// Registered only for mediators deployed with `discover` directives.
func registerDiscovery(m sampled[*mediatorSample]) {
	perSet := func(f func(discovery.Snapshot) uint64) func(*mediatorSample) map[string]uint64 {
		return func(s *mediatorSample) map[string]uint64 {
			out := map[string]uint64{}
			for _, ds := range s.discovery {
				out[ds.Set] = f(ds)
			}
			return out
		}
	}
	m.vec("counter", "starlink_discovery_resolutions_total", "set",
		"Source resolution rounds attempted for the set (including failed ones).",
		perSet(func(ds discovery.Snapshot) uint64 { return ds.Resolutions }))
	m.vec("counter", "starlink_discovery_resolve_errors_total", "set",
		"Resolution rounds that failed (membership kept as-is).",
		perSet(func(ds discovery.Snapshot) uint64 { return ds.ResolveErrors }))
	m.vec("counter", "starlink_discovery_endpoints_total", "set",
		"Endpoints returned across all successful resolutions.",
		perSet(func(ds discovery.Snapshot) uint64 { return ds.Endpoints }))
	m.vec("counter", "starlink_discovery_adds_total", "set",
		"Replicas admitted into the set by discovery.",
		perSet(func(ds discovery.Snapshot) uint64 { return ds.Adds }))
	m.vec("counter", "starlink_discovery_removes_total", "set",
		"Replicas drained and removed from the set by discovery.",
		perSet(func(ds discovery.Snapshot) uint64 { return ds.Removes }))
	m.vec("counter", "starlink_discovery_flaps_suppressed_total", "set",
		"Endpoint flaps absorbed by the debounce window before admission.",
		perSet(func(ds discovery.Snapshot) uint64 { return ds.FlapsSuppressed }))
	m.vec("gauge", "starlink_discovery_last_resolution_age_seconds", "set",
		"Seconds since the set's source last resolved successfully (absent until the first success).",
		func(s *mediatorSample) map[string]uint64 {
			out := map[string]uint64{}
			for _, ds := range s.discovery {
				if ds.LastResolution >= 0 {
					out[ds.Set] = uint64(ds.LastResolution)
				}
			}
			return out
		})
}

// RegisterObserver wires the tracer's and flight recorder's own
// counters, plus the per-transition hit counts, into the registry.
func RegisterObserver(r *Registry, o *Observer) {
	r.Gauge("starlink_tracer_enabled", "1 when the flow tracer is enabled.",
		func() float64 {
			if o.Enabled() {
				return 1
			}
			return 0
		})
	r.Counter("starlink_tracer_events_total", "TraceEvents consumed by the tracer.",
		func() uint64 { return o.Stats().Events })
	r.Counter("starlink_tracer_flows_assembled_total", "Span trees assembled from completed flows.",
		func() uint64 { return o.Stats().FlowsAssembled })
	r.Counter("starlink_tracer_flows_sampled_total", "Completed flows kept in the flow ring.",
		func() uint64 { return o.Stats().FlowsSampled })
	r.Counter("starlink_tracer_flows_dropped_total", "Completed flows sampled out of the flow ring.",
		func() uint64 { return o.Stats().FlowsDropped })
	r.Gauge("starlink_recorder_entries", "Flows currently held by the flight recorder.",
		func() float64 { return float64(o.Recorder().Len()) })
	r.Counter("starlink_recorder_failed_total", "Failed flows flight-recorded.",
		func() uint64 { return o.Recorder().Stats().Failed })
	r.Counter("starlink_recorder_slow_total", "Slow flows flight-recorded.",
		func() uint64 { return o.Recorder().Stats().Slow })
	if o.transitions != nil {
		r.CounterVec("starlink_transition_hits_total", "transition",
			"Executions per merged-automaton transition.", o.TransitionHits)
	}
}

// MediatorRegistry builds a Registry pre-wired with a mediator's
// metrics and, when obs is non-nil, the observer's. This is the
// one-call path from "I have a mediator" to "I can serve /metrics".
func MediatorRegistry(med *engine.Mediator, obs *Observer) *Registry {
	r := NewRegistry()
	RegisterMediator(r, med)
	if obs != nil {
		RegisterObserver(r, obs)
	}
	return r
}

// Uptime is a small helper metric source for /healthz-style gauges.
type Uptime struct{ t0 time.Time }

// NewUptime starts counting now.
func NewUptime() *Uptime { return &Uptime{t0: time.Now()} }

// Elapsed is the time since construction.
func (u *Uptime) Elapsed() time.Duration { return time.Since(u.t0) }

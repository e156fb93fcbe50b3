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
// set, selected by typ.
type metric struct {
	name, help, typ string
	scalar          func() float64
	labelKey        string
	vec             func() map[string]uint64
	hist            func() engine.LatencyHistogram
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
		scalar: func() float64 { return float64(f()) }})
}

// Gauge registers a point-in-time value.
func (r *Registry) Gauge(name, help string, f func() float64) {
	r.register(&metric{name: name, help: help, typ: "gauge", scalar: f})
}

// CounterVec registers a counter family keyed by one label; f returns
// the current label→value samples.
func (r *Registry) CounterVec(name, labelKey, help string, f func() map[string]uint64) {
	r.register(&metric{name: name, help: help, typ: "counter", labelKey: labelKey, vec: f})
}

// GaugeVec registers a gauge family keyed by one label; f returns the
// current label→value samples.
func (r *Registry) GaugeVec(name, labelKey, help string, f func() map[string]uint64) {
	r.register(&metric{name: name, help: help, typ: "gauge", labelKey: labelKey, vec: f})
}

// Histogram registers a latency distribution exposed with cumulative
// le buckets in seconds.
func (r *Registry) Histogram(name, help string, f func() engine.LatencyHistogram) {
	r.register(&metric{name: name, help: help, typ: "histogram", hist: f})
}

// WriteText renders every registered metric in Prometheus text
// exposition format.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	metrics := make([]*metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()
	for _, m := range metrics {
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
			err = writeVec(w, m)
		case m.hist != nil:
			err = writeHistogram(w, m.name, m.hist())
		default:
			_, err = fmt.Fprintf(w, "%s %s\n", m.name, formatFloat(m.scalar()))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeVec(w io.Writer, m *metric) error {
	samples := m.vec()
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

// RegisterMediator wires a mediator's whole Snapshot surface — the
// lifetime Stats counters, the pool counters and both 32-bin latency
// histograms — into the registry under the starlink_* namespace.
func RegisterMediator(r *Registry, med *engine.Mediator) {
	stat := func(f func(engine.Stats) uint64) func() uint64 {
		return func() uint64 { return f(med.Stats()) }
	}
	r.Counter("starlink_sessions_total", "Client connections accepted.",
		stat(func(s engine.Stats) uint64 { return s.Sessions }))
	r.Counter("starlink_flows_total", "Complete automaton traversals.",
		stat(func(s engine.Stats) uint64 { return s.Flows }))
	r.Counter("starlink_translations_total", "Gamma (MTL) transitions executed.",
		stat(func(s engine.Stats) uint64 { return s.Translations }))
	r.Counter("starlink_messages_in_total", "Messages received from either side.",
		stat(func(s engine.Stats) uint64 { return s.MessagesIn }))
	r.Counter("starlink_messages_out_total", "Messages sent to either side.",
		stat(func(s engine.Stats) uint64 { return s.MessagesOut }))
	r.Counter("starlink_failures_total", "Sessions that ended with an error.",
		stat(func(s engine.Stats) uint64 { return s.Failures }))
	r.Counter("starlink_redials_total", "Service connections replaced mid-session.",
		stat(func(s engine.Stats) uint64 { return s.Redials }))
	r.Counter("starlink_retries_exhausted_total", "Service exchanges that failed after every retry.",
		stat(func(s engine.Stats) uint64 { return s.RetriesExhausted }))
	r.Counter("starlink_client_failures_total", "Failed client-side exchanges.",
		stat(func(s engine.Stats) uint64 { return s.ClientFailures }))
	r.Counter("starlink_service_failures_total", "Service-side exchanges that failed for good.",
		stat(func(s engine.Stats) uint64 { return s.ServiceFailures }))
	r.Counter("starlink_pool_hits_total", "Service checkouts served by an idle pooled connection.",
		stat(func(s engine.Stats) uint64 { return s.PoolHits }))
	r.Counter("starlink_pool_dials_total", "Service checkouts that opened a fresh connection.",
		stat(func(s engine.Stats) uint64 { return s.PoolDials }))
	r.Counter("starlink_pool_evictions_total", "Pooled connections closed early.",
		stat(func(s engine.Stats) uint64 { return s.PoolEvictions }))
	r.Counter("starlink_pool_wait_timeouts_total", "Pool checkouts abandoned while waiting at the MaxActive bound.",
		stat(func(s engine.Stats) uint64 { return s.PoolWaitTimeouts }))
	r.Counter("starlink_flow_deadline_exceeded_total", "Flows failed fast because their deadline budget ran out.",
		stat(func(s engine.Stats) uint64 { return s.DeadlineExceeded }))
	r.Counter("starlink_hook_panics_total", "Panics recovered from the Trace hook.",
		stat(func(s engine.Stats) uint64 { return s.HookPanics }))
	r.Counter("starlink_cache_hits_total", "Service exchanges served from the cross-flow response cache.",
		stat(func(s engine.Stats) uint64 { return s.CacheHits }))
	r.Counter("starlink_cache_misses_total", "Cacheable exchanges that went to the service (leader elections).",
		stat(func(s engine.Stats) uint64 { return s.CacheMisses }))
	r.Counter("starlink_cache_coalesced_total", "Cacheable exchanges that joined an in-flight leader.",
		stat(func(s engine.Stats) uint64 { return s.CacheCoalesced }))
	r.Counter("starlink_cache_evictions_total", "Cached replies dropped by TTL expiry or LRU overflow.",
		stat(func(s engine.Stats) uint64 { return s.CacheEvictions }))
	r.Counter("starlink_cache_invalidations_total", "Cached replies flushed by write-operation invalidation.",
		stat(func(s engine.Stats) uint64 { return s.CacheInvalidations }))
	r.Histogram("starlink_transition_seconds", "Latency of individual automaton transitions.",
		func() engine.LatencyHistogram { return med.Snapshot().Transitions })
	r.Histogram("starlink_exchange_seconds", "Latency of service request/reply round-trips.",
		func() engine.LatencyHistogram { return med.Snapshot().Exchanges })
	r.Histogram("starlink_translate_seconds", "Latency of gamma translations alone.",
		func() engine.LatencyHistogram { return med.Snapshot().Translate })
	// Per-key pool occupancy: aggregate Hits/Dials/Evictions say nothing
	// about which (color, address) is under pressure, so idle, in-flight
	// and blocked-checkout gauges are exported per key.
	perKey := func(f func(pool.KeyStats) int) func() map[string]uint64 {
		return func() map[string]uint64 {
			per := med.PoolStats().PerKey
			out := make(map[string]uint64, len(per))
			for k, ks := range per {
				out[k.String()] = uint64(f(ks))
			}
			return out
		}
	}
	r.GaugeVec("starlink_pool_idle_conns", "key",
		"Idle pooled service connections per (color, address) key.",
		perKey(func(ks pool.KeyStats) int { return ks.Idle }))
	r.GaugeVec("starlink_pool_inflight_conns", "key",
		"Checked-out pooled service connections per (color, address) key.",
		perKey(func(ks pool.KeyStats) int { return ks.InFlight }))
	r.GaugeVec("starlink_pool_waiters", "key",
		"Checkouts blocked on the pool bound per (color, address) key.",
		perKey(func(ks pool.KeyStats) int { return ks.Waiters }))
	if med.Backends() != nil {
		registerBackends(r, med)
	}
	if med.Discovery() != nil {
		registerDiscovery(r, med)
	}
}

// registerBackends exports the mediator's replica sets: per-replica
// health/traffic series labelled "set/addr" and per-set ejection
// totals. Registered only for mediators deployed with `backend`
// directives, so plain single-address mediators keep a clean scrape.
func registerBackends(r *Registry, med *engine.Mediator) {
	perReplica := func(f func(backend.ReplicaSnapshot) uint64) func() map[string]uint64 {
		return func() map[string]uint64 {
			out := map[string]uint64{}
			for _, set := range med.Backends() {
				for _, rs := range set.Replicas {
					out[set.Name+"/"+rs.Addr] = f(rs)
				}
			}
			return out
		}
	}
	r.GaugeVec("starlink_backend_up", "replica",
		"1 when the replica is live or in probation, 0 while ejected and cooling.",
		perReplica(func(rs backend.ReplicaSnapshot) uint64 {
			if rs.Live || rs.Probation {
				return 1
			}
			return 0
		}))
	r.GaugeVec("starlink_backend_inflight", "replica",
		"Service exchanges currently charged to the replica.",
		perReplica(func(rs backend.ReplicaSnapshot) uint64 { return uint64(rs.InFlight) }))
	r.CounterVec("starlink_backend_picks_total", "replica",
		"Balancing decisions that landed on the replica.",
		perReplica(func(rs backend.ReplicaSnapshot) uint64 { return rs.Picks }))
	r.CounterVec("starlink_backend_failures_total", "replica",
		"Exchange failures reported against the replica.",
		perReplica(func(rs backend.ReplicaSnapshot) uint64 { return rs.Failures }))
	r.CounterVec("starlink_backend_probes_total", "replica",
		"Active health probes sent to the replica.",
		perReplica(func(rs backend.ReplicaSnapshot) uint64 { return rs.Probes }))
	r.CounterVec("starlink_backend_probe_failures_total", "replica",
		"Active health probes the replica failed.",
		perReplica(func(rs backend.ReplicaSnapshot) uint64 { return rs.ProbeFailures }))
	perSet := func(f func(backend.SetSnapshot) uint64) func() map[string]uint64 {
		return func() map[string]uint64 {
			out := map[string]uint64{}
			for _, set := range med.Backends() {
				out[set.Name] = f(set)
			}
			return out
		}
	}
	r.CounterVec("starlink_backend_ejections_total", "set",
		"Replicas ejected from the set (passive or probe-driven).",
		perSet(func(s backend.SetSnapshot) uint64 { return s.Ejections }))
	r.CounterVec("starlink_backend_readmissions_total", "set",
		"Ejected replicas re-admitted after a probation success.",
		perSet(func(s backend.SetSnapshot) uint64 { return s.Readmissions }))
}

// registerDiscovery exports the mediator's discovery reconcilers:
// per-set resolution/churn counters and a last-resolution-age gauge.
// Registered only for mediators deployed with `discover` directives.
func registerDiscovery(r *Registry, med *engine.Mediator) {
	perSet := func(f func(discovery.Snapshot) uint64) func() map[string]uint64 {
		return func() map[string]uint64 {
			out := map[string]uint64{}
			for _, ds := range med.Discovery() {
				out[ds.Set] = f(ds)
			}
			return out
		}
	}
	r.CounterVec("starlink_discovery_resolutions_total", "set",
		"Source resolution rounds attempted for the set (including failed ones).",
		perSet(func(ds discovery.Snapshot) uint64 { return ds.Resolutions }))
	r.CounterVec("starlink_discovery_resolve_errors_total", "set",
		"Resolution rounds that failed (membership kept as-is).",
		perSet(func(ds discovery.Snapshot) uint64 { return ds.ResolveErrors }))
	r.CounterVec("starlink_discovery_endpoints_total", "set",
		"Endpoints returned across all successful resolutions.",
		perSet(func(ds discovery.Snapshot) uint64 { return ds.Endpoints }))
	r.CounterVec("starlink_discovery_adds_total", "set",
		"Replicas admitted into the set by discovery.",
		perSet(func(ds discovery.Snapshot) uint64 { return ds.Adds }))
	r.CounterVec("starlink_discovery_removes_total", "set",
		"Replicas drained and removed from the set by discovery.",
		perSet(func(ds discovery.Snapshot) uint64 { return ds.Removes }))
	r.CounterVec("starlink_discovery_flaps_suppressed_total", "set",
		"Endpoint flaps absorbed by the debounce window before admission.",
		perSet(func(ds discovery.Snapshot) uint64 { return ds.FlapsSuppressed }))
	r.GaugeVec("starlink_discovery_last_resolution_age_seconds", "set",
		"Seconds since the set's source last resolved successfully (absent until the first success).",
		func() map[string]uint64 {
			out := map[string]uint64{}
			for _, ds := range med.Discovery() {
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

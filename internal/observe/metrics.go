package observe

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"starlink/internal/backend"
	"starlink/internal/discovery"
	"starlink/internal/engine"
	"starlink/internal/network/pool"
)

// Registry is a pull-model metrics registry: each metric is a name,
// help text and a function of a source's sample, rendered in the
// Prometheus text format (version 0.0.4). Starlink's counters already
// live as lock-free atomics inside the engine, gateway and observer, so
// the registry stores no state of its own: a scrape samples each source
// once and renders every metric from its sample.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	names   map[string]bool
}

// metric is one registered family; exactly one of the value funcs is set.
// Each is handed the scrape's sample of the metric's source.
type metric struct {
	name, help, typ string
	from            *source
	scalar          func(sample any) uint64
	real            func(sample any) float64
	labelKey        string
	vec             func(sample any) map[string]uint64
	hist            func(sample any) []series
}

// series is one histogram of a family: the family's one, or the one its
// labels (`stage="parse",color="1"`) name.
type series struct {
	labels string
	h      engine.LatencyHistogram
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

// scalar registers an unlabelled family; typ is "counter" or "gauge".
func (s sampled[T]) scalar(typ, name, help string, f func(T) uint64) {
	s.r.register(&metric{name: name, help: help, typ: typ, from: s.from,
		scalar: func(v any) uint64 { return f(v.(T)) }})
}

// real registers an unlabelled family whose value is not a whole number.
func (s sampled[T]) real(typ, name, help string, f func(T) float64) {
	s.r.register(&metric{name: name, help: help, typ: typ, from: s.from,
		real: func(v any) float64 { return f(v.(T)) }})
}

// histogram registers a family of histograms, labelled by labelKey when it
// has more than one series.
func (s sampled[T]) histogram(name, labelKey, help string, f func(T) []series) {
	s.r.register(&metric{name: name, help: help, typ: "histogram", from: s.from, labelKey: labelKey,
		hist: func(v any) []series { return f(v.(T)) }})
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

// WriteText renders every registered metric in Prometheus text
// exposition format.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	metrics := make([]*metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()
	taken := map[*source]any{}
	for _, m := range metrics {
		v, ok := taken[m.from] // the scrape's sample of m's source
		if !ok {
			v = m.from.take()
			taken[m.from] = v
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
			for _, sr := range m.hist(v) {
				if err = writeHistogram(w, m.name, sr); err != nil {
					break
				}
			}
		case m.real != nil:
			_, err = fmt.Fprintf(w, "%s %s\n", m.name, formatFloat(m.real(v)))
		default:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.scalar(v))
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

func writeHistogram(w io.Writer, name string, sr series) error {
	h, lead, labels := sr.h, "", ""
	if sr.labels != "" {
		lead, labels = sr.labels+",", "{"+sr.labels+"}"
	}
	var cumulative uint64
	for i, b := range h.Buckets {
		cumulative += b.Count
		le := "+Inf"
		if i < len(h.Buckets)-1 {
			le = formatFloat(b.High.Seconds())
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, lead, le, cumulative); err != nil {
			return err
		}
	}
	if len(h.Buckets) == 0 {
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, lead, h.Count); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum.Seconds())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count)
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

// MediatorRegistry builds a Registry that serves the process's metrics, a
// mediator's and, when obs is non-nil, the observer's: the one-call path
// from "I have a mediator" to "I can serve /metrics". A scrape reads the
// runtime once, takes one Snapshot of the mediator and one Stats of the
// observer, whatever the number of series.
func MediatorRegistry(med *engine.Mediator, obs *Observer) *Registry {
	r := NewRegistry()
	registerProcess(r, readProcess)
	registerMediator(r, med.Snapshot)
	if obs != nil {
		registerObserver(r, obs.Stats)
	}
	return r
}

// registerMediator exports a mediator under the starlink_* namespace: the
// counter and histogram declaration tables of internal/engine, per-key
// pool occupancy, and, when the first snapshot has them, its replica sets
// and discovery sources.
func registerMediator(r *Registry, snapshot func() engine.Snapshot) {
	m := sample(r, func() *engine.Snapshot { s := snapshot(); return &s })
	first := snapshot()
	for i, c := range first.Stats.Fields() {
		m.scalar("counter", c.Name, c.Help, func(s *engine.Snapshot) uint64 { return *s.Stats.Fields()[i].Value })
	}
	// A labelled family's rows follow one another, each named with its
	// labels: one family of them here, a series each.
	hists := first.Latencies.Fields()
	for from, to := 0, 0; from < len(hists); from = to {
		family, labels, _ := strings.Cut(hists[from].Name, "{")
		for to = from + 1; to < len(hists) && strings.HasPrefix(hists[to].Name, family+"{"); to++ {
		}
		var keys []string
		for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
			if k, _, ok := strings.Cut(kv, "="); ok {
				keys = append(keys, k)
			}
		}
		m.histogram(family, strings.Join(keys, ","), hists[from].Help, func(s *engine.Snapshot) []series {
			rows := s.Latencies.Fields()[from:to]
			out := make([]series, len(rows))
			for i, row := range rows {
				_, labels, _ := strings.Cut(row.Name, "{")
				out[i] = series{strings.TrimSuffix(labels, "}"), *row.Value}
			}
			return out
		})
	}
	// Per-key pool occupancy: aggregate Hits/Dials/Evictions say nothing
	// about which (color, address) is under pressure, so idle, in-flight
	// and blocked-checkout gauges are exported per key.
	perKey := func(f func(pool.KeyStats) int) func(*engine.Snapshot) map[string]uint64 {
		return func(s *engine.Snapshot) map[string]uint64 {
			out := make(map[string]uint64, len(s.Pool.PerKey))
			for k, ks := range s.Pool.PerKey {
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
	if first.Backends != nil {
		registerBackends(m)
	}
	if first.Discovery != nil {
		registerDiscovery(m)
	}
}

// registerBackends exports the mediator's replica sets: per-replica
// health/traffic series labelled "set/addr" and per-set ejection
// totals. Registered only for mediators deployed with `backend`
// directives, so plain single-address mediators keep a clean scrape.
func registerBackends(m sampled[*engine.Snapshot]) {
	perReplica := func(f func(backend.ReplicaSnapshot) uint64) func(*engine.Snapshot) map[string]uint64 {
		return func(s *engine.Snapshot) map[string]uint64 {
			out := map[string]uint64{}
			for _, set := range s.Backends {
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
	perSet := func(f func(backend.SetSnapshot) uint64) func(*engine.Snapshot) map[string]uint64 {
		return func(s *engine.Snapshot) map[string]uint64 {
			out := map[string]uint64{}
			for _, set := range s.Backends {
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
func registerDiscovery(m sampled[*engine.Snapshot]) {
	perSet := func(f func(discovery.Snapshot) uint64) func(*engine.Snapshot) map[string]uint64 {
		return func(s *engine.Snapshot) map[string]uint64 {
			out := map[string]uint64{}
			for _, ds := range s.Discovery {
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
		func(s *engine.Snapshot) map[string]uint64 {
			out := map[string]uint64{}
			for _, ds := range s.Discovery {
				if ds.LastResolution >= 0 {
					out[ds.Set] = uint64(ds.LastResolution)
				}
			}
			return out
		})
}

// registerObserver exports the tracer's and the flight recorder's own
// counters, plus the per-transition hit counts when the observer has a
// merged automaton.
func registerObserver(r *Registry, stats func() ObserverStats) {
	o := sample(r, stats)
	o.scalar("gauge", "starlink_tracer_enabled", "1 when the flow tracer is enabled.",
		func(s ObserverStats) uint64 {
			if s.Enabled {
				return 1
			}
			return 0
		})
	o.scalar("counter", "starlink_tracer_events_total", "TraceEvents consumed by the tracer.",
		func(s ObserverStats) uint64 { return s.Events })
	o.scalar("counter", "starlink_tracer_flows_assembled_total", "Span trees assembled from completed flows.",
		func(s ObserverStats) uint64 { return s.FlowsAssembled })
	o.scalar("counter", "starlink_tracer_flows_sampled_total", "Completed flows kept in the flow ring.",
		func(s ObserverStats) uint64 { return s.FlowsSampled })
	o.scalar("counter", "starlink_tracer_flows_dropped_total", "Completed flows sampled out of the flow ring.",
		func(s ObserverStats) uint64 { return s.FlowsDropped })
	o.scalar("gauge", "starlink_recorder_entries", "Flows currently held by the flight recorder.",
		func(s ObserverStats) uint64 { return uint64(s.RecorderEntries) })
	o.scalar("counter", "starlink_recorder_failed_total", "Failed flows flight-recorded.",
		func(s ObserverStats) uint64 { return s.RecordedFailed })
	o.scalar("counter", "starlink_recorder_slow_total", "Slow flows flight-recorded.",
		func(s ObserverStats) uint64 { return s.RecordedSlow })
	if stats().TransitionHits != nil {
		o.vec("counter", "starlink_transition_hits_total", "transition",
			"Executions per merged-automaton transition.",
			func(s ObserverStats) map[string]uint64 { return s.TransitionHits })
	}
}

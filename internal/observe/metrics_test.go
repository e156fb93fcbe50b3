package observe

import (
	"strings"
	"testing"
	"time"

	"starlink/internal/backend"
	"starlink/internal/discovery"
	"starlink/internal/engine"
	"starlink/internal/network/pool"
)

func TestWriteTextScalarsAndVecs(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_requests_total", "Requests handled.", func() uint64 { return 42 })
	r.Gauge("t_load", "Current load.", func() float64 { return 0.5 })
	r.CounterVec("t_hits_total", "edge", "Hits per edge.", func() map[string]uint64 {
		return map[string]uint64{"b->c": 2, "a->b": 7}
	})
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP t_requests_total Requests handled.",
		"# TYPE t_requests_total counter",
		"t_requests_total 42",
		"# TYPE t_load gauge",
		"t_load 0.5",
		// Vec samples sorted by label value.
		"t_hits_total{edge=\"a->b\"} 7\nt_hits_total{edge=\"b->c\"} 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteTextHistogramCumulative(t *testing.T) {
	r := NewRegistry()
	h := engine.LatencyHistogram{
		Count: 6,
		Sum:   3 * time.Millisecond,
		Buckets: []engine.LatencyBucket{
			{Low: 0, High: time.Millisecond, Count: 4},
			{Low: time.Millisecond, High: 2 * time.Millisecond, Count: 1},
			{Low: 2 * time.Millisecond, High: 4 * time.Millisecond, Count: 1},
		},
	}
	r.Histogram("t_latency_seconds", "Latency.", func() engine.LatencyHistogram { return h })
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE t_latency_seconds histogram",
		"t_latency_seconds_bucket{le=\"0.001\"} 4",
		"t_latency_seconds_bucket{le=\"0.002\"} 5",
		// The last bucket is always rendered as +Inf and carries the
		// cumulative total.
		"t_latency_seconds_bucket{le=\"+Inf\"} 6",
		"t_latency_seconds_sum 0.003",
		"t_latency_seconds_count 6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "_bucket") != 3 {
		t.Errorf("want 3 bucket lines:\n%s", out)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "", func() uint64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "", func() uint64 { return 0 })
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:        "0",
		42:       "42",
		0.5:      "0.5",
		0.001:    "0.001",
		0.000001: "1e-06",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestRegisterObserverRendersTracerMetrics(t *testing.T) {
	o := New(Options{Merged: testMerged()})
	feedFlow(o, 1, 1, nil)
	r := NewRegistry()
	RegisterObserver(r, o)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"starlink_tracer_enabled 1",
		"starlink_tracer_flows_assembled_total 1",
		"starlink_transition_hits_total{transition=\"m0->m1\"} 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// countingMediator counts what a scrape asks a mediator for.
type countingMediator struct {
	snapshots, poolStats, backends, discovery int
}

func (c *countingMediator) Snapshot() engine.Snapshot {
	c.snapshots++
	return engine.Snapshot{Stats: engine.Stats{Flows: 7, PoolHits: 3}}
}

func (c *countingMediator) PoolStats() pool.Stats {
	c.poolStats++
	return pool.Stats{PerKey: map[pool.Key]pool.KeyStats{{Color: 2, Addr: "a:1"}: {Idle: 4}}}
}

func (c *countingMediator) Backends() []backend.SetSnapshot {
	c.backends++
	return []backend.SetSnapshot{{Name: "set", Replicas: []backend.ReplicaSnapshot{{Addr: "a:1", Live: true}}}}
}

func (c *countingMediator) Discovery() []discovery.Snapshot {
	c.discovery++
	return []discovery.Snapshot{{Set: "set", Adds: 2}}
}

// TestMediatorScrapeSamplesOnce: however many series a mediator has — 21
// counters, three histograms, three pool gauges and the backend and
// discovery families — one scrape takes one Snapshot and one PoolStats, so
// its values are of one instant and the pool's mutex is not taken per
// series.
func TestMediatorScrapeSamplesOnce(t *testing.T) {
	med := &countingMediator{}
	r := NewRegistry()
	registerMediator(r, med)
	*med = countingMediator{} // registration itself looks at Backends and Discovery
	for scrape := 1; scrape <= 2; scrape++ {
		var b strings.Builder
		if err := r.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		if *med != (countingMediator{scrape, scrape, scrape, scrape}) {
			t.Fatalf("after %d scrapes the mediator was sampled %+v times", scrape, *med)
		}
		for _, want := range []string{
			"starlink_flows_total 7",
			"starlink_pool_hits_total 3",
			"starlink_transition_seconds_count 0",
			`starlink_pool_idle_conns{key="color 2 @ a:1"} 4`,
			`starlink_backend_up{replica="set/a:1"} 1`,
			`starlink_discovery_adds_total{set="set"} 2`,
		} {
			if !strings.Contains(b.String(), want) {
				t.Errorf("scrape %d lacks %q", scrape, want)
			}
		}
	}
}

package observe

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"starlink/internal/backend"
	"starlink/internal/discovery"
	"starlink/internal/engine"
	"starlink/internal/gateway"
	"starlink/internal/network/pool"
)

func TestWriteTextScalarsAndVecs(t *testing.T) {
	r := NewRegistry()
	s := sample(r, func() int { return 42 })
	s.scalar("counter", "t_requests_total", "Requests handled.", func(n int) uint64 { return uint64(n) })
	s.scalar("gauge", "t_load", "Current load.", func(n int) uint64 { return uint64(n / 2) })
	s.vec("counter", "t_hits_total", "edge", "Hits per edge.", func(int) map[string]uint64 {
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
		"t_load 21",
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
	sample(r, func() engine.LatencyHistogram { return h }).histogram("t_latency_seconds", "", "Latency.",
		func(h engine.LatencyHistogram) []series { return []series{{h: h}} })
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

	// A labelled family writes each series with its labels ahead of le.
	r = NewRegistry()
	sample(r, func() engine.LatencyHistogram { return h }).histogram("t_stage_seconds", "stage", "Stages.",
		func(h engine.LatencyHistogram) []series {
			return []series{{`stage="parse"`, h}, {`stage="build"`, engine.LatencyHistogram{}}}
		})
	b.Reset()
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out = b.String()
	for _, want := range []string{
		"t_stage_seconds_bucket{stage=\"parse\",le=\"0.001\"} 4",
		"t_stage_seconds_bucket{stage=\"parse\",le=\"+Inf\"} 6",
		"t_stage_seconds_sum{stage=\"parse\"} 0.003",
		"t_stage_seconds_count{stage=\"parse\"} 6",
		"t_stage_seconds_bucket{stage=\"build\",le=\"+Inf\"} 0",
		"t_stage_seconds_count{stage=\"build\"} 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("labelled histogram output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE t_stage_seconds histogram") != 1 {
		t.Errorf("want one family:\n%s", out)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	s := sample(NewRegistry(), func() uint64 { return 0 })
	s.scalar("counter", "dup_total", "", func(n uint64) uint64 { return n })
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	s.scalar("counter", "dup_total", "", func(n uint64) uint64 { return n })
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
	registerObserver(r, o.Stats)
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

// countingMediator counts the snapshots a scrape takes of a mediator.
type countingMediator struct{ snapshots int }

func (c *countingMediator) Snapshot() engine.Snapshot {
	c.snapshots++
	return engine.Snapshot{
		Stats:     engine.Stats{Flows: 7, PoolHits: 3},
		Pool:      pool.Stats{PerKey: map[pool.Key]pool.KeyStats{{Color: 2, Addr: "a:1"}: {Idle: 4}}},
		Backends:  []backend.SetSnapshot{{Name: "set", Replicas: []backend.ReplicaSnapshot{{Addr: "a:1", Live: true}}}},
		Discovery: []discovery.Snapshot{{Set: "set", Adds: 2}},
	}
}

// TestMediatorScrapeSamplesOnce: however many series a mediator has — 21
// counters, three histograms, three pool gauges and the backend and
// discovery families — one scrape takes one Snapshot, which is all a
// registry can ask a mediator for, so its values are of one instant and the
// pool's mutex is taken once.
func TestMediatorScrapeSamplesOnce(t *testing.T) {
	med := &countingMediator{}
	r := NewRegistry()
	registerMediator(r, med.Snapshot)
	med.snapshots = 0 // registration looks at one for its backends and discovery sources
	for scrape := 1; scrape <= 2; scrape++ {
		out := scrapeOnce(t, r)
		if med.snapshots != scrape {
			t.Fatalf("after %d scrapes the mediator was sampled %d times", scrape, med.snapshots)
		}
		for _, want := range []string{
			"starlink_flows_total 7",
			"starlink_pool_hits_total 3",
			"starlink_transition_seconds_count 0",
			`starlink_pool_idle_conns{key="color 2 @ a:1"} 4`,
			`starlink_backend_up{replica="set/a:1"} 1`,
			`starlink_discovery_adds_total{set="set"} 2`,
		} {
			if !strings.Contains(out, want) {
				t.Errorf("scrape %d lacks %q", scrape, want)
			}
		}
	}
}

// TestProcessScrapeSamplesOnce: the process families of one scrape come from
// one read of the runtime, and say what runtime/metrics does.
func TestProcessScrapeSamplesOnce(t *testing.T) {
	reads := 0
	r := NewRegistry()
	registerProcess(r, func() []float64 { reads++; return readProcess() })
	for scrape := 1; scrape <= 2; scrape++ {
		out := scrapeOnce(t, r)
		if reads != scrape {
			t.Fatalf("after %d scrapes the runtime was read %d times", scrape, reads)
		}
		for _, want := range []*regexp.Regexp{
			regexp.MustCompile(`(?m)^starlink_go_goroutines [1-9][0-9]*$`),
			regexp.MustCompile(`(?m)^starlink_go_heap_live_bytes [0-9]+$`),
			regexp.MustCompile(`(?m)^starlink_go_gc_cycles_total [0-9]+$`),
			regexp.MustCompile(`(?m)^starlink_go_gc_pause_seconds_total [0-9.e+-]+$`),
			regexp.MustCompile(`(?m)^starlink_build_info\{go_version="` + regexp.QuoteMeta(runtime.Version()) + `"\} 1$`),
		} {
			if !want.MatchString(out) {
				t.Errorf("scrape %d lacks a line matching %s:\n%s", scrape, want, out)
			}
		}
	}
}

// TestObserverScrapeSamplesOnce: the nine tracer and recorder families of
// one scrape come from one Stats of the observer.
func TestObserverScrapeSamplesOnce(t *testing.T) {
	o := New(Options{Merged: testMerged()})
	feedFlow(o, 1, 1, nil)
	samples := 0
	r := NewRegistry()
	registerObserver(r, func() ObserverStats { samples++; return o.Stats() })
	samples = 0 // registration looks at one for its hit counts
	for scrape := 1; scrape <= 2; scrape++ {
		out := scrapeOnce(t, r)
		if samples != scrape {
			t.Fatalf("after %d scrapes the observer was sampled %d times", scrape, samples)
		}
		for _, want := range []string{
			"starlink_tracer_enabled 1",
			"starlink_recorder_entries 0",
			`starlink_transition_hits_total{transition="m0->m1"} 1`,
		} {
			if !strings.Contains(out, want) {
				t.Errorf("scrape %d lacks %q", scrape, want)
			}
		}
	}
}

// TestGatewayScrapeSamplesOnce: the nine gateway families of one scrape
// come from one Stats of the gateway.
func TestGatewayScrapeSamplesOnce(t *testing.T) {
	samples := 0
	r := NewRegistry()
	registerGateway(r, func() gateway.Stats {
		samples++
		return gateway.Stats{
			Conns:   5,
			Sniffed: map[string]uint64{"http": 5},
			Routes:  []gateway.RouteStats{{Name: "xmlrpc", Accepted: 4, ActiveFlows: 1}},
		}
	})
	for scrape := 1; scrape <= 2; scrape++ {
		out := scrapeOnce(t, r)
		if samples != scrape {
			t.Fatalf("after %d scrapes the gateway was sampled %d times", scrape, samples)
		}
		for _, want := range []string{
			"starlink_gateway_conns_total 5",
			`starlink_gateway_sniffed_total{class="http"} 5`,
			`starlink_gateway_accepted_total{route="xmlrpc"} 4`,
			`starlink_gateway_active_flows{route="xmlrpc"} 1`,
		} {
			if !strings.Contains(out, want) {
				t.Errorf("scrape %d lacks %q", scrape, want)
			}
		}
	}
}

func scrapeOnce(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestMetricReference holds docs/OBSERVABILITY.md to the registries: the
// table between its metric markers is what both registries register for
// the process, then what a mediator with a cache, a backend set, a
// discovery source and an observer registers, then what a gateway
// registers, family by family, and every starlink_* name README.md,
// DESIGN.md and docs/*.md quote is one of those families (or, ending in
// "_", the prefix of some).
func TestMetricReference(t *testing.T) {
	proc, med, gw := NewRegistry(), NewRegistry(), NewRegistry()
	registerProcess(proc, readProcess)
	registerMediator(med, (&countingMediator{}).Snapshot)
	registerObserver(med, New(Options{Merged: testMerged()}).Stats)
	registerGateway(gw, func() gateway.Stats { return gateway.Stats{} })

	var want strings.Builder
	want.WriteString("| Name | Type | Label | Help |\n|---|---|---|---|\n")
	families := map[string]string{} // name -> type
	for _, r := range []*Registry{proc, med, gw} {
		for _, m := range r.metrics {
			label := ""
			if m.labelKey != "" {
				label = "`" + m.labelKey + "`"
			}
			fmt.Fprintf(&want, "| `%s` | %s | %s | %s |\n", m.name, m.typ, label, m.help)
			families[m.name] = m.typ
		}
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	open, end := "<!-- metrics -->\n", "<!-- /metrics -->"
	_, rest, _ := strings.Cut(string(doc), open)
	if got, _, _ := strings.Cut(rest, end); got != want.String() {
		t.Errorf("docs/OBSERVABILITY.md: the block between %q and %q is not what the registries hold.\ngot:\n%s\nwant (paste this between the markers):\n%s",
			strings.TrimSpace(open), end, got, want.String())
	}

	// The stage table says what each stage of starlink_stage_seconds
	// covers: it names the stages the family's series do, in their order.
	var series, stages []string
	for _, m := range med.metrics {
		if m.name != "starlink_stage_seconds" {
			continue
		}
		for _, s := range m.hist(m.from.take()) {
			_, v, _ := strings.Cut(s.labels, `stage="`)
			if v, _, _ = strings.Cut(v, `"`); !slices.Contains(series, v) {
				series = append(series, v)
			}
		}
	}
	_, rest, _ = strings.Cut(string(doc), "<!-- stages -->\n")
	table, _, _ := strings.Cut(rest, "<!-- /stages -->")
	for _, row := range strings.Split(table, "\n") {
		if name, ok := strings.CutPrefix(row, "| `"); ok {
			name, _, _ = strings.Cut(name, "`")
			stages = append(stages, name)
		}
	}
	if len(series) == 0 || !slices.Equal(stages, series) {
		t.Errorf("docs/OBSERVABILITY.md: the stage table names %q, the registry's starlink_stage_seconds %q", stages, series)
	}

	docs, err := filepath.Glob(filepath.Join("..", "..", "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, filepath.Join("..", "..", "README.md"), filepath.Join("..", "..", "DESIGN.md"))
	known := func(name string) bool {
		if strings.HasSuffix(name, "_") {
			for f := range families {
				if strings.HasPrefix(f, name) {
					return true
				}
			}
			return false
		}
		for _, suffix := range []string{"", "_bucket", "_sum", "_count"} {
			if typ, ok := families[strings.TrimSuffix(name, suffix)]; ok && (suffix == "" || typ == "histogram") {
				return true
			}
		}
		return false
	}
	quoted := regexp.MustCompile(`starlink_[a-z_]+`)
	for _, path := range docs {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range quoted.FindAllString(string(text), -1) {
			if !known(name) {
				t.Errorf("%s quotes %s, which no registry has", filepath.Base(path), name)
			}
		}
	}
}

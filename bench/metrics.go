package main

import (
	"fmt"
	"math"
)

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names and units and adds direction and bound; bench_test.go holds the
// two together.
type metricDef struct{ name, unit string }

// endToEnd is measured in the timed phase, tracing off, mediated traffic.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"flow_p50_us", "us"},
	{"flows_per_s", "1/s"},
	{"cpu_us_per_flow", "us"},
	{"allocs_per_flow", "count"},
	{"bytes_per_flow", "B"},
}

// perLayer comes from the layer run; a layer is a module under internal/.
var perLayer = []metricDef{
	{"client.samples", "count"},
	{"client.flow_p90_us", "us"},
	{"client.flow_p99_us", "us"},
	{"client.flow_max_us", "us"},
	{"client.failed_share", "ratio"},

	{"native.flow_p50_us", "us"},
	{"native.cpu_us_per_flow", "us"},
	{"native.allocs_per_flow", "count"},
	{"native.bytes_per_flow", "B"},
	{"native.overhead_ratio_p50", "ratio"},

	{"network.frame_read_us", "us"},
	{"network.frame_write_us", "us"},
	{"network.writes_per_message", "count"},
	{"network.loopback_rtt_us", "us"},
	{"network.wire_bytes_per_flow", "B"},

	{"pool.get_put_us", "us"},
	{"pool.hit_ratio", "ratio"},
	{"pool.dials", "count"},

	{"protocol.http_parse_us", "us"},

	{"mdl.xml_decode_us", "us"},
	{"mdl.xml_decode_allocs", "count"},
	{"mdl.xml_encode_us", "us"},
	{"mdl.xml_bytes_per_flow", "B"},
	{"mdl.bin_parse_us", "us"},
	{"mdl.bin_compose_us", "us"},

	{"bind.parse_request_us", "us"},
	{"bind.build_request_us", "us"},
	{"bind.parse_reply_us", "us"},
	{"bind.build_reply_us", "us"},
	{"bind.allocs_per_flow", "count"},

	{"mtl.translate_mean_us", "us"},
	{"mtl.translations_per_flow", "count"},

	{"rcache.key_us", "us"},
	{"rcache.hit_us", "us"},
	{"rcache.hit_ratio", "ratio"},
	{"rcache.hit_flow_p50_us", "us"},
	{"rcache.miss_flow_p50_us", "us"},
	{"rcache.evictions", "count"},

	{"engine.flow_span_p50_us", "us"},
	{"engine.msg_span_c1_us", "us"},
	{"engine.msg_span_c2_us", "us"},
	{"engine.exchange_mean_us", "us"},
	{"engine.exchanges_per_flow", "count"},
	{"engine.sessions_per_flow", "count"},
	{"engine.self_us", "us"},
	{"engine.failures", "count"},
	{"engine.redials", "count"},
	{"engine.deadline_exceeded", "count"},

	{"gateway.sniff_us", "us"},
	{"gateway.direct_flow_p50_us", "us"},
	{"gateway.shed", "count"},

	{"observe.traced_flow_p50_us", "us"},
	{"observe.overhead_ratio", "ratio"},
	{"observe.events_per_flow", "count"},

	{"core.load_models_s", "s"},
	{"core.deploy_s", "s"},
	{"core.first_flow_s", "s"},

	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.heap_live_mb", "MB"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values collects measurements by metric name while a run proceeds.
type values map[string]float64

// metrics renders the values of defs, and fails when one is missing or
// not a finite number: every metric is emitted on every workload, 0 where
// the workload does not use the layer.
func (v values) metrics(defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		x, ok := v[d.name]
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s not measured (%v)", d.name, x)
		}
		out[d.name] = metric{Value: x, Unit: d.unit}
	}
	return out, nil
}

// env records where and how a run was made.
type env struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	Seed       int64   `json:"seed"`
	Clients    int     `json:"clients"`
	SetupRuns  int     `json:"setup_cycles"`
	WarmupS    float64 `json:"warmup_s"`
	TimedS     float64 `json:"timed_s"`
	LayerS     float64 `json:"layer_phase_s,omitempty"`
	ReplayIter int     `json:"replay_iterations,omitempty"`
}

// report is one workload's full result: what `go run ./bench -layers`
// prints per workload.
type report struct {
	Workload string `json:"workload"`
	Why      string `json:"why"`
	Env      env    `json:"env"`
	// Correct is false when a reply was wrong, failed or refused.
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FirstErr  string            `json:"first_error,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	// Rebuilt counts the captured outbound packets the binders rebuilt to
	// an equal abstract message, and how many of those byte for byte.
	Rebuilt         int `json:"replay_rebuilt,omitempty"`
	RebuiltSameByte int `json:"replay_rebuilt_identical,omitempty"`
}

// result is the line the benchmark driver reads: exactly these keys, the
// end-to-end metrics with -trace 0 and the per-layer ones with -trace 1.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) result() result {
	res := result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.EndToEnd}
	if r.PerLayer != nil {
		res.Metrics = r.PerLayer
	}
	return res
}

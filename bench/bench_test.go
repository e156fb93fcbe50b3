package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
	"time"
)

// contract is the part of BENCHMARK.json the program must agree with.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesTables holds BENCHMARK.json and the program's metric
// and workload tables together: same names, same units, same order.
func TestContractMatchesTables(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, c.Workloads[i].Name, w.name)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) || len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program has %d+%d",
			len(c.EndToEnd), len(c.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range endToEnd {
		if got := c.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Bound <= 0 || got.Bound > 0.25 || seen[d.name] {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, program %+v", i, got, d)
		}
		seen[d.name] = true
	}
	for i, d := range perLayer {
		if got := c.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || seen[d.name] {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, program %+v", i, got, d)
		}
		seen[d.name] = true
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload end to end on a
// small scale — deploy through the public API, drive, trace, capture,
// replay — so a change to the engine's public surface cannot silently
// break the benchmark, and checks that every metric BENCHMARK.json names
// comes out once, as a finite number, with no failed flow.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := readContract(t)
	for _, w := range workloads {
		cfg := &config{
			modelsDir:   "../models",
			seed:        1,
			timed:       200 * time.Millisecond,
			warmup:      50 * time.Millisecond,
			layerPhase:  100 * time.Millisecond,
			setupCycles: 3,
			replayIters: 50,
			layers:      true,
		}
		rep, err := runWorkload(cfg, w)
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
			continue
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("%s: correct=%v, %d of %d flows failed: %s", w.name, rep.Correct, rep.Failed, rep.Attempted, rep.FirstErr)
		}
		if rep.Rebuilt == 0 {
			t.Errorf("%s: the replay rebuilt no outbound packet", w.name)
		}
		if len(rep.EndToEnd) != len(c.EndToEnd) || len(rep.PerLayer) != len(c.PerLayer) {
			t.Errorf("%s: emitted %d+%d metrics, BENCHMARK.json names %d+%d",
				w.name, len(rep.EndToEnd), len(rep.PerLayer), len(c.EndToEnd), len(c.PerLayer))
		}
		for _, m := range c.EndToEnd {
			got, ok := rep.EndToEnd[m.Name]
			if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %+v (emitted: %v)", w.name, m.Name, got, ok)
			}
		}
		for _, m := range c.PerLayer {
			got, ok := rep.PerLayer[m.Name]
			if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %+v (emitted: %v)", w.name, m.Name, got, ok)
			}
		}
	}
}

// TestQuartilesMatchPython pins the spread arithmetic to the values
// Python's statistics.quantiles(data, n=4) gives, which the driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 38},
		{[]float64{5, 1}, 0, 6},
	} {
		q1, q3 := quartiles(tc.data)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.data, q1, q3, tc.q1, tc.q3)
		}
	}
}

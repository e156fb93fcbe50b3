// Command bench is the repository's benchmark: five workloads of
// mediated traffic over loopback, six end-to-end metrics measured with
// tracing off and a separate layer run that says where the time goes.
// README.md in this directory explains every choice; BENCHMARK.json at
// the repository root is the contract a later change is judged by.
//
//	go run ./bench -layers                  every workload, every metric
//	go run ./bench -workload add_steady     one workload, end to end only
//	go run ./bench -repeat 10               the noise floor of every metric
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// Fixed settings, not options: see README.md.
const (
	// warmup runs on the timed phase's sessions before the clock starts.
	warmup = 2 * time.Second
	// setupCycles cold cycles, half before the timed phase and half after
	// it, are what setup_s is read from.
	setupCycles = 100
	// replayIters replays of the captured flow give each layer function
	// its median.
	replayIters = 2000
	// layerShare of the timed phase's length is given to each phase of the
	// layer run (native, traced, and direct behind a gateway).
	layerShare = 6
)

func main() {
	// One P for load generator, mediator and simulated service: the numbers
	// are path length, not where the scheduler happened to wake a goroutine.
	runtime.GOMAXPROCS(1)
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "run one `workload`; default all, each in a fresh process")
	seed := flag.Int64("seed", 1, "seed of operands, query choice and hit/miss order")
	seconds := flag.Int("seconds", 15, "length of the timed phase")
	traceFlag := flag.Int("trace", 0, "1 adds the layer run and reports the per-layer metrics as the result")
	layersFlag := flag.Bool("layers", false, "same as -trace 1")
	repeat := flag.Int("repeat", 0, "run the workloads `n` times on seeds seed..seed+n-1 and report each metric's spread against its bound")
	spans := flag.String("spans", "", "write the layer run's spans to `file` once the run has ended (needs -workload)")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *traceFlag < 0 || *traceFlag > 1 || (*spans != "" && *name == "") {
		flag.Usage()
		return 2
	}
	withLayers := *layersFlag || *traceFlag == 1

	chosen := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		chosen = []workload{w}
	}

	switch {
	case *repeat > 0:
		return repeatRuns(chosen, *repeat, *seed, *seconds)
	case *name == "":
		// A fresh process per workload: no result depends on what ran
		// before it in the same heap.
		for _, w := range chosen {
			rep, err := child(w.name, *seed, *seconds, withLayers)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			fmt.Println(rep.line)
		}
		return 0
	}

	timed := time.Duration(*seconds) * time.Second
	cfg := &config{
		modelsDir:   "models",
		seed:        *seed,
		timed:       timed,
		warmup:      warmup,
		layerPhase:  timed / layerShare,
		setupCycles: setupCycles,
		replayIters: replayIters,
		layers:      withLayers,
		spansPath:   *spans,
	}
	rep, err := runWorkload(cfg, chosen[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", chosen[0].name, err)
		return 1
	}
	// The full report first; the last line is what the driver reads.
	for _, line := range []any{rep, rep.result()} {
		out, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Println(string(out))
	}
	return 0
}

// childReport is one child process's report, parsed and as printed.
type childReport struct {
	report
	line string
}

// child runs one workload in a fresh process of this same program.
func child(name string, seed int64, seconds int, withLayers bool) (*childReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds)}
	if withLayers {
		args = append(args, "-layers")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	line, _, _ := bytes.Cut(out, []byte("\n"))
	rep := &childReport{line: string(line)}
	if err := json.Unmarshal(line, &rep.report); err != nil {
		return nil, fmt.Errorf("child printed no report: %w", err)
	}
	return rep, nil
}

// noise is one end-to-end metric's run-to-run spread set against the
// bound BENCHMARK.json gives it.
type noise struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
	Inside bool    `json:"inside_bound"`
}

// repeatRuns is the noise-floor report: n runs of each workload, each on
// its own seed as the driver does it, and per end-to-end metric the
// median, the quartiles and whether their distance as a share of the
// median stays inside the metric's bound. setup_s is reported but, as in
// the driver, not held to its bound by spread.
func repeatRuns(chosen []workload, n int, seed int64, seconds int) int {
	if n < 2 {
		fmt.Fprintln(os.Stderr, "bench: -repeat needs at least 2 runs to have quartiles")
		return 2
	}
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	status := 0
	// Round robin, so that a slow quarter of an hour on the host lands on
	// every workload alike, as it does when the driver runs them.
	runs := make([]map[string][]float64, len(chosen))
	for i := 0; i < n; i++ {
		for k, w := range chosen {
			rep, err := child(w.name, seed+int64(i), seconds, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: %v\n", w.name, i, err)
				return 1
			}
			if !rep.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: %d of %d flows failed: %s\n", w.name, i, rep.Failed, rep.Attempted, rep.FirstErr)
				status = 1
			}
			if runs[k] == nil {
				runs[k] = map[string][]float64{}
			}
			for _, d := range endToEnd {
				runs[k][d.name] = append(runs[k][d.name], rep.EndToEnd[d.name].Value)
			}
		}
	}
	for k, w := range chosen {
		runs := runs[k]
		out := struct {
			Workload string           `json:"workload"`
			Runs     int              `json:"runs"`
			Seeds    [2]int64         `json:"seeds"`
			Metrics  map[string]noise `json:"metrics"`
		}{w.name, n, [2]int64{seed, seed + int64(n) - 1}, map[string]noise{}}
		for _, d := range endToEnd {
			q1, q3 := quartiles(runs[d.name])
			nz := noise{Unit: d.unit, Median: median(runs[d.name]), Q1: q1, Q3: q3,
				Spread: spread(runs[d.name]), Bound: bounds[d.name]}
			nz.Inside = nz.Spread <= nz.Bound
			if !nz.Inside && d.name != "setup_s" {
				status = 1
			}
			out.Metrics[d.name] = nz
		}
		line, err := json.Marshal(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Println(string(line))
	}
	return status
}

// readBounds reads each end-to-end metric's bound from BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range doc.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	for _, d := range endToEnd {
		if _, ok := bounds[d.name]; !ok {
			return nil, fmt.Errorf("%s gives %s no bound", path, d.name)
		}
	}
	return bounds, nil
}

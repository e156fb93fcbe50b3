package observe

import (
	"runtime"
	"runtime/metrics"
)

// processRows declares each process family once, beside the
// runtime/metrics sample it is read from. A scrape reads them all with one
// metrics.Read (readProcess), which unlike runtime.ReadMemStats does not
// stop the world.
var processRows = []struct {
	name, typ, help, sample string
	// perP marks a sample the runtime charges once per P: it is divided by
	// GOMAXPROCS.
	perP bool
}{
	{"starlink_go_goroutines", "gauge", "Goroutines that exist.", "/sched/goroutines:goroutines", false},
	{"starlink_go_heap_live_bytes", "gauge", "Heap bytes the last GC cycle marked live.", "/gc/heap/live:bytes", false},
	{"starlink_go_gc_cycles_total", "counter", "GC cycles completed.", "/gc/cycles/total:gc-cycles", false},
	{"starlink_go_gc_pause_seconds_total", "counter", "Time the program was stopped for GC.",
		"/cpu/classes/gc/pause:cpu-seconds", true},
}

// readProcess reads one value per row of processRows, in their order.
func readProcess() []float64 {
	samples := make([]metrics.Sample, len(processRows)+1)
	for i, row := range processRows {
		samples[i].Name = row.sample
	}
	procs := &samples[len(processRows)]
	procs.Name = "/sched/gomaxprocs:threads"
	metrics.Read(samples)
	values := make([]float64, len(processRows))
	for i, row := range processRows {
		switch v := samples[i].Value; v.Kind() {
		case metrics.KindUint64:
			values[i] = float64(v.Uint64())
		case metrics.KindFloat64:
			values[i] = v.Float64()
		}
		if row.perP {
			values[i] /= float64(procs.Value.Uint64())
		}
	}
	return values
}

// registerProcess exports the process the registry is served from: the
// rows of processRows, read once per scrape by read, and the Go version it
// was built with.
func registerProcess(r *Registry, read func() []float64) {
	p := sample(r, read)
	for i, row := range processRows {
		p.real(row.typ, row.name, row.help, func(v []float64) float64 { return v[i] })
	}
	p.vec("gauge", "starlink_build_info", "go_version", "1, labelled with the Go version the binary was built with.",
		func([]float64) map[string]uint64 { return map[string]uint64{runtime.Version(): 1} })
}

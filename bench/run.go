package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"starlink/starlink"
)

// config is one run's settings. Only the seed and the phase lengths vary
// between callers; everything a workload is lives in its definition.
type config struct {
	modelsDir string
	seed      int64
	// timed is the measured phase, warmup runs before it on the same
	// sessions, layerPhase is the length of each part of the layer run.
	timed, warmup, layerPhase time.Duration
	setupCycles, replayIters  int
	// layers adds the layer run; spansPath, when set, is where its spans
	// are written once the run has ended.
	layers    bool
	spansPath string
}

// A driven phase is cut into slices of sliceLen (at least minSlices of
// them, for phases too short to hold that many at full length), and every
// timed end-to-end metric is read from the quietest slices. The box is a
// shared VM: a neighbour only ever adds time, and it does so in bursts of
// milliseconds that leave few whole tenths of a second untouched but many
// whole hundredths. So the slices are 10 ms, and the run reports the
// quietRank-th best of them — not the very best, which one lucky slice
// could set. A slice with fewer than quietFlows checked flows is too
// small to have a median and is left out.
const (
	sliceLen   = 10 * time.Millisecond
	minSlices  = 10
	quietRank  = 3
	quietFlows = 4
)

// mark is the process's CPU time at one instant.
type mark struct {
	at  time.Time
	cpu time.Duration
}

func markNow() mark {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return mark{at: time.Now(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

// sample is one checked flow's client-observed time.
type sample struct {
	ns  uint32
	hot bool
}

// phase is what the clients saw while they drove one deployment.
type phase struct {
	samples [][]sample // per client, in completion order
	bounds  [][]int    // per client, index of the first sample of slices 1..n
	marks   []mark     // slice boundaries, as client 0 crossed them
	// mallocs and bytes are what the process allocated during the phase,
	// gcCycles and gcPause what the collector did meanwhile.
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
	failed         int
	first          error
}

// drive runs every session closed-loop for d: each client sends its next
// flow only when the previous one has been answered and checked. A failed
// or wrong flow is counted and contributes no sample.
func drive(sessions []*session, d time.Duration) *phase {
	p := &phase{samples: make([][]sample, len(sessions)), bounds: make([][]int, len(sessions))}
	var mu sync.Mutex
	var wg sync.WaitGroup
	slices := max(int(d/sliceLen), minSlices)
	slice := d / time.Duration(slices)
	for c := range sessions {
		// Room for 1<<15 flows a second, beyond any workload here, made
		// before the clock starts so the phase does not pay for it.
		p.samples[c] = make([]sample, 0, int(d.Seconds()*(1<<15))+1024)
		p.bounds[c] = make([]int, 0, slices)
	}
	p.marks = make([]mark, 0, slices+1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := markNow()
	p.marks = append(p.marks, start)
	for c, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat, bounds := p.samples[c], p.bounds[c]
			for {
				t0 := time.Now()
				if t0.Sub(start.at) >= d {
					break
				}
				hot, err := s.flow()
				t1 := time.Now()
				if err != nil {
					mu.Lock()
					p.failed++
					if p.first == nil {
						p.first = err
					}
					mu.Unlock()
				} else {
					lat = append(lat, sample{ns: uint32(min(t1.Sub(t0), math.MaxUint32)), hot: hot})
				}
				for len(bounds) < slices && t1.Sub(start.at) >= time.Duration(len(bounds)+1)*slice {
					bounds = append(bounds, len(lat))
					if c == 0 {
						p.marks = append(p.marks, markNow())
					}
				}
			}
			p.samples[c], p.bounds[c] = lat, bounds
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	p.mallocs, p.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	p.gcCycles, p.gcPause = after.NumGC-before.NumGC, time.Duration(after.PauseTotalNs-before.PauseTotalNs)
	return p
}

// flows is the number of checked flows.
func (p *phase) flows() int {
	n := 0
	for _, s := range p.samples {
		n += len(s)
	}
	return n
}

// latencies returns the flow times in microseconds, sorted, of the
// samples keep accepts.
func (p *phase) latencies(keep func(sample) bool) []float64 {
	var out []float64
	for _, ss := range p.samples {
		for _, s := range ss {
			if keep == nil || keep(s) {
				out = append(out, float64(s.ns)/1e3)
			}
		}
	}
	sort.Float64s(out)
	return out
}

// cpuPerFlow is the whole phase's CPU time per checked flow, in µs.
func (p *phase) cpuPerFlow() float64 {
	a, b := p.marks[0], p.marks[len(p.marks)-1]
	return float64(b.cpu-a.cpu) / 1e3 / float64(p.flows())
}

// quietest returns the quietRank-th smallest value, or the largest of
// fewer.
func quietest(vals []float64) float64 {
	s := sortedCopy(vals)
	return s[min(quietRank, len(s))-1]
}

// endToEnd computes the end-to-end metrics of the timed phase: times and
// rates from its quietest slices, allocations, which no neighbour can
// move, over the whole of it.
func (p *phase) endToEnd(v values) error {
	n := len(p.marks) - 1
	for _, b := range p.bounds {
		n = min(n, len(b))
	}
	var p50, perFlow, cpu []float64
	for k := 0; k < n; k++ {
		var lat []float64
		for c, ss := range p.samples {
			from := 0
			if k > 0 {
				from = p.bounds[c][k-1]
			}
			for _, s := range ss[from:p.bounds[c][k]] {
				lat = append(lat, float64(s.ns)/1e3)
			}
		}
		if len(lat) < quietFlows {
			continue
		}
		a, b := p.marks[k], p.marks[k+1]
		flows := float64(len(lat))
		p50 = append(p50, median(lat))
		perFlow = append(perFlow, b.at.Sub(a.at).Seconds()/flows)
		cpu = append(cpu, float64(b.cpu-a.cpu)/1e3/flows)
	}
	if len(p50) < minSlices/2 {
		return fmt.Errorf("timed phase: only %d of %d slices checked %d flows or more", len(p50), n, quietFlows)
	}
	v["flow_p50_us"] = quietest(p50)
	v["flows_per_s"] = 1 / quietest(perFlow)
	v["cpu_us_per_flow"] = quietest(cpu)
	flows := float64(p.flows())
	v["allocs_per_flow"] = float64(p.mallocs) / flows
	v["bytes_per_flow"] = float64(p.bytes) / flows
	return nil
}

// start registers the workload's specs against target in a loaded model
// set and starts the named spec through the public entry point. admin, when
// set, is the admin address, which is what attaches an observer.
func start(models *starlink.Models, f *fixture, name, target, admin string) (starlink.Deployment, error) {
	if err := f.register(models, target); err != nil {
		return nil, err
	}
	return starlink.Deploy(name, models, starlink.DeployOptions{Listen: "127.0.0.1:0", Admin: admin})
}

// deploy loads the models afresh and starts the named spec.
func deploy(cfg *config, f *fixture, name, target, admin string) (*starlink.Models, starlink.Deployment, error) {
	models, err := starlink.LoadModels(cfg.modelsDir)
	if err != nil {
		return nil, nil, err
	}
	dep, err := start(models, f, name, target, admin)
	return models, dep, err
}

// setupTimes collects the parts of the cold cycles a run makes.
type setupTimes struct{ total, load, deploy, first []float64 }

// cycles runs n cold cycles of what a user pays before the first answer:
// load the models, parse the spec, deploy, one checked flow, close.
func (st *setupTimes) cycles(cfg *config, w workload, f *fixture, n int) error {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		models, err := starlink.LoadModels(cfg.modelsDir)
		if err != nil {
			return err
		}
		t1 := time.Now()
		d, err := start(models, f, w.deploy, f.target, "")
		if err != nil {
			return err
		}
		t2 := time.Now()
		s := f.mediated(d.Addr(), 0)
		_, err = s.flow()
		s.close()
		t3 := time.Now()
		d.Close()
		t4 := time.Now()
		if err != nil {
			return fmt.Errorf("setup cycle %d: first flow: %w", i, err)
		}
		st.total = append(st.total, t4.Sub(t0).Seconds())
		st.load = append(st.load, t1.Sub(t0).Seconds())
		st.deploy = append(st.deploy, t2.Sub(t1).Seconds())
		st.first = append(st.first, t3.Sub(t2).Seconds())
	}
	return nil
}

// record reports a quiet cycle and a quiet one of each of its parts, by
// the rule of the timed phase: a cycle is 2 to 5 ms, the length of the
// bursts a neighbour adds, and the median cycle moved by a quarter between
// two afternoons of the same code where the quiet ones agreed.
func (st *setupTimes) record(v values) {
	v["setup_s"] = quietest(st.total)
	v["core.load_models_s"] = quietest(st.load)
	v["core.deploy_s"] = quietest(st.deploy)
	v["core.first_flow_s"] = quietest(st.first)
}

// engineSnapshot returns the workload's mediator's counters, once the
// engine has finished accounting the flows the clients already saw
// answered: it counts a flow after writing its last reply, so the counters
// are read every 2 ms until they stand still, for 200 ms at most.
func engineSnapshot(dep starlink.Deployment, w workload) (starlink.Snapshot, *starlink.GatewayStats, error) {
	var last uint64
	for try := 0; ; try++ {
		ds := dep.Snapshot()
		snap, ok := ds.Mediators[w.mediator]
		if !ok {
			return snap, nil, fmt.Errorf("deployment reports no mediator %q", w.mediator)
		}
		now := snap.Stats.Flows + snap.Stats.Failures
		if (try > 0 && now == last) || try == 100 {
			return snap, ds.Gateway, nil
		}
		last = now
		time.Sleep(2 * time.Millisecond)
	}
}

func sessionsOf(n int, open func(client int) *session) (sessions []*session, closeAll func()) {
	for c := 0; c < n; c++ {
		sessions = append(sessions, open(c))
	}
	return sessions, func() {
		for _, s := range sessions {
			s.close()
		}
	}
}

// within reports whether got is want give or take tol.
func within(got, want, tol float64) bool { return math.Abs(got-want) <= tol }

// engineWork is what the engine did per checked flow between two
// snapshots: service exchanges and translations, and the mean time of each.
type engineWork struct {
	exchanges, exchangeUS float64
	translates, transUS   float64
}

func workBetween(a, b starlink.Snapshot, flows float64) engineWork {
	w := engineWork{
		exchanges:  float64(b.Exchanges.Count-a.Exchanges.Count) / flows,
		translates: float64(b.Translate.Count-a.Translate.Count) / flows,
	}
	if n := b.Exchanges.Count - a.Exchanges.Count; n > 0 {
		w.exchangeUS = float64(b.Exchanges.Sum-a.Exchanges.Sum) / 1e3 / float64(n)
	}
	if n := b.Translate.Count - a.Translate.Count; n > 0 {
		w.transUS = float64(b.Translate.Sum-a.Translate.Sum) / 1e3 / float64(n)
	}
	return w
}

// timed deploys the workload with default configuration and no observer,
// warms it up and measures it; it fails the run when the engine did not
// do the work the workload's name promises.
func timed(cfg *config, w workload, f *fixture, v values) (*phase, error) {
	_, dep, err := deploy(cfg, f, w.deploy, f.target, "")
	if err != nil {
		return nil, err
	}
	defer dep.Close()
	sessions, closeAll := sessionsOf(w.clients, func(c int) *session { return f.mediated(dep.Addr(), c) })
	defer closeAll()
	if warm := drive(sessions, cfg.warmup); warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d flows failed, first: %w", warm.failed, warm.first)
	}
	before, _, err := engineSnapshot(dep, w)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	p := drive(sessions, cfg.timed)
	after, gw, err := engineSnapshot(dep, w)
	if err != nil {
		return nil, err
	}
	flows := float64(p.flows())
	if flows == 0 {
		return nil, fmt.Errorf("timed phase checked no flow; first failure: %v", p.first)
	}
	if err := p.endToEnd(v); err != nil {
		return nil, err
	}

	lat := p.latencies(nil)
	v["client.samples"] = flows
	v["client.flow_p90_us"] = quantile(lat, 0.90)
	v["client.flow_p99_us"] = quantile(lat, 0.99)
	v["client.flow_max_us"] = lat[len(lat)-1]
	v["client.failed_share"] = float64(p.failed) / (flows + float64(p.failed))

	a, b := before.Stats, after.Stats
	work := workBetween(before, after, flows)
	v["engine.exchange_mean_us"] = work.exchangeUS
	v["engine.exchanges_per_flow"] = work.exchanges
	v["engine.sessions_per_flow"] = float64(b.Sessions-a.Sessions) / flows
	v["engine.failures"] = float64(b.Failures)
	v["engine.redials"] = float64(b.Redials)
	v["engine.deadline_exceeded"] = float64(b.DeadlineExceeded)
	v["mtl.translate_mean_us"] = work.transUS
	v["mtl.translations_per_flow"] = work.translates
	// The pool counters are the deployment's lifetime, warm-up included: a
	// persistent session checks its connection out once, before the timed
	// phase, and a delta over the phase would be 0 / 0.
	v["pool.dials"] = float64(b.PoolDials)
	v["pool.hit_ratio"] = 0
	if n := b.PoolHits + b.PoolDials; n > 0 {
		v["pool.hit_ratio"] = float64(b.PoolHits) / float64(n)
	}
	lookups := float64(b.CacheHits - a.CacheHits + b.CacheMisses - a.CacheMisses + b.CacheCoalesced - a.CacheCoalesced)
	v["rcache.hit_ratio"] = 0
	if lookups > 0 {
		v["rcache.hit_ratio"] = float64(b.CacheHits-a.CacheHits) / lookups
	}
	v["rcache.evictions"] = float64(b.CacheEvictions - a.CacheEvictions)
	v["rcache.hit_flow_p50_us"] = quantile(p.latencies(func(s sample) bool { return s.hot }), 0.5)
	v["rcache.miss_flow_p50_us"] = 0
	if w.cached {
		v["rcache.miss_flow_p50_us"] = quantile(p.latencies(func(s sample) bool { return !s.hot }), 0.5)
	}
	v["gateway.shed"] = 0
	if gw != nil {
		for _, rt := range gw.Routes {
			v["gateway.shed"] += float64(rt.Shed)
		}
	}
	v["runtime.gc_cycles"] = float64(p.gcCycles)
	v["runtime.gc_pause_ms"] = float64(p.gcPause) / 1e6
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	v["runtime.heap_live_mb"] = float64(live[0].Value.Uint64()) / (1 << 20)

	// The run must have exercised what the workload's name says. A client
	// stops mid-block, so a ratio is off by up to two flows per client:
	// nothing on a real run, the whole tolerance on a 200 ms one.
	tol := 0.01 + 2*float64(w.clients)/flows
	var broken []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			broken = append(broken, fmt.Sprintf(format, args...))
		}
	}
	check(within(work.exchanges, w.exchanges, tol), "engine.exchanges_per_flow = %.4f, want %.2f", work.exchanges, w.exchanges)
	check(within(v["engine.sessions_per_flow"], w.sessions, tol), "engine.sessions_per_flow = %.4f, want %.0f", v["engine.sessions_per_flow"], w.sessions)
	check(b.Failures == 0 && b.Redials == 0 && b.DeadlineExceeded == 0,
		"engine failures %d, redials %d, deadline exceeded %d, want 0", b.Failures, b.Redials, b.DeadlineExceeded)
	if w.cached {
		check(within(v["rcache.hit_ratio"], 0.80, tol), "rcache.hit_ratio = %.4f, want 0.80", v["rcache.hit_ratio"])
	}
	if len(broken) > 0 {
		return nil, fmt.Errorf("%s did not run as specified: %s", w.name, strings.Join(broken, "; "))
	}
	return p, nil
}

// runWorkload measures one workload and returns its report.
func runWorkload(cfg *config, w workload) (*report, error) {
	f, err := w.start(cfg.modelsDir, cfg.seed)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	v := values{}
	// Half the cold cycles run before the timed phase and half after it, so
	// that a slow second on the host cannot be all that setup_s saw.
	var st setupTimes
	if err := st.cycles(cfg, w, f, (cfg.setupCycles+1)/2); err != nil {
		return nil, err
	}
	run, err := timed(cfg, w, f, v)
	if err != nil {
		return nil, err
	}
	if err := st.cycles(cfg, w, f, cfg.setupCycles/2); err != nil {
		return nil, err
	}
	st.record(v)
	rep := &report{
		Workload:  w.name,
		Why:       w.why,
		Env:       environment(cfg, w),
		Correct:   run.failed == 0,
		Attempted: run.flows() + run.failed,
		Failed:    run.failed,
	}
	if run.first != nil {
		rep.FirstErr = run.first.Error()
	}
	if rep.EndToEnd, err = v.metrics(endToEnd); err != nil {
		return nil, err
	}
	if !cfg.layers {
		return rep, nil
	}
	rr, err := layers(cfg, w, f, run, v)
	if err != nil {
		return nil, err
	}
	rep.Rebuilt, rep.RebuiltSameByte = rr.rebuilt, rr.rebuiltSameByte
	if rep.PerLayer, err = v.metrics(perLayer); err != nil {
		return nil, err
	}
	if cfg.spansPath != "" {
		if err := rr.trace.write(cfg.spansPath); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func environment(cfg *config, w workload) env {
	e := env{
		Commit:     "unknown",
		Go:         runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     "unknown",
		Seed:       cfg.seed,
		Clients:    w.clients,
		SetupRuns:  cfg.setupCycles,
		WarmupS:    cfg.warmup.Seconds(),
		TimedS:     cfg.timed.Seconds(),
	}
	if cfg.layers {
		e.LayerS, e.ReplayIter = cfg.layerPhase.Seconds(), cfg.replayIters
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	if rel, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(rel))
	}
	return e
}

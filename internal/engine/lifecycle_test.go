package engine_test

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"starlink/internal/bind"
	"starlink/internal/casestudy"
	"starlink/internal/engine"
	"starlink/internal/network"
	"starlink/internal/observe"
	"starlink/internal/protocol/giop"
	"starlink/internal/protocol/httpwire"
)

// startGatedAddPlus wires the Fig. 7/8 Add->Plus mediator against a Plus
// service whose handler blocks: each call signals `entered` and waits on
// `release`, so tests can hold a mediation flow in flight at will.
func startGatedAddPlus(t *testing.T) (*engine.Mediator, chan struct{}, chan struct{}) {
	t.Helper()
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	srv := startPlusService(t, func() {
		entered <- struct{}{}
		<-release
	})
	med := startAddPlus(t, srv.Addr(), func(cfg *engine.Config) {
		cfg.ExchangeTimeout = 10 * time.Second
	})
	return med, entered, release
}

// invokeAsync runs one Add invocation in the background and reports its
// outcome on the returned channel.
type invokeResult struct {
	val string
	err error
}

func invokeAsync(t *testing.T, addr string) (<-chan invokeResult, *giop.Client) {
	t.Helper()
	client, err := giop.Dial(addr, "calc")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	got := make(chan invokeResult, 1)
	go func() {
		results, err := client.Invoke("Add", giop.IntParam(20), giop.IntParam(22))
		if err != nil {
			got <- invokeResult{err: err}
			return
		}
		got <- invokeResult{val: results[0].ValueString()}
	}()
	return got, client
}

// TestPoolReuseAcrossSessions is the heart of the pooled redesign: the
// service connection a session used is checked back in when the session
// ends and serves the next session without a fresh dial.
func TestPoolReuseAcrossSessions(t *testing.T) {
	d := &faultyDialer{}
	med := startAddPlusWithDialer(t, d, nil)

	const sessions = 8
	for i := 0; i < sessions; i++ {
		client, err := giop.Dial(med.Addr(), "calc")
		if err != nil {
			t.Fatal(err)
		}
		results, err := client.Invoke("Add", giop.IntParam(int64(i)), giop.IntParam(1))
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if want := strconv.Itoa(i + 1); results[0].ValueString() != want {
			t.Fatalf("session %d: Add = %s, want %s", i, results[0].ValueString(), want)
		}
		client.Close()
		// Give the session goroutine a beat to check its connection back
		// into the pool before the next session asks for one.
		time.Sleep(5 * time.Millisecond)
	}

	st := med.Snapshot().Stats
	if st.Sessions != sessions {
		t.Errorf("Sessions = %d, want %d", st.Sessions, sessions)
	}
	if st.PoolDials >= st.Sessions {
		t.Errorf("PoolDials = %d, not below Sessions = %d: no reuse", st.PoolDials, st.Sessions)
	}
	if st.PoolHits == 0 {
		t.Error("PoolHits = 0, want reuse across sessions")
	}
	if got := uint64(d.dials()); got != st.PoolDials {
		t.Errorf("dialer saw %d dials, stats say %d", got, st.PoolDials)
	}
	if d.dials() > 2 {
		t.Errorf("dials = %d for %d sequential sessions, want ~1", d.dials(), sessions)
	}
}

// TestShutdownDrainsInFlightSession: a client whose request is already at
// the service keeps its session alive through Shutdown and still gets the
// reply; only then does Shutdown return.
func TestShutdownDrainsInFlightSession(t *testing.T) {
	med, entered, release := startGatedAddPlus(t)
	got, _ := invokeAsync(t, med.Addr())
	<-entered // the request has reached the service: the flow is in flight

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- med.Shutdown(ctx)
	}()
	// Shutdown must wait for the in-flight flow, not cut it off.
	select {
	case err := <-shutdownErr:
		t.Fatalf("Shutdown returned (%v) while a flow was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight invoke dropped: %v", r.err)
	}
	if r.val != "42" {
		t.Errorf("Add = %s, want 42", r.val)
	}
	if err := <-shutdownErr; err != nil {
		t.Errorf("Shutdown = %v, want clean drain", err)
	}
	// The drained mediator no longer accepts sessions.
	if c, err := giop.Dial(med.Addr(), "calc"); err == nil {
		c.Close()
		t.Error("dial after Shutdown succeeded")
	}
}

// TestShutdownDeadlineAborts: when the drain deadline passes, Shutdown
// falls back to the abrupt path — the stuck session is cut off and the
// deadline error is reported.
func TestShutdownDeadlineAborts(t *testing.T) {
	med, entered, release := startGatedAddPlus(t)
	defer close(release) // unstick the service handler at cleanup
	got, _ := invokeAsync(t, med.Addr())
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if err := med.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	r := <-got
	if r.err == nil {
		t.Errorf("invoke survived a forced abort, got %q", r.val)
	}
}

// TestShutdownHarvestsIdleSession: a client holding its keep-alive
// connection open between flows does not block a graceful shutdown.
func TestShutdownHarvestsIdleSession(t *testing.T) {
	d := &faultyDialer{}
	med := startAddPlusWithDialer(t, d, nil)
	client, err := giop.Dial(med.Addr(), "calc")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Invoke("Add", giop.IntParam(1), giop.IntParam(2)); err != nil {
		t.Fatal(err)
	}
	// The client never closes; its session is parked between flows.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := med.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown = %v, idle session not harvested", err)
	}
	if err := med.Close(); err != nil {
		t.Errorf("Close after Shutdown = %v", err)
	}
}

// TestFaultEvictionCountsPoolEvictions: the PR-1 redial/replay recovery
// now runs through the pool — a broken connection is discarded (not
// checked back in) and shows up in the eviction counter.
func TestFaultEvictionCountsPoolEvictions(t *testing.T) {
	d := &faultyDialer{script: func(dial int, fc *network.FaultConn) {
		if dial == 0 {
			fc.ScriptRecv(network.Fault{}) // first reply lost
		}
	}}
	med := startAddPlusWithDialer(t, d, nil)
	client, err := giop.Dial(med.Addr(), "calc")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	results, err := client.Invoke("Add", giop.IntParam(20), giop.IntParam(22))
	if err != nil {
		t.Fatalf("flow did not survive recv fault: %v", err)
	}
	if results[0].ValueString() != "42" {
		t.Errorf("Add = %s", results[0].ValueString())
	}
	st := med.Snapshot().Stats
	if st.PoolDials != 2 {
		t.Errorf("PoolDials = %d, want 2 (original + redial)", st.PoolDials)
	}
	if st.PoolEvictions == 0 {
		t.Error("PoolEvictions = 0, want the faulted connection discarded")
	}
}

// TestRetryPolicyExplicit exercises the sentinel-free policy through
// the engine: zero Attempts means the first fault is final, and Attempts
// bounds recovery exactly.
func TestRetryPolicyExplicit(t *testing.T) {
	t.Run("attempts bound", func(t *testing.T) {
		d := &faultyDialer{script: func(dial int, fc *network.FaultConn) {
			fc.ScriptRecv(network.Fault{}) // every reply lost
		}}
		med := startAddPlusWithDialer(t, d, func(cfg *engine.Config) {
			cfg.Retry = &engine.RetryPolicy{Attempts: 1, Backoff: time.Millisecond}
		})
		client, err := giop.Dial(med.Addr(), "calc")
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		if _, err := client.Invoke("Add", giop.IntParam(1), giop.IntParam(2)); err == nil {
			t.Error("invoke succeeded with every reply faulted")
		}
		if got := d.dials(); got != 2 {
			t.Errorf("dials = %d, want 2 (original + one retry)", got)
		}
		if st := med.Snapshot().Stats; st.RetriesExhausted != 1 {
			t.Errorf("RetriesExhausted = %d, want 1", st.RetriesExhausted)
		}
	})
	t.Run("zero policy fails on first fault", func(t *testing.T) {
		d := &faultyDialer{script: func(dial int, fc *network.FaultConn) {
			fc.ScriptRecv(network.Fault{})
		}}
		med := startAddPlusWithDialer(t, d, func(cfg *engine.Config) {
			cfg.Retry = &engine.RetryPolicy{}
		})
		client, err := giop.Dial(med.Addr(), "calc")
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		if _, err := client.Invoke("Add", giop.IntParam(1), giop.IntParam(2)); err == nil {
			t.Error("invoke succeeded")
		}
		if got := d.dials(); got != 1 {
			t.Errorf("dials = %d, want 1: a zero policy must not redial", got)
		}
	})
}

// TestPoolConfigValidation: the new knobs reject nonsense values at
// construction, like the rest of Config.
func TestPoolConfigValidation(t *testing.T) {
	merged := casestudy.XMLRPCMediator()
	base := func() engine.Config {
		return engine.Config{
			Merged: merged,
			Sides: map[int]*engine.Side{
				1: {Binder: &bind.SOAPBinder{Path: "/x"}},
				2: {Binder: &bind.SOAPBinder{Path: "/y"}, Target: "127.0.0.1:1"},
			},
		}
	}
	cases := []struct {
		name  string
		tweak func(*engine.Config)
	}{
		{"negative pool size", func(c *engine.Config) { c.PoolSize = -1 }},
		{"negative retry attempts", func(c *engine.Config) { c.Retry = &engine.RetryPolicy{Attempts: -1} }},
		{"negative retry backoff", func(c *engine.Config) { c.Retry = &engine.RetryPolicy{Backoff: -time.Second} }},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base()
			tt.tweak(&cfg)
			if _, err := engine.New(cfg); !errors.Is(err, engine.ErrConfig) {
				t.Errorf("err = %v, want ErrConfig", err)
			}
		})
	}
	t.Run("valid knobs accepted", func(t *testing.T) {
		cfg := base()
		cfg.PoolSize = 4
		cfg.PoolIdle = -1 // negative PoolIdle is meaningful: keep-alive off
		cfg.Retry = &engine.RetryPolicy{Attempts: 3, Backoff: time.Millisecond}
		if _, err := engine.New(cfg); err != nil {
			t.Errorf("New = %v, want ok", err)
		}
	})
}

// TestSnapshotHistograms: after real flows, the latency histograms carry
// observations consistent with the counters.
func TestSnapshotHistograms(t *testing.T) {
	d := &faultyDialer{}
	med := startAddPlusWithDialer(t, d, nil)
	client, err := giop.Dial(med.Addr(), "calc")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const flows = 3
	for i := 0; i < flows; i++ {
		if _, err := client.Invoke("Add", giop.IntParam(int64(i)), giop.IntParam(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	snap := med.Snapshot()
	if snap.Stats.Flows != flows {
		t.Errorf("Flows = %d, want %d", snap.Stats.Flows, flows)
	}
	if snap.Exchanges.Count != flows {
		t.Errorf("Exchanges.Count = %d, want %d (one service round-trip per flow)", snap.Exchanges.Count, flows)
	}
	if snap.Transitions.Count == 0 {
		t.Error("Transitions.Count = 0, want per-transition observations")
	}
	if snap.Exchanges.Mean() <= 0 {
		t.Errorf("Exchanges.Mean() = %v, want > 0", snap.Exchanges.Mean())
	}
	if q := snap.Exchanges.Quantile(0.99); q < snap.Exchanges.Mean() {
		t.Errorf("p99 %v below mean %v", q, snap.Exchanges.Mean())
	}
}

// TestE12ConcurrentPoolSoakWithAdmin is experiment E12: the shared
// service-side pool under concurrent sessions and the graceful-drain
// lifecycle, with the observability subsystem attached. Two waves of
// parallel IIOP clients run through one instrumented mediator (flow
// tracer, flight recorder, admin endpoint), one deliberately bad request
// exercises the flight recorder, the admin routes are scraped over the
// wire, and the mediator is then retired with Shutdown rather than Close.
func TestE12ConcurrentPoolSoakWithAdmin(t *testing.T) {
	srv := startPlusService(t, nil)
	var obs *observe.Observer
	med := startAddPlus(t, srv.Addr(), func(cfg *engine.Config) {
		cfg.Retry = &engine.RetryPolicy{Attempts: 2, Backoff: 5 * time.Millisecond}
		obs = observe.Instrument(cfg, observe.Options{})
	})
	admin, err := observe.ServeAdmin("127.0.0.1:0", observe.AdminConfig{
		Registry: observe.MediatorRegistry(med, obs),
		Observer: obs,
		Mediator: med,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	const waves, perWave = 2, 8
	for wave := 0; wave < waves; wave++ {
		var wg sync.WaitGroup
		for i := 1; i <= perWave; i++ {
			wg.Add(1)
			go func(n int64) {
				defer wg.Done()
				client, err := giop.Dial(med.Addr(), "calc")
				if err != nil {
					t.Error(err)
					return
				}
				defer client.Close()
				results, err := client.Invoke("Add", giop.IntParam(n), giop.IntParam(n))
				if err != nil {
					t.Error(err)
				} else if got := results[0].ValueString(); got != strconv.FormatInt(2*n, 10) {
					t.Errorf("Add(%d,%d) = %s", n, n, got)
				}
			}(int64(i))
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		// Between waves every session has ended; the next wave's checkouts
		// must hit the idle pool instead of dialling.
		time.Sleep(20 * time.Millisecond)
	}

	// One deliberately bad request: Bogus parses as GIOP but is not an
	// action the automaton accepts, so the flow fails and the flight
	// recorder captures its wire image.
	bad, err := giop.Dial(med.Addr(), "calc")
	if err != nil {
		t.Fatal(err)
	}
	_, err = bad.Invoke("Bogus", giop.IntParam(1))
	bad.Close()
	if err == nil {
		t.Fatal("bogus invocation unexpectedly succeeded")
	}

	hc := &httpwire.Client{Addr: admin.Addr()}
	defer hc.Close()
	for target, want := range map[string]string{
		"/metrics":       "starlink_flows_total",
		"/flows":         "Bogus",
		"/automaton.dot": "digraph",
	} {
		resp, err := hc.Get(target)
		if err != nil {
			t.Fatalf("scrape %s: %v", target, err)
		}
		if !strings.Contains(string(resp.Body), want) {
			t.Errorf("%s does not show %q:\n%s", target, want, resp.Body)
		}
	}

	st := med.Snapshot().Stats
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := med.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	t.Logf("%d sessions, %d dial(s), %d pool hit(s); admin served metrics+flows+dot; drained",
		st.Sessions, st.PoolDials, st.PoolHits)
	if want := uint64(waves*perWave + 1); st.Sessions != want { // +1 for the injected-fault session
		t.Errorf("sessions = %d, want %d", st.Sessions, want)
	}
	if st.PoolDials >= st.Sessions {
		t.Errorf("pool dials = %d, not below sessions = %d", st.PoolDials, st.Sessions)
	}
	if st.PoolHits == 0 {
		t.Error("no pool hits: connections not reused across sessions")
	}
	if st.Failures != 1 {
		t.Errorf("failures = %d, want the 1 injected fault", st.Failures)
	}
	if obs.Recorder().Len() == 0 {
		t.Error("flight recorder is empty after the injected fault")
	}
}

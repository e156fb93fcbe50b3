package engine_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starlink/internal/bind"
	"starlink/internal/casestudy"
	"starlink/internal/engine"
	"starlink/internal/network"
	"starlink/internal/protocol/giop"
	"starlink/internal/protocol/xmlrpc"
	"starlink/internal/testutil"
)

// startStallAddPlus wires the Add->Plus mediator against a SOAP service
// whose Plus handler stalls for the given duration before answering —
// the slow-service scenario every flow-deadline test drives.
func startStallAddPlus(t *testing.T, stall time.Duration, tweak func(*engine.Config)) *engine.Mediator {
	t.Helper()
	srv := startPlusService(t, func() { time.Sleep(stall) })
	return startAddPlus(t, srv.Addr(), func(cfg *engine.Config) {
		cfg.ExchangeTimeout = 2 * time.Second
		cfg.Retry = &engine.RetryPolicy{Attempts: 3, Backoff: 5 * time.Millisecond}
		if tweak != nil {
			tweak(cfg)
		}
	})
}

// TestFlowDeadlineBoundsStalledService: a service stalling past the
// flow budget fails the flow at roughly the budget — not at
// attempts × ExchangeTimeout — and the exhaustion is typed and counted.
func TestFlowDeadlineBoundsStalledService(t *testing.T) {
	const budget = 250 * time.Millisecond
	med := startStallAddPlus(t, 2*time.Second, func(cfg *engine.Config) {
		cfg.FlowDeadline = budget
	})
	client, err := giop.Dial(med.Addr(), "calc")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	start := time.Now()
	if _, err := client.Invoke("Add", giop.IntParam(1), giop.IntParam(2)); err == nil {
		t.Fatal("invoke succeeded against a stalled service")
	}
	// Without budgets the flow would take (1+3 attempts) × 2s; with them
	// the first recv deadline is clamped to the budget and the retry
	// loop fails fast. Allow generous scheduler slack, but stay far
	// under a single ExchangeTimeout.
	if elapsed := time.Since(start); elapsed >= 1500*time.Millisecond {
		t.Errorf("flow failed after %v, want < 1.5s (budget %v + slack)", elapsed, budget)
	}
	st := med.Snapshot().Stats
	if st.DeadlineExceeded == 0 {
		t.Error("DeadlineExceeded = 0, want > 0")
	}
}

// TestFlowDeadlineBoundsDial: time spent dialling counts against the
// flow budget — a dialer slower than the budget fails the flow fast
// instead of adding its latency on top.
func TestFlowDeadlineBoundsDial(t *testing.T) {
	slowDial := func(sem network.Semantics, addr string, framer network.Framer) (network.Conn, error) {
		time.Sleep(600 * time.Millisecond)
		var eng network.Engine
		return eng.Dial(sem, addr, framer)
	}
	med := startStallAddPlus(t, 0, func(cfg *engine.Config) {
		cfg.FlowDeadline = 150 * time.Millisecond
		cfg.Sides[2].Dialer = slowDial
	})
	client, err := giop.Dial(med.Addr(), "calc")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	start := time.Now()
	if _, err := client.Invoke("Add", giop.IntParam(1), giop.IntParam(2)); err == nil {
		t.Fatal("invoke succeeded past a dial slower than the budget")
	}
	// One slow dial runs to completion (600ms), then the budget check
	// fails the flow: no second dial, no exchange-timeout stacking.
	if elapsed := time.Since(start); elapsed >= 2*600*time.Millisecond {
		t.Errorf("flow failed after %v, want < two dial rounds", elapsed)
	}
	st := med.Snapshot().Stats
	if st.DeadlineExceeded == 0 {
		t.Error("DeadlineExceeded = 0, want > 0")
	}
}

// TestFlowDeadlineBoundsPoolWait: a checkout blocked on the pool's
// MaxActive bound waits only as long as the flow budget allows; the
// abandoned wait surfaces as both a typed deadline failure and a pool
// WaitTimeouts count.
func TestFlowDeadlineBoundsPoolWait(t *testing.T) {
	const budget = 300 * time.Millisecond
	// The waiter's flow starts first and is held at its start until the
	// holder's flow has sent its request to the stalling service: a flow in
	// progress then pins the single pool slot past the end of the waiter's
	// budget, which began first.
	started, pinned := make(chan struct{}), make(chan struct{})
	var once sync.Once
	med := startStallAddPlus(t, 2*budget, func(cfg *engine.Config) {
		cfg.FlowDeadline = budget
		cfg.PoolSize = 1
		cfg.Trace = func(ev engine.TraceEvent) {
			switch {
			case ev.Session == 1 && ev.Kind == engine.TraceFlowStart:
				close(started)
				select {
				case <-pinned:
				case <-time.After(5 * time.Second):
				}
			case ev.Session == 2 && ev.Kind == engine.TraceTransition && ev.Color == 2:
				once.Do(func() { close(pinned) })
			}
		}
	})
	waiter, err := giop.Dial(med.Addr(), "calc")
	if err != nil {
		t.Fatal(err)
	}
	defer waiter.Close()
	start := time.Now()
	waited := make(chan error, 1)
	go func() {
		_, err := waiter.Invoke("Add", giop.IntParam(2), giop.IntParam(2))
		waited <- err
	}()
	<-started
	time.Sleep(budget / 6)
	holder, err := giop.Dial(med.Addr(), "calc")
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	held := make(chan struct{})
	go func() {
		defer close(held)
		holder.Invoke("Add", giop.IntParam(1), giop.IntParam(1)) // fails at its budget
	}()
	defer func() { <-held }()
	// The waiter's wait is clipped to its flow budget, far below the 10s
	// dial timeout that used to bound it.
	if err := <-waited; err == nil {
		t.Fatal("invoke succeeded with the pool slot held")
	}
	if elapsed := time.Since(start); elapsed >= 4*budget {
		t.Errorf("pool-blocked flow failed after %v, want ~%v", elapsed, budget)
	}
	st := med.Snapshot().Stats
	if st.PoolWaitTimeouts == 0 {
		t.Error("PoolWaitTimeouts = 0, want > 0")
	}
	if st.DeadlineExceeded == 0 {
		t.Error("DeadlineExceeded = 0, want > 0")
	}
}

// TestFlowDeadlineBoundsCoalescedWait: a cache follower's wait on the
// leader's in-flight exchange is clipped to its own flow budget, so a
// stalled leader cannot park followers past their deadlines.
func TestFlowDeadlineBoundsCoalescedWait(t *testing.T) {
	const budget = 400 * time.Millisecond
	med := startStallAddPlus(t, 2*time.Second, func(cfg *engine.Config) {
		cfg.FlowDeadline = budget
		cfg.ExchangeTimeout = 10 * time.Second
		cfg.Cache = &engine.CachePolicy{Rules: map[string]engine.CacheRule{
			"Plus": {TTL: time.Minute},
		}}
	})
	var wg sync.WaitGroup
	elapsed := make([]time.Duration, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client, err := giop.Dial(med.Addr(), "calc")
			if err != nil {
				t.Error(err)
				return
			}
			defer client.Close()
			if i == 1 {
				// Let the leader's exchange take off first.
				time.Sleep(50 * time.Millisecond)
			}
			start := time.Now()
			if _, err := client.Invoke("Add", giop.IntParam(3), giop.IntParam(4)); err == nil {
				t.Error("invoke succeeded against a stalled service")
			}
			elapsed[i] = time.Since(start)
		}(i)
	}
	wg.Wait()
	for i, e := range elapsed {
		if e >= 4*budget {
			t.Errorf("flow %d failed after %v, want bounded by ~%v", i, e, budget)
		}
	}
	if st := med.Snapshot().Stats; st.DeadlineExceeded == 0 {
		t.Error("DeadlineExceeded = 0, want > 0")
	}
}

// TestFlowBudgetOnTraces: trace events of a budgeted flow carry the
// remaining budget, so span trees show where the deadline went.
func TestFlowBudgetOnTraces(t *testing.T) {
	var mu sync.Mutex
	budgets := []time.Duration{}
	med := startStallAddPlus(t, 0, func(cfg *engine.Config) {
		cfg.FlowDeadline = 5 * time.Second
		cfg.Trace = func(ev engine.TraceEvent) {
			if ev.Kind == engine.TraceFlowEnd {
				mu.Lock()
				budgets = append(budgets, ev.Budget)
				mu.Unlock()
			}
		}
	})
	client, err := giop.Dial(med.Addr(), "calc")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Invoke("Add", giop.IntParam(20), giop.IntParam(22)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(budgets) != 1 {
		t.Fatalf("flow-end traces = %d, want 1", len(budgets))
	}
	if budgets[0] <= 0 || budgets[0] > 5*time.Second {
		t.Errorf("remaining budget at flow end = %v, want in (0, 5s]", budgets[0])
	}
	if errors.Is(nil, engine.ErrDeadline) {
		t.Error("nil must not match ErrDeadline")
	}
}

// TestE19FlowDeadlineStormSoak is experiment E19, the slow-service storm:
// churning clients hammer a mediator whose SOAP service stalls every
// exchange far past the per-flow budget, with retries armed and a
// generous exchange timeout. This is the stacked-timeout shape: without
// budgets every flow would burn attempts × ExchangeTimeout (plus backoff)
// before failing. With budgets every flow must fail within flow_deadline
// + ε, the exhaustion must be counted, and tearing the storm down must
// leave no goroutine parked on a dial, a pool wait or a backoff sleep.
func TestE19FlowDeadlineStormSoak(t *testing.T) {
	const (
		budget   = 250 * time.Millisecond
		stall    = time.Second
		exchange = 5 * time.Second
		clients  = 8
		flows    = 3
		// Generous scheduler/dial slack on top of the budget; still far
		// below one ExchangeTimeout, let alone the stacked bound.
		ceiling = budget + 750*time.Millisecond
	)
	// The storm is a subtest so that the fixture's cleanups have run, and
	// the service and the mediator are gone, before the leak check looks.
	testutil.NoLeaks(t, func() {
		t.Run("storm", func(t *testing.T) {
			med := startStallAddPlus(t, stall, func(cfg *engine.Config) {
				cfg.FlowDeadline = budget
				cfg.ExchangeTimeout = exchange
			})
			// Every flow is a fresh session, so the storm exercises dial,
			// checkout and exchange under budget on each iteration.
			var (
				wg      sync.WaitGroup
				mu      sync.Mutex
				slowest time.Duration
			)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for f := 0; f < flows; f++ {
						client, err := giop.Dial(med.Addr(), "calc")
						if err != nil {
							t.Errorf("client %d dial: %v", n, err)
							return
						}
						start := time.Now()
						_, err = client.Invoke("Add", giop.IntParam(20), giop.IntParam(22))
						elapsed := time.Since(start)
						client.Close()
						if err == nil {
							t.Errorf("client %d flow %d succeeded against a %v stall", n, f, stall)
						} else if elapsed > ceiling {
							t.Errorf("client %d flow %d took %v, want <= %v (budget %v + slack)", n, f, elapsed, ceiling, budget)
						}
						mu.Lock()
						slowest = max(slowest, elapsed)
						mu.Unlock()
					}
				}(c)
			}
			wg.Wait()
			st := med.Snapshot().Stats
			t.Logf("%d flows vs %v stall: slowest failure %v (budget %v, stacked bound %v), %d deadline exhaustions",
				clients*flows, stall, slowest.Round(time.Millisecond), budget, 4*exchange, st.DeadlineExceeded)
			if st.DeadlineExceeded == 0 {
				t.Errorf("DeadlineExceeded = 0 after %d budget-bounded failures", clients*flows)
			}
		})
	})
}

// waitStats polls the mediator's counters until done accepts them or a
// second has passed, and returns the last reading: a session notices its
// client is gone on its own goroutine.
func waitStats(med *engine.Mediator, done func(engine.Stats) bool) engine.Stats {
	deadline := time.Now().Add(time.Second)
	for {
		st := med.Snapshot().Stats
		if done(st) || time.Now().After(deadline) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMidFlowClientLossIsCounted: a Flickr client that reads the reply to
// the first of its four calls and hangs up has failed its flow, and says so:
// one failure, one client failure, one TraceError. Only a client gone
// between flows ends its session cleanly.
func TestMidFlowClientLossIsCounted(t *testing.T) {
	var traced atomic.Int64
	med, _ := startCaseStudy(t, casestudy.XMLRPCMediator(),
		&bind.XMLRPCBinder{Path: "/services/xmlrpc", Defs: casestudy.FlickrUsage().Messages},
		func(cfg *engine.Config) {
			cfg.Trace = func(ev engine.TraceEvent) {
				if ev.Kind == engine.TraceError {
					traced.Add(1)
				}
			}
		})
	c := xmlrpc.NewClient(med.Addr(), "/services/xmlrpc")
	if _, err := c.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{"text": "tree", "per_page": int64(1)}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	st := waitStats(med, func(st engine.Stats) bool { return st.Failures > 0 && traced.Load() > 0 })
	if st.Failures != 1 || st.ClientFailures != 1 || traced.Load() != 1 {
		t.Errorf("failures %d, client failures %d, error traces %d; want 1 each",
			st.Failures, st.ClientFailures, traced.Load())
	}
	if st.DeadlineExceeded != 0 {
		t.Errorf("DeadlineExceeded = %d for a client that hung up", st.DeadlineExceeded)
	}
}

// TestMidFlowClientStallExceedsDeadline: a client that stalls after its
// first call, past a 50 ms flow deadline, has spent the flow's budget: the
// mediator's read of its next call gives up at the deadline and counts it.
// It waits on Failures, which a failed flow publishes after its causes.
func TestMidFlowClientStallExceedsDeadline(t *testing.T) {
	med, _ := startCaseStudy(t, casestudy.XMLRPCMediator(),
		&bind.XMLRPCBinder{Path: "/services/xmlrpc", Defs: casestudy.FlickrUsage().Messages},
		func(cfg *engine.Config) { cfg.FlowDeadline = 50 * time.Millisecond })
	c := xmlrpc.NewClient(med.Addr(), "/services/xmlrpc")
	defer c.Close()
	if _, err := c.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{"text": "tree", "per_page": int64(1)}); err != nil {
		t.Fatal(err)
	}
	st := waitStats(med, func(st engine.Stats) bool { return st.Failures > 0 })
	if st.DeadlineExceeded != 1 || st.Failures != 1 || st.ClientFailures != 1 {
		t.Errorf("deadline exhaustions %d, failures %d, client failures %d; want 1 each",
			st.DeadlineExceeded, st.Failures, st.ClientFailures)
	}
}

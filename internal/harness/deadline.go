package harness

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"starlink/internal/engine"
	"starlink/internal/protocol/giop"
	"starlink/internal/protocol/soap"
	"starlink/internal/testutil"
)

// leakTB adapts testutil.NoLeaks to harness use: experiments are plain
// functions, so a leak failure lands in an error instead of a
// *testing.T.
type leakTB struct{ err error }

func (l *leakTB) Helper() {}

func (l *leakTB) Errorf(format string, args ...any) {
	if l.err == nil {
		l.err = fmt.Errorf(format, args...)
	}
}

// E19 is the slow-service storm soak for flow-deadline budgets: churning
// clients hammer a mediator whose SOAP service stalls every exchange far
// past the per-flow budget, with retries enabled and a generous exchange
// timeout. This is exactly the stacked-timeout shape — without budgets
// every flow would burn attempts × ExchangeTimeout (plus backoff) before
// failing. With budgets every flow must fail within flow_deadline + ε,
// the exhaustion must be counted, and tearing the storm down must leave
// no hung goroutines parked on dials, pool waits, or backoff sleeps.
func E19() Result {
	r := Result{ID: "E19", Artifact: "flow-deadline storm soak"}
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

	var (
		lt      leakTB
		slowest time.Duration
		total   int
		stats   engine.Stats
	)
	testutil.NoLeaks(&lt, func() {
		srv, err := soap.NewServer("127.0.0.1:0", "/soap", map[string]soap.Operation{
			"Plus": func(params []soap.Param) ([]soap.Param, *soap.Fault) {
				time.Sleep(stall)
				x, _ := strconv.Atoi(findParam(params, "x"))
				y, _ := strconv.Atoi(findParam(params, "y"))
				return []soap.Param{{Name: "result", Value: strconv.Itoa(x + y)}}, nil
			},
		})
		if err != nil {
			r.Err = err
			return
		}
		defer srv.Close()
		med, err := newAddMediator("127.0.0.1:0", srv.Addr(), func(cfg *engine.Config) {
			cfg.FlowDeadline = budget
			cfg.ExchangeTimeout = exchange
			cfg.Retry = &engine.RetryPolicy{Attempts: 3, Backoff: 5 * time.Millisecond}
		})
		if err != nil {
			r.Err = err
			return
		}
		defer med.Close()

		// Short-lived clients, as in E17: every flow is a fresh session, so
		// the storm exercises dial, checkout, and exchange under budget on
		// each iteration.
		var (
			wg    sync.WaitGroup
			mu    sync.Mutex
			first error
		)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for f := 0; f < flows; f++ {
					client, err := giop.Dial(med.Addr(), "calc")
					if err != nil {
						mu.Lock()
						if first == nil {
							first = fmt.Errorf("client %d dial: %w", n, err)
						}
						mu.Unlock()
						return
					}
					start := time.Now()
					_, err = client.Invoke("Add", giop.IntParam(20), giop.IntParam(22))
					elapsed := time.Since(start)
					client.Close()
					mu.Lock()
					total++
					if elapsed > slowest {
						slowest = elapsed
					}
					if first == nil {
						if err == nil {
							first = fmt.Errorf("client %d flow %d succeeded against a %v stall", n, f, stall)
						} else if elapsed > ceiling {
							first = fmt.Errorf("client %d flow %d took %v, want <= %v (budget %v + slack)",
								n, f, elapsed, ceiling, budget)
						}
					}
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		stats = med.Stats()
		if first != nil {
			r.Err = first
		}
	})
	if r.Err != nil {
		return r
	}
	if lt.err != nil {
		r.Err = fmt.Errorf("storm teardown leaked: %w", lt.err)
		return r
	}
	if stats.DeadlineExceeded == 0 {
		r.Err = fmt.Errorf("DeadlineExceeded = 0 after %d budget-bounded failures", total)
		return r
	}
	r.Detail = fmt.Sprintf("%d flows vs %v stall: slowest failure %v (budget %v, stacked bound %v), %d deadline exhaustions, no leaks",
		total, stall, slowest.Round(time.Millisecond), budget, 4*exchange, stats.DeadlineExceeded)
	return r
}

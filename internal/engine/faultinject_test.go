package engine_test

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"starlink/internal/engine"
	"starlink/internal/network"
	"starlink/internal/protocol/giop"
)

// faultyDialer wraps the real network dial so each service connection a
// session opens can be scripted with faults. Connections are recorded in
// dial order.
type faultyDialer struct {
	mu     sync.Mutex
	conns  []*network.FaultConn
	script func(dial int, fc *network.FaultConn)
}

func (d *faultyDialer) dial(sem network.Semantics, addr string, framer network.Framer) (network.Conn, error) {
	var eng network.Engine
	inner, err := eng.Dial(sem, addr, framer)
	if err != nil {
		return nil, err
	}
	fc := network.NewFaultConn(inner)
	d.mu.Lock()
	n := len(d.conns)
	d.conns = append(d.conns, fc)
	d.mu.Unlock()
	if d.script != nil {
		d.script(n, fc)
	}
	return fc, nil
}

func (d *faultyDialer) dials() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.conns)
}

// startAddPlusWithDialer wires the Fig. 7/8 Add->Plus mediator with an
// instrumented service-side dialer and fast retry timing.
func startAddPlusWithDialer(t *testing.T, d *faultyDialer, tweak func(*engine.Config)) *engine.Mediator {
	t.Helper()
	srv := startPlusService(t, nil)
	return startAddPlus(t, srv.Addr(), func(cfg *engine.Config) {
		cfg.Sides[2].Dialer = d.dial
		cfg.ExchangeTimeout = 2 * time.Second
		cfg.Retry = &engine.RetryPolicy{Attempts: engine.DefaultRetryAttempts, Backoff: time.Millisecond}
		if tweak != nil {
			tweak(cfg)
		}
	})
}

// TestServiceRecvFaultRecovered: the first service connection dies while
// the mediator waits for the reply. The session must evict it, redial,
// replay the request, and answer the client as if nothing happened.
func TestServiceRecvFaultRecovered(t *testing.T) {
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
	if got := d.dials(); got != 2 {
		t.Errorf("dials = %d, want 2 (original + redial)", got)
	}
	st := med.Snapshot().Stats
	if st.Redials != 1 || st.RetriesExhausted != 0 || st.Failures != 0 || st.ServiceFailures != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestServiceSendFaultRecovered: the cached connection breaks at send
// time (the classic poisoned keep-alive socket). The request must be
// retried on a fresh connection.
func TestServiceSendFaultRecovered(t *testing.T) {
	d := &faultyDialer{script: func(dial int, fc *network.FaultConn) {
		if dial == 0 {
			fc.ScriptSend(network.Fault{})
		}
	}}
	med := startAddPlusWithDialer(t, d, nil)
	client, err := giop.Dial(med.Addr(), "calc")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	results, err := client.Invoke("Add", giop.IntParam(1), giop.IntParam(2))
	if err != nil {
		t.Fatalf("flow did not survive send fault: %v", err)
	}
	if results[0].ValueString() != "3" {
		t.Errorf("Add = %s", results[0].ValueString())
	}
	st := med.Snapshot().Stats
	if st.Redials != 1 || st.Failures != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestRetriesExhaustedCounted: every connection fails, so the session
// must give up after the configured retries, fail exactly once, and
// count the exhaustion exactly once.
func TestRetriesExhaustedCounted(t *testing.T) {
	d := &faultyDialer{script: func(dial int, fc *network.FaultConn) {
		fc.ScriptSend(network.Fault{})
	}}
	med := startAddPlusWithDialer(t, d, func(cfg *engine.Config) {
		cfg.Retry = &engine.RetryPolicy{Attempts: 2, Backoff: time.Millisecond}
	})
	client, err := giop.Dial(med.Addr(), "calc")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Invoke("Add", giop.IntParam(1), giop.IntParam(2)); err == nil {
		t.Fatal("invoke succeeded against a permanently failing service")
	}
	st := med.Snapshot().Stats
	if st.RetriesExhausted != 1 {
		t.Errorf("RetriesExhausted = %d, want 1", st.RetriesExhausted)
	}
	if st.ServiceFailures != 1 {
		t.Errorf("ServiceFailures = %d, want 1", st.ServiceFailures)
	}
	if st.Failures != 1 {
		t.Errorf("Failures = %d, want 1", st.Failures)
	}
	if st.ClientFailures != 0 {
		t.Errorf("ClientFailures = %d, want 0", st.ClientFailures)
	}
	// 1 original dial + 2 retries.
	if got := d.dials(); got != 3 {
		t.Errorf("dials = %d, want 3", got)
	}
	if st.Redials != 2 {
		t.Errorf("Redials = %d, want 2", st.Redials)
	}
}

// TestRetryDisabled: Attempts 0 turns recovery off — the first
// transport fault fails the session.
func TestRetryDisabled(t *testing.T) {
	d := &faultyDialer{script: func(dial int, fc *network.FaultConn) {
		fc.ScriptSend(network.Fault{})
	}}
	med := startAddPlusWithDialer(t, d, func(cfg *engine.Config) {
		cfg.Retry = &engine.RetryPolicy{Attempts: 0}
	})
	client, err := giop.Dial(med.Addr(), "calc")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Invoke("Add", giop.IntParam(1), giop.IntParam(2)); err == nil {
		t.Fatal("invoke succeeded with retries disabled")
	}
	if got := d.dials(); got != 1 {
		t.Errorf("dials = %d, want 1 (no retries)", got)
	}
	if st := med.Snapshot().Stats; st.Redials != 0 {
		t.Errorf("Redials = %d, want 0", st.Redials)
	}
}

// TestRetryDelaySpacing: the jittered backoff still sleeps between
// attempts — the failed exchange runs all its retries and finishes
// within the sum of the per-attempt windows (base + 2*base) plus
// slack, never hanging or hot-looping.
func TestRetryDelaySpacing(t *testing.T) {
	d := &faultyDialer{script: func(dial int, fc *network.FaultConn) {
		fc.ScriptSend(network.Fault{})
	}}
	const base = 40 * time.Millisecond
	med := startAddPlusWithDialer(t, d, func(cfg *engine.Config) {
		cfg.Retry = &engine.RetryPolicy{Attempts: 2, Backoff: base}
	})
	client, err := giop.Dial(med.Addr(), "calc")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	start := time.Now()
	if _, err := client.Invoke("Add", giop.IntParam(1), giop.IntParam(2)); err == nil {
		t.Fatal("invoke succeeded")
	}
	// Full jitter draws each sleep from (0, base<<attempt], so only the
	// upper bound is deterministic: 40ms + 80ms plus scheduling slack.
	if elapsed := time.Since(start); elapsed > 3*base+2*time.Second {
		t.Errorf("failure after %v, want <= %v + slack", elapsed, 3*base)
	}
	if got := d.dials(); got != 3 {
		t.Errorf("dials = %d, want 3 (both retries ran)", got)
	}
}

// TestTraceHookObservesMediation: the Trace hook sees one transition event
// per executed step — its State the state entered, which no event of
// another kind repeats — and the fault-recovery redial, all stamped with the
// session id.
func TestTraceHookObservesMediation(t *testing.T) {
	var mu sync.Mutex
	var events []engine.TraceEvent
	d := &faultyDialer{script: func(dial int, fc *network.FaultConn) {
		if dial == 0 {
			fc.ScriptRecv(network.Fault{})
		}
	}}
	med := startAddPlusWithDialer(t, d, func(cfg *engine.Config) {
		cfg.Trace = func(ev engine.TraceEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
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
	kinds := map[engine.TraceKind]int{}
	entered := map[string]bool{}
	for _, ev := range events {
		kinds[ev.Kind]++
		if ev.Session != 1 {
			t.Errorf("event %+v: session = %d, want 1", ev, ev.Session)
		}
		if ev.Kind == engine.TraceTransition {
			if ev.State == "" || !strings.HasSuffix(ev.Transition, "->"+ev.State) {
				t.Errorf("transition %q entered state %q", ev.Transition, ev.State)
			}
			entered[ev.State] = true
		}
	}
	for _, ev := range events {
		if ev.Kind != engine.TraceTransition && entered[ev.State] {
			t.Errorf("%v event repeats state %q of a transition", ev.Kind, ev.State)
		}
	}
	if steps := med.Snapshot().Transitions.Count; steps == 0 || uint64(kinds[engine.TraceTransition]) != steps {
		t.Errorf("%d transition events for %d executed steps: %v", kinds[engine.TraceTransition], steps, kinds)
	}
	if kinds[engine.TraceRedial] != 1 {
		t.Errorf("redial events = %d, want 1", kinds[engine.TraceRedial])
	}
	if kinds[engine.TraceError] != 0 {
		t.Errorf("unexpected error events: %d", kinds[engine.TraceError])
	}
	// Kinds render for logs.
	for _, k := range []engine.TraceKind{engine.TraceTransition, engine.TraceRedial, engine.TraceError} {
		if k.String() == "" {
			t.Errorf("empty TraceKind string for %d", int(k))
		}
	}
}

// TestProtocolErrorNotRetried: a service answering garbage (an
// unparseable frame would be a protocol error, not a transport fault)
// must not trigger redial storms. Simulated by injecting a non-transport
// error at recv time.
func TestProtocolErrorNotRetried(t *testing.T) {
	protoErr := errors.New("malformed reply")
	d := &faultyDialer{script: func(dial int, fc *network.FaultConn) {
		fc.ScriptRecv(network.Fault{Err: protoErr})
	}}
	med := startAddPlusWithDialer(t, d, nil)
	client, err := giop.Dial(med.Addr(), "calc")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Invoke("Add", giop.IntParam(1), giop.IntParam(2)); err == nil {
		t.Fatal("invoke succeeded past a protocol error")
	}
	if got := d.dials(); got != 1 {
		t.Errorf("dials = %d, want 1 (protocol errors are not retried)", got)
	}
	st := med.Snapshot().Stats
	if st.Redials != 0 || st.RetriesExhausted != 0 {
		t.Errorf("stats = %+v, want no retry activity", st)
	}
	if st.ServiceFailures != 1 {
		t.Errorf("ServiceFailures = %d, want 1", st.ServiceFailures)
	}
}

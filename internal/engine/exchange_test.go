package engine_test

import (
	"errors"
	"io"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"starlink/internal/engine"
	"starlink/internal/network"
	"starlink/internal/protocol/giop"
)

// stopConn is a service connection whose next Send (or Recv) first tears
// the mediator down and waits until the teardown has reached this
// connection — by which point the mediator is marked stopping — so the
// operation then fails on a closed socket, deterministically mid-exchange.
type stopConn struct {
	network.Conn
	stop         func()
	onSend       bool
	once, reach  sync.Once
	reachedClose chan struct{}
}

func (c *stopConn) trigger() {
	c.once.Do(func() {
		go c.stop()
		<-c.reachedClose
	})
}

func (c *stopConn) Send(data []byte) error {
	if c.onSend {
		c.trigger()
	}
	return c.Conn.Send(data)
}

// RecvAppend is how the engine reads a service reply: into its receive
// buffer.
func (c *stopConn) RecvAppend(dst []byte) ([]byte, error) {
	if !c.onSend {
		c.trigger()
	}
	return c.Conn.RecvAppend(dst)
}

// Close closes the socket before it says so: signalled first, the waiting
// Send could win the race to a still-open socket and the exchange succeed.
func (c *stopConn) Close() error {
	err := c.Conn.Close()
	c.reach.Do(func() { close(c.reachedClose) })
	return err
}

// TestExchangePhasesAccountAlike pins the single retry loop: whichever
// phase of a service exchange a fault strikes in — while the request is
// being sent, or while it is being replayed on a fresh connection to get
// the lost reply — the same counters move and the flow fails with the
// same class of error (the session error below is what the client's
// protocol fault carries as its text).
//
// The "dial fails, not a transport error" row is the one the two former
// loops disagreed on: a checkout failure of a non-transport class was
// retried and counted in RetriesExhausted while sending, but final and
// uncounted while replaying. The single loop takes the send rule.
func TestExchangePhasesAccountAlike(t *testing.T) {
	// A genuine ECONNREFUSED: dial a port that was just closed.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closedAddr := l.Addr().String()
	l.Close()
	refuse := func(sem network.Semantics, framer network.Framer) error {
		_, err := network.Engine{}.Dial(sem, closedAddr, framer)
		return err
	}
	errNoRoute := errors.New("no route configured")
	is := func(target error) func(error) bool {
		return func(err error) bool { return errors.Is(err, target) }
	}

	type want struct {
		redials, exhausted, serviceFailures, deadline uint64
		class                                         func(error) bool
	}
	// Each case scripts dial n of the flow for the given phase. In the
	// send phase every attempt meets the fault; in the receive phase the
	// first connection carries the request, loses the reply to a plain
	// transport fault, and the fault meets the replay attempts.
	cases := []struct {
		name   string
		tweak  func(cfg *engine.Config)
		dial   func(recvPhase bool, n int, fc *network.FaultConn) error
		stops  bool
		expect want
	}{
		{
			name: "dial refused",
			dial: func(recvPhase bool, n int, fc *network.FaultConn) error {
				if recvPhase && n == 0 {
					fc.ScriptRecv(network.Fault{})
					return nil
				}
				return refuse(network.Semantics{}, network.HTTPFramer{})
			},
			expect: want{0, 1, 1, 0, is(syscall.ECONNREFUSED)},
		},
		{
			name: "dial fails, not a transport error",
			dial: func(recvPhase bool, n int, fc *network.FaultConn) error {
				if recvPhase && n == 0 {
					fc.ScriptRecv(network.Fault{})
					return nil
				}
				return errNoRoute
			},
			expect: want{0, 1, 1, 0, is(errNoRoute)},
		},
		{
			name: "send reset",
			dial: func(recvPhase bool, n int, fc *network.FaultConn) error {
				if recvPhase && n == 0 {
					fc.ScriptRecv(network.Fault{Err: io.ErrUnexpectedEOF})
				} else {
					fc.ScriptSend(network.Fault{})
				}
				return nil
			},
			expect: want{2, 1, 1, 0, is(network.ErrInjected)},
		},
		{
			name: "peer closed (EOF)",
			dial: func(recvPhase bool, n int, fc *network.FaultConn) error {
				if recvPhase {
					fc.ScriptRecv(network.Fault{Err: io.EOF})
				} else {
					fc.ScriptSend(network.Fault{Err: io.EOF})
				}
				return nil
			},
			expect: want{2, 1, 1, 0, is(io.EOF)},
		},
		{
			name:   "mediator stopping",
			stops:  true,
			dial:   func(bool, int, *network.FaultConn) error { return nil },
			expect: want{0, 1, 1, 0, network.IsTransportError},
		},
		{
			name:  "budget gone",
			tweak: func(cfg *engine.Config) { cfg.FlowDeadline = 100 * time.Millisecond },
			dial: func(recvPhase bool, n int, fc *network.FaultConn) error {
				slow := network.Fault{Delay: 150 * time.Millisecond}
				if recvPhase {
					fc.ScriptRecv(slow)
				} else {
					fc.ScriptSend(slow)
				}
				return nil
			},
			expect: want{0, 0, 1, 1, is(engine.ErrDeadline)},
		},
	}
	for _, tt := range cases {
		for _, recvPhase := range []bool{false, true} {
			phase := "while sending"
			if recvPhase {
				phase = "while replaying for the reply"
			}
			t.Run(tt.name+"/"+phase, func(t *testing.T) {
				var (
					mu      sync.Mutex
					dials   int
					flowErr error
					med     *engine.Mediator
					stopped = make(chan struct{}) // closed when a stopConn's Close of the mediator returns
				)
				dial := func(sem network.Semantics, addr string, framer network.Framer) (network.Conn, error) {
					inner, err := network.Engine{}.Dial(sem, addr, framer)
					if err != nil {
						return nil, err
					}
					fc := network.NewFaultConn(inner)
					mu.Lock()
					n := dials
					dials++
					mu.Unlock()
					if err := tt.dial(recvPhase, n, fc); err != nil {
						fc.Close()
						return nil, err
					}
					if tt.stops {
						return &stopConn{Conn: fc, onSend: !recvPhase, reachedClose: make(chan struct{}),
							stop: func() {
								mu.Lock()
								m := med
								mu.Unlock()
								m.Close()
								close(stopped)
							}}, nil
					}
					return fc, nil
				}
				m := startAddPlusWithDialer(t, &faultyDialer{}, func(cfg *engine.Config) {
					cfg.Sides[2].Dialer = dial
					cfg.Retry = &engine.RetryPolicy{Attempts: 2, Backoff: time.Millisecond}
					cfg.Trace = func(ev engine.TraceEvent) {
						if ev.Kind == engine.TraceError {
							mu.Lock()
							flowErr = ev.Err
							mu.Unlock()
						}
					}
					if tt.tweak != nil {
						tt.tweak(cfg)
					}
				})
				mu.Lock()
				med = m
				mu.Unlock()
				client, err := giop.Dial(m.Addr(), "calc")
				if err != nil {
					t.Fatal(err)
				}
				defer client.Close()
				if _, err := client.Invoke("Add", giop.IntParam(1), giop.IntParam(2)); err == nil {
					t.Fatal("invoke succeeded through a service that never answers")
				}
				// Close waits for the session, so every counter is final.
				if tt.stops {
					<-stopped
				} else {
					m.Close()
				}
				st := m.Snapshot().Stats
				got := want{st.Redials, st.RetriesExhausted, st.ServiceFailures, st.DeadlineExceeded, nil}
				exp := tt.expect
				if got.redials != exp.redials || got.exhausted != exp.exhausted ||
					got.serviceFailures != exp.serviceFailures || got.deadline != exp.deadline {
					t.Errorf("Redials/RetriesExhausted/ServiceFailures/DeadlineExceeded = %d/%d/%d/%d, want %d/%d/%d/%d",
						got.redials, got.exhausted, got.serviceFailures, got.deadline,
						exp.redials, exp.exhausted, exp.serviceFailures, exp.deadline)
				}
				if st.Failures != 1 {
					t.Errorf("Failures = %d, want 1", st.Failures)
				}
				mu.Lock()
				defer mu.Unlock()
				if flowErr == nil || !exp.class(flowErr) {
					t.Errorf("flow failed with %v, which is not of the expected class", flowErr)
				}
			})
		}
	}
}

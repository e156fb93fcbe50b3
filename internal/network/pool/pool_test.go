package pool

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starlink/internal/network"
)

// fakeConn is a no-op network.Conn that records whether it was closed.
type fakeConn struct {
	id     int
	closed atomic.Bool
}

var _ network.Conn = (*fakeConn)(nil)

func (f *fakeConn) Send([]byte) error                     { return nil }
func (f *fakeConn) Recv() ([]byte, error)                 { return nil, nil }
func (f *fakeConn) RecvAppend(dst []byte) ([]byte, error) { return dst, nil }
func (f *fakeConn) SetDeadline(time.Time) error           { return nil }
func (f *fakeConn) RemoteAddr() net.Addr                  { return nil }
func (f *fakeConn) Close() error                          { f.closed.Store(true); return nil }

// dialer hands out fakeConns and counts dials.
type dialer struct {
	mu    sync.Mutex
	conns []*fakeConn
	err   error
}

func (d *dialer) dial(context.Context, Key) (network.Conn, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return nil, d.err
	}
	c := &fakeConn{id: len(d.conns)}
	d.conns = append(d.conns, c)
	return c, nil
}

func (d *dialer) dials() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.conns)
}

func newTestPool(t *testing.T, opts Options) (*Pool, *dialer) {
	t.Helper()
	d := &dialer{}
	if opts.Dial == nil {
		opts.Dial = d.dial
	}
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p, d
}

var testKey = Key{Color: 2, Addr: "svc:1"}

func TestCheckoutReusesCheckedInConn(t *testing.T) {
	p, d := newTestPool(t, Options{})
	ctx := context.Background()
	c1, err := p.Get(ctx, testKey)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(testKey, c1)
	c2, err := p.Get(ctx, testKey)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("checkin not reused")
	}
	if d.dials() != 1 {
		t.Errorf("dials = %d, want 1", d.dials())
	}
	st := p.Stats()
	if st.Hits != 1 || st.Dials != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 dial", st)
	}
	// A different key never sees another key's connections.
	other := Key{Color: 2, Addr: "svc:2"}
	p.Put(testKey, c2)
	c3, err := p.Get(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	if c3 == c2 {
		t.Error("keys share connections")
	}
}

func TestConcurrentCheckoutCheckin(t *testing.T) {
	p, d := newTestPool(t, Options{MaxActive: 8})
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c, err := p.Get(ctx, testKey)
				if err != nil {
					errs <- err
					return
				}
				if i%7 == 0 {
					p.Discard(testKey, c)
				} else {
					p.Put(testKey, c)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Active > 8 {
		t.Errorf("active = %d, exceeds MaxActive 8", st.Active)
	}
	if d.dials() < 1 {
		t.Error("no dials recorded")
	}
	if st.Hits == 0 {
		t.Error("no reuse under contention")
	}
}

// TestExhaustionBlocksUntilCheckin: with the key at its bound, Get must
// block — and complete once another holder checks in.
func TestExhaustionBlocksUntilCheckin(t *testing.T) {
	p, _ := newTestPool(t, Options{MaxActive: 1})
	ctx := context.Background()
	held, err := p.Get(ctx, testKey)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan network.Conn, 1)
	go func() {
		c, err := p.Get(ctx, testKey)
		if err != nil {
			t.Error(err)
		}
		got <- c
	}()
	select {
	case <-got:
		t.Fatal("checkout succeeded past MaxActive")
	case <-time.After(50 * time.Millisecond):
	}
	p.Put(testKey, held)
	select {
	case c := <-got:
		if c != held {
			t.Error("waiter did not receive the checked-in conn")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never woke after checkin")
	}
}

// TestExhaustionContextError: a bounded wait fails with the typed
// ErrWaitTimeout — still carrying the context's error — instead of
// blocking forever, and the abandonment is counted.
func TestExhaustionContextError(t *testing.T) {
	p, _ := newTestPool(t, Options{MaxActive: 1})
	if _, err := p.Get(context.Background(), testKey); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := p.Get(ctx, testKey)
	if !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("err = %v, want ErrWaitTimeout", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded preserved", err)
	}
	if st := p.Stats(); st.WaitTimeouts != 1 {
		t.Errorf("WaitTimeouts = %d, want 1", st.WaitTimeouts)
	}
}

// TestDialSeesCheckoutContext: the checkout's context — carrying the
// caller's deadline — reaches the Dial hook, so dial time can be
// bounded by the flow budget instead of an independent clock.
func TestDialSeesCheckoutContext(t *testing.T) {
	var sawDeadline atomic.Bool
	d := &dialer{}
	opts := Options{Dial: func(ctx context.Context, key Key) (network.Conn, error) {
		if _, ok := ctx.Deadline(); ok {
			sawDeadline.Store(true)
		}
		return d.dial(ctx, key)
	}}
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := p.Get(ctx, testKey); err != nil {
		t.Fatal(err)
	}
	if !sawDeadline.Load() {
		t.Error("Dial hook never saw the checkout deadline")
	}
}

func TestIdleReaping(t *testing.T) {
	p, d := newTestPool(t, Options{IdleTimeout: 30 * time.Millisecond})
	c, err := p.Get(context.Background(), testKey)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(testKey, c)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if st := p.Stats(); st.Expired == 1 && st.Idle == 0 && st.Active == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := p.Stats(); st.Expired != 1 || st.Idle != 0 || st.Active != 0 {
		t.Fatalf("stats after reap window = %+v", st)
	}
	if !d.conns[0].closed.Load() {
		t.Error("reaped conn not closed")
	}
	// The next checkout dials fresh.
	if _, err := p.Get(context.Background(), testKey); err != nil {
		t.Fatal(err)
	}
	if d.dials() != 2 {
		t.Errorf("dials = %d, want 2", d.dials())
	}
}

// TestExpiredVettedAtCheckout: even before the reaper runs, a checkout
// never hands out a connection past its idle deadline.
func TestExpiredVettedAtCheckout(t *testing.T) {
	p, d := newTestPool(t, Options{IdleTimeout: 20 * time.Millisecond})
	c, err := p.Get(context.Background(), testKey)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(testKey, c)
	time.Sleep(30 * time.Millisecond)
	c2, err := p.Get(context.Background(), testKey)
	if err != nil {
		t.Fatal(err)
	}
	if c2 == c && !d.conns[0].closed.Load() {
		t.Error("stale idle conn handed out")
	}
}

func TestFlushDrainsIdle(t *testing.T) {
	p, d := newTestPool(t, Options{})
	ctx := context.Background()
	c1, _ := p.Get(ctx, testKey)
	c2, _ := p.Get(ctx, testKey)
	p.Put(testKey, c1)
	p.Put(testKey, c2)
	p.Flush(testKey)
	st := p.Stats()
	if st.Idle != 0 || st.Active != 0 || st.Discarded != 2 {
		t.Errorf("stats after flush = %+v", st)
	}
	for i, c := range d.conns {
		if !c.closed.Load() {
			t.Errorf("conn %d not closed by flush", i)
		}
	}
}

func TestDiscardFreesSlotForWaiter(t *testing.T) {
	p, d := newTestPool(t, Options{MaxActive: 1})
	ctx := context.Background()
	held, _ := p.Get(ctx, testKey)
	got := make(chan error, 1)
	go func() {
		_, err := p.Get(ctx, testKey)
		got <- err
	}()
	time.Sleep(20 * time.Millisecond)
	p.Discard(testKey, held)
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never woke after discard")
	}
	if d.dials() != 2 {
		t.Errorf("dials = %d, want 2 (discard forces a fresh dial)", d.dials())
	}
	if !d.conns[0].closed.Load() {
		t.Error("discarded conn not closed")
	}
}

func TestCloseFailsCheckoutsAndClosesIdle(t *testing.T) {
	d := &dialer{}
	p, err := New(Options{Dial: d.dial})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c1, _ := p.Get(ctx, testKey)
	out, _ := p.Get(ctx, testKey)
	p.Put(testKey, c1)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if !d.conns[0].closed.Load() {
		t.Error("idle conn not closed by Close")
	}
	if _, err := p.Get(ctx, testKey); !errors.Is(err, ErrClosed) {
		t.Errorf("Get after Close = %v, want ErrClosed", err)
	}
	// A checked-out conn returned after Close is closed, not parked.
	p.Put(testKey, out)
	if !d.conns[1].closed.Load() {
		t.Error("post-Close checkin not closed")
	}
	// Close is idempotent.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseWakesBlockedCheckout(t *testing.T) {
	d := &dialer{}
	p, err := New(Options{Dial: d.dial, MaxActive: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := p.Get(ctx, testKey); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := p.Get(ctx, testKey)
		got <- err
	}()
	time.Sleep(20 * time.Millisecond)
	p.Close()
	select {
	case err := <-got:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("blocked Get after Close = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked checkout never woke on Close")
	}
}

func TestDialErrorFreesSlot(t *testing.T) {
	d := &dialer{err: errors.New("refused")}
	p, err := New(Options{Dial: d.dial, MaxActive: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	ctx := context.Background()
	if _, err := p.Get(ctx, testKey); err == nil {
		t.Fatal("dial error not propagated")
	}
	// The failed dial must not leak the capacity slot.
	d.mu.Lock()
	d.err = nil
	d.mu.Unlock()
	if _, err := p.Get(ctx, testKey); err != nil {
		t.Fatalf("slot leaked by failed dial: %v", err)
	}
}

func TestOptionValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("New accepted a nil Dial")
	}
	d := &dialer{}
	if _, err := New(Options{Dial: d.dial, MaxActive: -1}); err == nil {
		t.Error("New accepted a negative MaxActive")
	}
	// A negative IdleTimeout keeps no idle connection: reuse is off.
	p, err := New(Options{Dial: d.dial, IdleTimeout: -time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	c, err := p.Get(context.Background(), testKey)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(testKey, c)
	if st := p.Stats(); st.Idle != 0 || st.Overflow != 1 {
		t.Errorf("stats = %+v, want nothing kept idle", st)
	}
}

func TestStatsPerKeyOccupancy(t *testing.T) {
	p, _ := newTestPool(t, Options{MaxActive: 1})
	ctx := context.Background()
	other := Key{Color: 3, Addr: "svc:9"}

	held, err := p.Get(ctx, testKey)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := p.Get(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(other, idle)

	// Block a second checkout of testKey on the MaxActive=1 bound so the
	// snapshot sees a waiter.
	waiting := make(chan struct{})
	go func() {
		close(waiting)
		c, err := p.Get(ctx, testKey)
		if err == nil {
			p.Put(testKey, c)
		}
	}()
	<-waiting
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Waiters == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never showed up in Stats")
		}
		time.Sleep(time.Millisecond)
	}

	st := p.Stats()
	if got := st.PerKey[testKey]; got != (KeyStats{Idle: 0, InFlight: 1, Waiters: 1}) {
		t.Errorf("PerKey[%v] = %+v, want 1 in-flight / 1 waiter", testKey, got)
	}
	if got := st.PerKey[other]; got != (KeyStats{Idle: 1, InFlight: 0, Waiters: 0}) {
		t.Errorf("PerKey[%v] = %+v, want 1 idle", other, got)
	}
	if st.Waiters != 1 {
		t.Errorf("Waiters = %d, want 1", st.Waiters)
	}
	p.Put(testKey, held)
}

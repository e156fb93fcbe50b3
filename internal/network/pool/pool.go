// Package pool is the mediator's shared service-side connection pool.
// The paper deploys mediators as long-lived network components (Fig. 6)
// that stand between every client of one application and the service of
// the other; related work on mediating connectors treats the connector
// as shared infrastructure whose resource management is decoupled from
// any single interaction. This pool is that decoupling: sessions check
// service connections out for the duration of a flow sequence and check
// them back in when they finish, so N concurrent client sessions no
// longer cost N dials per service.
//
// Connections are pooled per Key — a (color, resolved address) pair — so
// an MTL sethost retarget is just a change of key: the old connection
// returns to the pool for whichever session next talks to the old
// address, instead of being torn down.
//
// The pool is bounded (MaxActive per key), keeps idle connections warm,
// reaps them after IdleTimeout, and vets each checkout against the idle
// deadline. Replica health is not the pool's: internal/backend probes the
// replicas and flushes a sick one's idle connections. Callers that
// observe a transport fault return the connection with Discard (and may
// Flush the key's remaining idle connections, which were dialled to the
// same dead endpoint).
package pool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"starlink/internal/network"
)

// ErrClosed is returned by Get after Close.
var ErrClosed = errors.New("pool: closed")

// ErrWaitTimeout is wrapped by Get's error when a checkout blocked on
// the MaxActive bound was abandoned because its context expired (the
// caller's dial timeout or flow deadline budget ran out) before any
// connection was checked back in. errors.Is(err, ErrWaitTimeout)
// detects it; Stats.WaitTimeouts counts it.
var ErrWaitTimeout = errors.New("pool: checkout wait timed out")

// Defaults applied when Options leave the knobs zero.
const (
	// DefaultMaxActive caps connections per key (checked out + idle).
	DefaultMaxActive = 128
	// DefaultIdleTimeout is how long an idle connection stays warm.
	DefaultIdleTimeout = 90 * time.Second
)

// Key identifies one pooled destination: an automaton color and the
// resolved service address it currently maps to.
type Key struct {
	// Color is the client-role color the connection serves.
	Color int
	// Addr is the resolved service address (after hostmap/sethost).
	Addr string
}

// String renders the key for error messages.
func (k Key) String() string { return fmt.Sprintf("color %d @ %s", k.Color, k.Addr) }

// Options configure a Pool.
type Options struct {
	// Dial opens a new connection for a key. Required. The context is
	// the checkout's — it carries the caller's deadline (dial timeout
	// clipped to the flow budget), so implementations should bound the
	// dial by it rather than by an independent timeout.
	Dial func(ctx context.Context, key Key) (network.Conn, error)
	// MaxActive caps the connections alive per key, checked out plus
	// idle; a checkout beyond the cap blocks until a connection is
	// checked in or the Get context expires. 0 means DefaultMaxActive.
	MaxActive int
	// IdleTimeout bounds how long an idle connection may wait for reuse
	// before the reaper (or a checkout vet) closes it. 0 means
	// DefaultIdleTimeout; a negative value keeps none, disabling reuse: a
	// checkin nobody waits for is closed.
	IdleTimeout time.Duration
}

// Stats are a pool's lifetime counters plus its current occupancy.
type Stats struct {
	// Hits counts checkouts served by an idle connection.
	Hits uint64
	// Dials counts checkouts that opened a fresh connection.
	Dials uint64
	// Expired counts idle connections closed by IdleTimeout.
	Expired uint64
	// Overflow counts checkins closed because the pool keeps no idle
	// connection (a negative IdleTimeout).
	Overflow uint64
	// Discarded counts connections reported broken via Discard/Flush.
	Discarded uint64
	// WaitTimeouts counts checkouts abandoned while blocked on the
	// MaxActive bound (context expired before a checkin woke them).
	WaitTimeouts uint64
	// Active is the current number of live connections (all keys).
	Active int
	// Idle is the current number of idle connections (all keys).
	Idle int
	// Waiters is the current number of checkouts blocked on the
	// MaxActive bound (all keys).
	Waiters int
	// PerKey is the current occupancy of every key the pool has seen.
	PerKey map[Key]KeyStats
}

// KeyStats is one key's point-in-time occupancy.
type KeyStats struct {
	// Idle is the number of connections parked for reuse.
	Idle int
	// InFlight is the number of connections checked out to sessions
	// (the key's live total minus its idle count).
	InFlight int
	// Waiters is the number of checkouts blocked on the MaxActive bound.
	Waiters int
}

// Evictions sums every way a pooled connection was closed early.
func (s Stats) Evictions() uint64 { return s.Expired + s.Overflow + s.Discarded }

// idleConn is one parked connection with its checkin time.
type idleConn struct {
	conn  network.Conn
	since time.Time
}

// bucket is the per-key state: parked connections (LIFO, so the most
// recently used — least likely to be stale — is reused first), the live
// count the MaxActive bound applies to, and the checkouts blocked on it.
type bucket struct {
	idle    []idleConn
	total   int
	waiters []chan struct{}
}

// Pool is a bounded, keyed connection pool. All methods are safe for
// concurrent use.
type Pool struct {
	opts Options
	// keepNone is a negative Options.IdleTimeout: nothing is parked, and
	// opts.IdleTimeout reverts to the default, which then only paces the
	// reaper.
	keepNone bool

	hits, dials         atomic.Uint64
	expired             atomic.Uint64
	overflow, discarded atomic.Uint64
	waitTimeouts        atomic.Uint64

	mu     sync.Mutex
	keys   map[Key]*bucket
	closed bool

	stop chan struct{}
	done chan struct{}
}

// New validates the options, fills in defaults, and starts the idle
// reaper. The caller must Close the pool to stop the reaper.
func New(opts Options) (*Pool, error) {
	if opts.Dial == nil {
		return nil, errors.New("pool: Options.Dial is required")
	}
	if opts.MaxActive < 0 {
		return nil, fmt.Errorf("pool: negative MaxActive %d", opts.MaxActive)
	}
	if opts.MaxActive == 0 {
		opts.MaxActive = DefaultMaxActive
	}
	keepNone := opts.IdleTimeout < 0
	if opts.IdleTimeout <= 0 {
		opts.IdleTimeout = DefaultIdleTimeout
	}
	p := &Pool{
		opts:     opts,
		keepNone: keepNone,
		keys:     make(map[Key]*bucket),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go p.reap()
	return p, nil
}

// bucketLocked returns (creating lazily) the bucket of a key. Caller
// holds p.mu.
func (p *Pool) bucketLocked(key Key) *bucket {
	b := p.keys[key]
	if b == nil {
		b = &bucket{}
		p.keys[key] = b
	}
	return b
}

// Get checks a connection out for key: the freshest unexpired idle
// connection when one is parked, a new dial while the key is under its
// MaxActive bound, and otherwise it blocks until a connection is checked
// in or ctx's deadline passes. The caller owns the connection until it
// calls Put (still usable) or Discard (broken). It is GetUntil at ctx's
// deadline.
func (p *Pool) Get(ctx context.Context, key Key) (network.Conn, error) {
	deadline, _ := ctx.Deadline()
	return p.GetUntil(deadline, key)
}

// GetUntil is Get bounded by a deadline, the zero deadline none. Only a
// dial or a wait gets a context, which expires at the deadline: taking an
// idle connection makes no context and no timer.
func (p *Pool) GetUntil(deadline time.Time, key Key) (network.Conn, error) {
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, ErrClosed
		}
		b := p.bucketLocked(key)
		if n := len(b.idle); n > 0 {
			ic := b.idle[n-1]
			b.idle = b.idle[:n-1]
			p.mu.Unlock()
			if !p.vet(ic) {
				p.release(key)
				continue
			}
			p.hits.Add(1)
			return ic.conn, nil
		}
		if b.total < p.opts.MaxActive {
			b.total++
			p.mu.Unlock()
			ctx, cancel := until(deadline)
			conn, err := p.opts.Dial(ctx, key)
			cancel()
			if err != nil {
				p.release(key)
				return nil, err
			}
			p.dials.Add(1)
			return conn, nil
		}
		w := make(chan struct{}, 1)
		b.waiters = append(b.waiters, w)
		p.mu.Unlock()
		ctx, cancel := until(deadline)
		select {
		case <-w:
			// A slot or an idle connection freed up; contend for it.
			cancel()
		case <-ctx.Done():
			cancel()
			p.abandon(key, w)
			p.waitTimeouts.Add(1)
			return nil, fmt.Errorf("%w (%v): %w", ErrWaitTimeout, key, ctx.Err())
		}
	}
}

// until is a context that expires at deadline, or never for the zero one.
func until(deadline time.Time) (context.Context, context.CancelFunc) {
	if deadline.IsZero() {
		return context.Background(), func() {}
	}
	return context.WithDeadline(context.Background(), deadline)
}

// vet decides whether a just-unparked idle connection is still worth
// handing out, closing it when it outlived IdleTimeout.
func (p *Pool) vet(ic idleConn) bool {
	if time.Since(ic.since) > p.opts.IdleTimeout {
		p.expired.Add(1)
		ic.conn.Close()
		return false
	}
	return true
}

// release returns a key's capacity slot after its connection died (a
// failed dial, a vetted-out idle connection, a Discard) and wakes one
// blocked checkout.
func (p *Pool) release(key Key) {
	p.mu.Lock()
	if b, ok := p.keys[key]; ok && !p.closed {
		b.total--
		p.wakeLocked(b)
	}
	p.mu.Unlock()
}

// wakeLocked hands a freed slot/connection to the oldest live waiter.
// Caller holds p.mu.
func (p *Pool) wakeLocked(b *bucket) {
	for len(b.waiters) > 0 {
		w := b.waiters[0]
		b.waiters = b.waiters[1:]
		select {
		case w <- struct{}{}:
			return
		default:
			// Abandoned waiter that already consumed a wakeup; skip it.
		}
	}
}

// abandon withdraws a waiter whose context expired. If the waiter was
// already signalled, the wakeup is passed on so it is not lost.
func (p *Pool) abandon(key Key, w chan struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.keys[key]
	if !ok {
		return
	}
	for i, o := range b.waiters {
		if o == w {
			b.waiters = append(b.waiters[:i], b.waiters[i+1:]...)
			return
		}
	}
	select {
	case <-w:
		p.wakeLocked(b)
	default:
	}
}

// Put checks a healthy connection back in. A pool that keeps none closes
// it instead of parking it, unless a checkout is waiting for it.
func (p *Pool) Put(key Key, conn network.Conn) {
	if conn == nil {
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		conn.Close()
		return
	}
	b := p.bucketLocked(key)
	if p.keepNone && len(b.waiters) == 0 {
		b.total--
		p.overflow.Add(1)
		p.mu.Unlock()
		conn.Close()
		return
	}
	b.idle = append(b.idle, idleConn{conn: conn, since: time.Now()})
	p.wakeLocked(b)
	p.mu.Unlock()
}

// Discard reports a checked-out connection broken: it is closed and its
// capacity slot freed for a fresh dial.
func (p *Pool) Discard(key Key, conn network.Conn) {
	if conn != nil {
		conn.Close()
	}
	p.discarded.Add(1)
	p.release(key)
}

// Flush closes every idle connection parked under key. Callers use it
// after a transport fault: the key's idle siblings were dialled to the
// same endpoint and are presumed just as dead, so draining them up front
// spends retry budget on fresh dials instead of stale sockets.
func (p *Pool) Flush(key Key) {
	p.mu.Lock()
	b, ok := p.keys[key]
	if !ok || p.closed {
		p.mu.Unlock()
		return
	}
	victims := b.idle
	b.idle = nil
	b.total -= len(victims)
	p.discarded.Add(uint64(len(victims)))
	for range victims {
		p.wakeLocked(b)
	}
	p.mu.Unlock()
	for _, ic := range victims {
		ic.conn.Close()
	}
}

// reap periodically closes idle connections that outlived IdleTimeout.
func (p *Pool) reap() {
	defer close(p.done)
	interval := p.opts.IdleTimeout / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case now := <-t.C:
			p.reapOnce(now)
		}
	}
}

// reapOnce sweeps every bucket once, closing expired idle connections
// outside the lock.
func (p *Pool) reapOnce(now time.Time) {
	var victims []network.Conn
	p.mu.Lock()
	for _, b := range p.keys {
		keep := b.idle[:0]
		for _, ic := range b.idle {
			if now.Sub(ic.since) > p.opts.IdleTimeout {
				victims = append(victims, ic.conn)
				b.total--
				p.wakeLocked(b)
			} else {
				keep = append(keep, ic)
			}
		}
		b.idle = keep
	}
	p.expired.Add(uint64(len(victims)))
	p.mu.Unlock()
	for _, c := range victims {
		c.Close()
	}
}

// Close stops the reaper, closes all idle connections, and fails blocked
// and future checkouts with ErrClosed. Connections currently checked out
// are unaffected; a later Put/Discard of one just closes it.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	var victims []network.Conn
	for _, b := range p.keys {
		for _, ic := range b.idle {
			victims = append(victims, ic.conn)
		}
		b.idle = nil
		for _, w := range b.waiters {
			select {
			case w <- struct{}{}:
			default:
			}
		}
		b.waiters = nil
	}
	p.mu.Unlock()
	close(p.stop)
	<-p.done
	for _, c := range victims {
		c.Close()
	}
	return nil
}

// Stats snapshots the pool's counters and occupancy.
func (p *Pool) Stats() Stats {
	s := Stats{
		Hits:         p.hits.Load(),
		Dials:        p.dials.Load(),
		Expired:      p.expired.Load(),
		Overflow:     p.overflow.Load(),
		Discarded:    p.discarded.Load(),
		WaitTimeouts: p.waitTimeouts.Load(),
	}
	p.mu.Lock()
	s.PerKey = make(map[Key]KeyStats, len(p.keys))
	for k, b := range p.keys {
		s.Active += b.total
		s.Idle += len(b.idle)
		s.Waiters += len(b.waiters)
		s.PerKey[k] = KeyStats{
			Idle:     len(b.idle),
			InFlight: b.total - len(b.idle),
			Waiters:  len(b.waiters),
		}
	}
	p.mu.Unlock()
	return s
}

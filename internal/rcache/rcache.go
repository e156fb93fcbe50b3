// Package rcache implements Starlink's shared, cross-flow mediation
// response cache with single-flight request coalescing.
//
// The MTL cache/getcache keywords (Fig. 10 of the paper) resolve
// extra-message mismatches within one flow; this package exploits the
// complementary observation that under load many concurrent flows ask
// the mediated service the same read-mostly questions. A Cache is
// shared by every session of a mediator and consulted at the
// service-send transition: a flow either serves a cached reply, joins an
// in-flight leader's exchange (single-flight), or executes the exchange
// itself and populates the cache.
//
// The cache owns what it stores and never copies it. A stored reply is
// read-only from the moment it is handed in: every hit and every woken
// follower gets the same *message.Message, and any number of goroutines may
// read it at once. A caller that may write into a reply it got from here
// copies it first (the engine decides that per receive state, from its
// compiled γ programs). Beside the reply an entry keeps one value of its
// callers' (Entry.Keep), dropped with it and never read by the cache.
//
// Entries are keyed by a canonical rendering of the outbound
// service-side abstract message (operation, resolved service address,
// field tree), sharded across independently locked TTL+LRU maps so
// concurrent sessions do not serialise on one mutex. A request id (e.g.
// the JSON-RPC id) is the message's ID, a header the key does not read:
// it is per-exchange bookkeeping, not message content.
package rcache

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"starlink/internal/message"
)

// Errors returned by flight waiting.
var (
	// ErrAborted is returned by Wait when the leader's exchange failed;
	// the follower should fall back to its own service exchange.
	ErrAborted = errors.New("rcache: leader aborted")
	// ErrWaitTimeout is returned by Wait when the leader did not
	// complete within the follower's patience.
	ErrWaitTimeout = errors.New("rcache: wait for leader timed out")
)

// Options configures a Cache.
type Options struct {
	// MaxEntries bounds the total number of cached replies across all
	// shards (approximately: the bound is enforced per shard as
	// MaxEntries/Shards). 0 means DefaultMaxEntries.
	MaxEntries int
	// Shards is the number of independently locked segments. 0 means
	// DefaultShards.
	Shards int
}

// Defaults applied when Options fields are zero.
const (
	DefaultMaxEntries = 1024
	DefaultShards     = 8
)

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	// Hits counts lookups served from a stored reply.
	Hits uint64
	// Misses counts lookups that found nothing and elected the caller
	// leader of a new flight.
	Misses uint64
	// Coalesced counts lookups that joined an in-flight leader instead
	// of performing their own service exchange.
	Coalesced uint64
	// Evictions counts entries removed by LRU pressure or TTL expiry.
	Evictions uint64
	// Invalidations counts entries removed by write-operation
	// invalidation.
	Invalidations uint64
}

// Flight is one in-progress service exchange that followers may join.
// The leader completes it with Cache.Fulfill or Cache.Abort; followers
// block in Wait. The done channel is created lazily under the shard
// lock by the first follower, so the common uncontended miss pays no
// channel allocation.
type Flight struct {
	key   string
	op    string
	done  chan struct{}    // nil until a follower joins
	reply *message.Message // set before done closes; nil on abort
	err   error            // set before done closes on abort
	stale bool             // racing Invalidate: fulfil waiters but skip the store
}

// Entry is a stored reply as Lookup serves it; a reply stored again is a new Entry.
type Entry struct {
	key     string
	op      string
	reply   *message.Message // stored, read-only, served as it is
	kept    atomic.Value     // the callers' value (Keep), nil until kept
	expires time.Time
	elem    *list.Element
}

// Reply returns the stored reply, shared with every hit and read-only.
func (e *Entry) Reply() *message.Message { return e.reply }

// Keep keeps v, not nil, beside the reply unless a value is kept, and returns
// the value kept: of callers at once, one keeps its own and all get that one.
func (e *Entry) Keep(v any) any {
	if e.kept.CompareAndSwap(nil, v) {
		return v
	}
	return e.kept.Load()
}

// Kept returns the value kept beside the entry's reply, nil if none is.
func (e *Entry) Kept() any { return e.kept.Load() }

type shard struct {
	mu      sync.Mutex
	entries map[string]*Entry
	lru     *list.List // front = most recently used; Value is *Entry
	flights map[string]*Flight
	cap     int
}

// Cache is a sharded TTL+LRU response cache with single-flight
// coalescing. All methods are safe for concurrent use.
type Cache struct {
	shards []*shard

	hits          atomic.Uint64
	misses        atomic.Uint64
	coalesced     atomic.Uint64
	evictions     atomic.Uint64
	invalidations atomic.Uint64
}

// New builds a Cache. Zero Options fields take the package defaults.
func New(opts Options) *Cache {
	n := opts.Shards
	if n <= 0 {
		n = DefaultShards
	}
	max := opts.MaxEntries
	if max <= 0 {
		max = DefaultMaxEntries
	}
	perShard := (max + n - 1) / n
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache{shards: make([]*shard, n)}
	for i := range c.shards {
		c.shards[i] = &shard{
			entries: make(map[string]*Entry),
			lru:     list.New(),
			flights: make(map[string]*Flight),
			cap:     perShard,
		}
	}
	return c
}

// Stats returns the current counter values.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Coalesced:     c.coalesced.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
	}
}

// fnv1a hashes the key without allocating.
func fnv1a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

func (c *Cache) shardFor(key string) *shard {
	return c.shards[fnv1a(key)%uint64(len(c.shards))]
}

// Acquire looks the key up and decides the caller's role. Exactly one
// of the three outcomes holds:
//
//   - cached reply: (reply, nil, false) — reply is the stored message
//     itself, shared with every other hit and read-only;
//   - join an in-flight leader: (nil, flight, false) — call
//     flight-returning Wait;
//   - lead a new flight: (nil, flight, true) — perform the exchange,
//     then Fulfill or Abort the flight.
func (c *Cache) Acquire(op, key string) (*message.Message, *Flight, bool) {
	e, f, lead := c.Lookup(op, key)
	if e != nil {
		return e.reply, nil, false
	}
	return nil, f, lead
}

// Lookup is Acquire serving a hit as the entry that holds the reply.
func (c *Cache) Lookup(op, key string) (*Entry, *Flight, bool) {
	s := c.shardFor(key)
	now := time.Now()
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		if now.Before(e.expires) {
			s.lru.MoveToFront(e.elem)
			s.mu.Unlock()
			c.hits.Add(1)
			return e, nil, false
		}
		s.removeLocked(e)
		c.evictions.Add(1)
	}
	if f, ok := s.flights[key]; ok {
		if f.done == nil {
			f.done = make(chan struct{})
		}
		s.mu.Unlock()
		c.coalesced.Add(1)
		return nil, f, false
	}
	f := &Flight{key: key, op: op}
	s.flights[key] = f
	s.mu.Unlock()
	c.misses.Add(1)
	return nil, f, true
}

// Wait blocks until the flight's leader fulfils or aborts it, or the
// timeout elapses. On fulfilment the follower receives the reply the
// leader fulfilled it with, shared and read-only like a hit. On abort or
// timeout the follower should fall back to a direct service exchange
// (and may Put the result).
func (f *Flight) Wait(timeout time.Duration) (*message.Message, error) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-f.done:
		if f.err != nil {
			return nil, f.err
		}
		return f.reply, nil
	case <-t.C:
		return nil, ErrWaitTimeout
	}
}

// Fulfill completes a led flight: followers are woken with reply, and
// (unless a write invalidated the operation mid-flight, or ttl <= 0) it
// is stored for ttl. The cache takes reply as it is: from here on it is
// read-only, for the leader as for everyone it is served to.
func (c *Cache) Fulfill(f *Flight, reply *message.Message, ttl time.Duration) {
	expires := time.Now().Add(ttl)
	s := c.shardFor(f.key)
	s.mu.Lock()
	if s.flights[f.key] == f {
		delete(s.flights, f.key)
	}
	if !f.stale && ttl > 0 {
		c.storeLocked(s, f.key, f.op, reply, expires)
	}
	done := f.done
	s.mu.Unlock()
	f.reply = reply
	if done != nil {
		close(done)
	}
}

// Abort completes a led flight without a reply: followers wake with
// ErrAborted (or err, if non-nil) and fall back to their own
// exchanges.
func (c *Cache) Abort(f *Flight, err error) {
	s := c.shardFor(f.key)
	s.mu.Lock()
	if s.flights[f.key] == f {
		delete(s.flights, f.key)
	}
	done := f.done
	s.mu.Unlock()
	if err == nil {
		err = ErrAborted
	}
	f.err = err
	if done != nil {
		close(done)
	}
}

// Put stores a reply directly — the follower-fallback path, where a
// flow performed its own exchange after its leader aborted. A racing
// flight for the key is left untouched. Like Fulfill, it takes reply as
// it is, read-only from here on.
func (c *Cache) Put(op, key string, reply *message.Message, ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	expires := time.Now().Add(ttl)
	s := c.shardFor(key)
	s.mu.Lock()
	c.storeLocked(s, key, op, reply, expires)
	s.mu.Unlock()
}

// storeLocked inserts an entry, in place of the key's entry if it has one
// (what was kept beside that reply is not the new one's); the shard mutex
// is held.
func (c *Cache) storeLocked(s *shard, key, op string, reply *message.Message, expires time.Time) {
	if e, ok := s.entries[key]; ok {
		s.removeLocked(e)
	}
	e := &Entry{key: key, op: op, reply: reply, expires: expires}
	e.elem = s.lru.PushFront(e)
	s.entries[key] = e
	for len(s.entries) > s.cap {
		back := s.lru.Back()
		if back == nil {
			break
		}
		s.removeLocked(back.Value.(*Entry))
		c.evictions.Add(1)
	}
}

func (s *shard) removeLocked(e *Entry) {
	delete(s.entries, e.key)
	s.lru.Remove(e.elem)
}

// Flush drops every stored reply, counting each as an eviction.
// In-flight flights are left alone: their leaders' results still wake
// followers (and may re-populate the cache). It returns the number of
// entries dropped. This is the administrative reset exposed as
// Mediator.CacheFlush, used by embedding programs and by tests that
// need a deterministic TTL-window rollover.
func (c *Cache) Flush() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		for _, e := range s.entries {
			s.removeLocked(e)
			n++
		}
		s.mu.Unlock()
	}
	if n > 0 {
		c.evictions.Add(uint64(n))
	}
	return n
}

// Invalidate removes every stored reply whose operation is in ops and
// marks matching in-flight flights stale (their followers are still
// served, but the result is not stored). It returns the number of
// entries removed. This is the write-operation hook: a flow about to
// send a mutating operation calls Invalidate with the operations its
// spec declares it invalidates.
func (c *Cache) Invalidate(ops []string) int {
	if len(ops) == 0 {
		return 0
	}
	match := func(op string) bool {
		for _, o := range ops {
			if o == op {
				return true
			}
		}
		return false
	}
	removed := 0
	for _, s := range c.shards {
		s.mu.Lock()
		for _, e := range s.entries {
			if match(e.op) {
				s.removeLocked(e)
				removed++
			}
		}
		for _, f := range s.flights {
			if match(f.op) {
				f.stale = true
			}
		}
		s.mu.Unlock()
	}
	if removed > 0 {
		c.invalidations.Add(uint64(removed))
	}
	return removed
}

package rcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starlink/internal/message"
)

func reply(v string) *message.Message {
	return message.New("Reply",
		message.NewPrimitive("result", message.TypeString, v),
		message.NewStruct("meta", message.NewPrimitive("server", message.TypeString, "s1")),
	)
}

// entries counts the stored entries across all shards, expired ones not
// yet collected included.
func entries(c *Cache) int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

func req(q string) *message.Message {
	msg := message.New("Req", message.NewPrimitive("q", message.TypeString, q))
	msg.ID = 42
	return msg
}

func TestKeyCanonical(t *testing.T) {
	k1 := Key("catalog.search", "addr:1", req("espresso"), nil)
	k2 := Key("catalog.search", "addr:1", req("espresso"), nil)
	if k1 != k2 {
		t.Fatalf("identical messages produced different keys:\n%q\n%q", k1, k2)
	}
	if k3 := Key("catalog.search", "addr:1", req("grinder"), nil); k3 == k1 {
		t.Fatal("different field values produced the same key")
	}
	if k4 := Key("catalog.other", "addr:1", req("espresso"), nil); k4 == k1 {
		t.Fatal("different operations produced the same key")
	}
	if k5 := Key("catalog.search", "addr:2", req("espresso"), nil); k5 == k1 {
		t.Fatal("different service addresses produced the same key")
	}
}

// TestKeySkipsBinderInternals: the request id a binder sets (Message.ID)
// differs on every exchange and must not fragment the key space.
func TestKeySkipsBinderInternals(t *testing.T) {
	a := req("espresso")
	b := req("espresso")
	b.ID = 7777
	if Key("op", "addr", a, nil) != Key("op", "addr", b, nil) {
		t.Fatal("the request id leaked into the cache key")
	}
}

func TestKeyVary(t *testing.T) {
	a := message.New("Req",
		message.NewPrimitive("q", message.TypeString, "espresso"),
		message.NewPrimitive("session_token", message.TypeString, "tok-1"),
	)
	b := message.New("Req",
		message.NewPrimitive("q", message.TypeString, "espresso"),
		message.NewPrimitive("session_token", message.TypeString, "tok-2"),
	)
	if Key("op", "addr", a, []string{"q"}) != Key("op", "addr", b, []string{"q"}) {
		t.Fatal("vary=q should ignore the differing session_token")
	}
	if Key("op", "addr", a, nil) == Key("op", "addr", b, nil) {
		t.Fatal("without vary, differing fields must produce different keys")
	}
	if Key("op", "addr", a, []string{"session_token"}) == Key("op", "addr", b, []string{"session_token"}) {
		t.Fatal("vary=session_token must see the differing token")
	}
}

func TestAcquireMissFulfillHit(t *testing.T) {
	c := New(Options{})
	key := Key("op", "addr", req("x"), nil)

	got, f, leader := c.Acquire("op", key)
	if got != nil || !leader {
		t.Fatalf("first Acquire: got reply=%v leader=%v, want miss+leader", got, leader)
	}
	orig := reply("v1")
	c.Fulfill(f, orig, time.Minute)

	got, f2, leader := c.Acquire("op", key)
	if got == nil || f2 != nil || leader {
		t.Fatalf("second Acquire: want hit, got reply=%v flight=%v leader=%v", got, f2, leader)
	}
	if got != orig {
		t.Fatal("the hit is not the reply handed to Fulfill")
	}
	if v, _ := got.GetString("result"); v != "v1" {
		t.Fatalf("cached reply result = %q, want v1", v)
	}
	// The hit is the stored message: every hit gets the same one, made of
	// the nodes the leader handed in, and nothing is copied. That a flow
	// which may write into a reply gets a copy of its own is the engine's
	// part, held by engine.TestCacheCopiesForWritingGamma.
	again, _, _ := c.Acquire("op", key)
	if again != got {
		t.Fatal("two hits on one entry returned different messages")
	}

	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 1 miss", st)
	}
}

func TestTTLExpiry(t *testing.T) {
	c := New(Options{})
	key := "k"
	_, f, _ := c.Acquire("op", key)
	c.Fulfill(f, reply("v"), 10*time.Millisecond)
	if got, _, _ := c.Acquire("op", key); got == nil {
		t.Fatal("entry should be live inside its TTL")
	}
	time.Sleep(20 * time.Millisecond)
	got, _, leader := c.Acquire("op", key)
	if got != nil || !leader {
		t.Fatal("expired entry should miss and elect a new leader")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("expiry should count as an eviction, stats = %+v", st)
	}
}

func TestCoalescing(t *testing.T) {
	c := New(Options{})
	key := "k"
	_, lead, isLead := c.Acquire("op", key)
	if !isLead {
		t.Fatal("want leader")
	}
	const followers = 16
	var wg sync.WaitGroup
	var served atomic.Uint64
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, f, leader := c.Acquire("op", key)
			if got != nil || leader {
				t.Errorf("follower got reply=%v leader=%v", got, leader)
				return
			}
			rep, err := f.Wait(time.Second)
			if err != nil {
				t.Errorf("Wait: %v", err)
				return
			}
			if v, _ := rep.GetString("result"); v != "v" {
				t.Errorf("follower reply = %q", v)
				return
			}
			served.Add(1)
		}()
	}
	// Give followers time to join before the leader fulfils.
	time.Sleep(20 * time.Millisecond)
	c.Fulfill(lead, reply("v"), time.Minute)
	wg.Wait()
	if served.Load() != followers {
		t.Fatalf("served %d followers, want %d", served.Load(), followers)
	}
	if st := c.Stats(); st.Coalesced != followers {
		t.Fatalf("coalesced = %d, want %d", st.Coalesced, followers)
	}
}

func TestAbortWakesFollowers(t *testing.T) {
	c := New(Options{})
	_, lead, _ := c.Acquire("op", "k")
	_, follower, _ := c.Acquire("op", "k")
	go c.Abort(lead, nil)
	if _, err := follower.Wait(time.Second); !errors.Is(err, ErrAborted) {
		t.Fatalf("Wait after abort: %v, want ErrAborted", err)
	}
	// The key must be leadable again.
	if _, _, leader := c.Acquire("op", "k"); !leader {
		t.Fatal("aborted key should elect a fresh leader")
	}
}

func TestWaitTimeout(t *testing.T) {
	c := New(Options{})
	_, _, _ = c.Acquire("op", "k")
	_, follower, _ := c.Acquire("op", "k")
	if _, err := follower.Wait(5 * time.Millisecond); !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("Wait: %v, want ErrWaitTimeout", err)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(Options{})
	for i, op := range []string{"read.a", "read.a", "read.b"} {
		key := fmt.Sprintf("k%d", i)
		_, f, _ := c.Acquire(op, key)
		c.Fulfill(f, reply("v"), time.Minute)
	}
	if n := c.Invalidate([]string{"read.a"}); n != 2 {
		t.Fatalf("Invalidate removed %d, want 2", n)
	}
	if entries(c) != 1 {
		t.Fatalf("Len = %d after invalidation, want 1", entries(c))
	}
	if got, _, _ := c.Acquire("read.b", "k2"); got == nil {
		t.Fatal("unrelated operation was invalidated")
	}
	if st := c.Stats(); st.Invalidations != 2 {
		t.Fatalf("invalidations = %d, want 2", st.Invalidations)
	}
}

// TestInvalidateMarksFlightStale: a write racing an in-flight read must
// prevent the read's result from being stored (it may be pre-write
// data), while still serving the waiting followers.
func TestInvalidateMarksFlightStale(t *testing.T) {
	c := New(Options{})
	_, lead, _ := c.Acquire("read.a", "k")
	_, follower, _ := c.Acquire("read.a", "k")
	c.Invalidate([]string{"read.a"})
	done := make(chan struct{})
	go func() {
		if rep, err := follower.Wait(time.Second); err != nil || rep == nil {
			t.Errorf("follower not served across stale fulfil: %v", err)
		}
		close(done)
	}()
	c.Fulfill(lead, reply("stale"), time.Minute)
	<-done
	if got, _, _ := c.Acquire("read.a", "k"); got != nil {
		t.Fatal("stale flight result was stored despite invalidation")
	}
}

func TestLRUBound(t *testing.T) {
	c := New(Options{MaxEntries: 8, Shards: 1})
	for i := 0; i < 50; i++ {
		c.Put("op", fmt.Sprintf("k%d", i), reply("v"), time.Minute)
	}
	if entries(c) > 8 {
		t.Fatalf("cache holds %d entries, bound is 8", entries(c))
	}
	if st := c.Stats(); st.Evictions != 42 {
		t.Fatalf("evictions = %d, want 42", st.Evictions)
	}
	// Most recent keys survive.
	if got, _, _ := c.Acquire("op", "k49"); got == nil {
		t.Fatal("most recently stored key was evicted")
	}
	if got, _, _ := c.Acquire("op", "k0"); got != nil {
		t.Fatal("oldest key survived past the bound")
	}
}

func TestPutFollowerFallback(t *testing.T) {
	c := New(Options{})
	c.Put("op", "k", reply("v"), time.Minute)
	if got, _, _ := c.Acquire("op", "k"); got == nil {
		t.Fatal("Put entry not served")
	}
	// ttl <= 0 is a no-op.
	c.Put("op", "k2", reply("v"), 0)
	if _, _, leader := c.Acquire("op", "k2"); !leader {
		t.Fatal("zero-TTL Put should not store")
	}
}

func TestConcurrentMixedUse(t *testing.T) {
	c := New(Options{MaxEntries: 64, Shards: 4})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%32)
				op := fmt.Sprintf("op%d", i%3)
				got, f, leader := c.Acquire(op, key)
				switch {
				case got != nil:
				case leader:
					if i%7 == 0 {
						c.Abort(f, nil)
					} else {
						c.Fulfill(f, reply("v"), time.Millisecond*50)
					}
				default:
					if _, err := f.Wait(time.Second); err != nil {
						c.Put(op, key, reply("v"), time.Millisecond*50)
					}
				}
				if i%41 == 0 {
					c.Invalidate([]string{"op0"})
				}
			}
		}(g)
	}
	wg.Wait()
}

// kept stores reply("r") under key, looks it up and keeps a value beside
// it, then returns the entry.
func kept(t *testing.T, c *Cache, key string, ttl time.Duration) *Entry {
	t.Helper()
	c.Put("op", key, reply("r"), ttl)
	e, _, _ := c.Lookup("op", key)
	if e == nil {
		t.Fatal("no hit on a reply just stored")
	}
	if v := "rendered " + key; e.Keep(v) != v || e.Kept() != v {
		t.Fatalf("the first Keep kept %v", e.Kept())
	}
	return e
}

// TestKeptDroppedWithEntry: a value kept beside a reply lives as long as
// the reply's entry. Once the entry is gone — its TTL past, pushed out of
// the LRU, invalidated, flushed or stored again — the key's next entry
// holds nothing kept.
func TestKeptDroppedWithEntry(t *testing.T) {
	cases := []struct {
		name string
		drop func(c *Cache, key string)
	}{
		{"ttl", func(c *Cache, key string) { time.Sleep(30 * time.Millisecond) }},
		{"lru", func(c *Cache, key string) { c.Put("op", "other", reply("o"), time.Minute) }},
		{"invalidate", func(c *Cache, key string) { c.Invalidate([]string{"op"}) }},
		{"flush", func(c *Cache, key string) { c.Flush() }},
		{"stored again", func(c *Cache, key string) { c.Put("op", key, reply("r2"), time.Minute) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(Options{MaxEntries: 1, Shards: 1})
			ttl := time.Minute
			if tc.name == "ttl" {
				ttl = 20 * time.Millisecond
			}
			kept(t, c, "k", ttl)
			tc.drop(c, "k")
			if tc.name != "stored again" {
				if e, _, _ := c.Lookup("op", "k"); e != nil {
					t.Fatal("the entry outlived its drop")
				}
				c.Put("op", "k", reply("r"), time.Minute)
			}
			e, _, _ := c.Lookup("op", "k")
			if e == nil {
				t.Fatal("no hit on the reply stored again")
			}
			if v := e.Kept(); v != nil {
				t.Errorf("the key's new entry holds %v, kept beside the one dropped", v)
			}
		})
	}
}

// TestKeepRaceSetsOnce: 64 goroutines hit one entry at once and each
// keeps a value of its own beside it. One value is kept, and every one of
// them is handed that one (run under make race).
func TestKeepRaceSetsOnce(t *testing.T) {
	const n = 64
	c := New(Options{})
	c.Put("op", "k", reply("r"), time.Minute)
	got := make([]any, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			e, _, _ := c.Lookup("op", "k")
			if e == nil {
				t.Error("no hit")
				return
			}
			got[i] = e.Keep(&[]byte{byte(i)})
		}()
	}
	close(start)
	wg.Wait()
	e, _, _ := c.Lookup("op", "k")
	for i, v := range got {
		if v != e.Kept() {
			t.Fatalf("goroutine %d was handed %p, the entry keeps %p", i, v, e.Kept())
		}
	}
}

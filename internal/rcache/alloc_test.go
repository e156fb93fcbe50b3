package rcache

import (
	"testing"
	"time"

	"starlink/internal/testutil"
)

// TestCacheHitAllocBudget pins the cache-hit fast path: rendering the
// canonical key for an outbound request and serving a stored reply
// (Acquire hit) must stay within a fixed allocation budget. This is the
// path every cache-served flow pays instead of a service exchange, so
// regressions here erode the very latency win the cache exists for. A
// hit serves the stored message itself; a caller that may write into it
// copies it (the engine, per receive state), so the budget has no copy in
// it.
func TestCacheHitAllocBudget(t *testing.T) {
	c := New(Options{})
	outbound := req("espresso")
	key := Key("catalog.search", "127.0.0.1:9999", outbound, nil)
	c.Put("catalog.search", key, reply("stored"), time.Hour)

	allocs := testing.AllocsPerRun(500, func() {
		k := Key("catalog.search", "127.0.0.1:9999", outbound, nil)
		hit, _, _ := c.Acquire("catalog.search", k)
		if hit == nil {
			t.Fatal("expected a cache hit")
		}
	})
	if testutil.RaceEnabled {
		t.Skipf("race detector enabled; measured %.1f allocs/op unasserted", allocs)
	}
	if allocs > hitBudget {
		t.Errorf("key+hit path allocated %.1f times per op, budget %d", allocs, hitBudget)
	}
}

// hitBudget is the key string, and nothing else: no copy of the reply and
// no per-hit map, list or flight allocation.
const hitBudget = 1

// TestMissCycleAllocBudget pins the uncontended miss: leader election,
// Fulfill (which takes the reply as it is: it has no binder-internal field
// to strip) and the flight bookkeeping. The lazy done channel keeps the
// follower-free case channel-free.
func TestMissCycleAllocBudget(t *testing.T) {
	c := New(Options{})
	outbound := req("espresso")
	rep := reply("fresh")

	allocs := testing.AllocsPerRun(200, func() {
		k := Key("catalog.search", "127.0.0.1:9999", outbound, nil)
		hit, f, lead := c.Acquire("catalog.search", k)
		if hit != nil || !lead {
			t.Fatal("expected to lead a new flight")
		}
		c.Fulfill(f, rep, 0) // ttl 0: fulfil without storing, so every run misses
	})
	if testutil.RaceEnabled {
		t.Skipf("race detector enabled; measured %.1f allocs/op unasserted", allocs)
	}
	if allocs > missBudget {
		t.Errorf("miss cycle allocated %.1f times per op, budget %d", allocs, missBudget)
	}
}

// missBudget is the key string and the Flight.
const missBudget = 2

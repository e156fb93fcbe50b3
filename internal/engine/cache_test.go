package engine_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starlink/internal/automata"
	"starlink/internal/bind"
	"starlink/internal/casestudy"
	"starlink/internal/engine"
	"starlink/internal/protocol/giop"
)

// startCachedAddPlus wires the Fig. 7/8 Add->Plus mediator with a
// counting (and optionally slow) Plus service and the given cache
// policy. The returned counter is the number of service-side exchanges
// the SOAP server actually saw.
func startCachedAddPlus(t testing.TB, delay time.Duration, cache *engine.CachePolicy) (*engine.Mediator, *atomic.Uint64) {
	t.Helper()
	ops := new(atomic.Uint64)
	srv := startPlusService(t, func() {
		ops.Add(1)
		time.Sleep(delay)
	})
	med := startAddPlus(t, srv.Addr(), func(cfg *engine.Config) {
		cfg.ExchangeTimeout = 5 * time.Second
		cfg.Cache = cache
	})
	return med, ops
}

// TestCacheRepeatedReads: the second identical invocation is answered
// from the cache — one service exchange, one hit, correct value both
// times — while a different argument vector misses.
func TestCacheRepeatedReads(t *testing.T) {
	med, ops := startCachedAddPlus(t, 0, &engine.CachePolicy{
		Rules: map[string]engine.CacheRule{"Plus": {TTL: time.Minute}},
	})
	client, err := giop.Dial(med.Addr(), "calc")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 2; i++ {
		results, err := client.Invoke("Add", giop.IntParam(20), giop.IntParam(22))
		if err != nil {
			t.Fatal(err)
		}
		if results[0].ValueString() != "42" {
			t.Errorf("call %d: Add = %s", i, results[0].ValueString())
		}
	}
	if got := ops.Load(); got != 1 {
		t.Errorf("service exchanges = %d, want 1", got)
	}
	// A different argument vector is a different key.
	results, err := client.Invoke("Add", giop.IntParam(1), giop.IntParam(2))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].ValueString() != "3" {
		t.Errorf("Add(1,2) = %s", results[0].ValueString())
	}
	if got := ops.Load(); got != 2 {
		t.Errorf("service exchanges = %d, want 2", got)
	}
	st := med.Snapshot().Stats
	if st.CacheHits != 1 || st.CacheMisses != 2 || st.CacheCoalesced != 0 {
		t.Errorf("cache stats = hits %d misses %d coalesced %d, want 1/2/0",
			st.CacheHits, st.CacheMisses, st.CacheCoalesced)
	}
	// Cache-served exchanges must not count as service messages: with 3
	// flows and 2 real exchanges, MessagesOut is client replies (3) +
	// service sends (2).
	if st.Flows != 3 || st.MessagesOut != 5 {
		t.Errorf("flows = %d messagesOut = %d, want 3/5", st.Flows, st.MessagesOut)
	}
}

// TestCacheOneExchangePerTTLWindow is the coalescing race: 64 concurrent
// sessions invoke the same cacheable operation against a slow service,
// and exactly ONE service exchange happens per TTL window — the leader's.
// Everyone else is served by the cache or by joining the leader's flight.
func TestCacheOneExchangePerTTLWindow(t *testing.T) {
	const ttl = 30 * time.Second
	med, ops := startCachedAddPlus(t, 30*time.Millisecond, &engine.CachePolicy{
		Rules: map[string]engine.CacheRule{"Plus": {TTL: ttl}},
	})

	window := func() {
		var wg sync.WaitGroup
		errs := make(chan error, 64)
		for i := 0; i < 64; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				client, err := giop.Dial(med.Addr(), "calc")
				if err != nil {
					errs <- err
					return
				}
				defer client.Close()
				results, err := client.Invoke("Add", giop.IntParam(7), giop.IntParam(5))
				if err != nil {
					errs <- err
					return
				}
				if results[0].ValueString() != "12" {
					errs <- errors.New("Add = " + results[0].ValueString())
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}

	window()
	if got := ops.Load(); got != 1 {
		t.Errorf("window 1: service exchanges = %d, want exactly 1", got)
	}
	st := med.Snapshot().Stats
	if st.CacheMisses != 1 {
		t.Errorf("window 1: misses = %d, want 1", st.CacheMisses)
	}
	if st.CacheHits+st.CacheCoalesced != 63 {
		t.Errorf("window 1: hits %d + coalesced %d = %d, want 63",
			st.CacheHits, st.CacheCoalesced, st.CacheHits+st.CacheCoalesced)
	}

	// Force the window to roll over, then repeat: exactly one more
	// exchange.
	med.CacheFlush()
	window()
	if got := ops.Load(); got != 2 {
		t.Errorf("window 2: service exchanges = %d, want exactly 2", got)
	}
	if st := med.Snapshot().Stats; st.CacheMisses != 2 {
		t.Errorf("window 2: misses = %d, want 2", st.CacheMisses)
	}
}

// TestCacheTTLExpiry: after the TTL lapses the next invocation goes back
// to the service and the expiry is counted as an eviction.
func TestCacheTTLExpiry(t *testing.T) {
	med, ops := startCachedAddPlus(t, 0, &engine.CachePolicy{
		Rules: map[string]engine.CacheRule{"Plus": {TTL: 50 * time.Millisecond}},
	})
	client, err := giop.Dial(med.Addr(), "calc")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	call := func() {
		t.Helper()
		results, err := client.Invoke("Add", giop.IntParam(2), giop.IntParam(2))
		if err != nil {
			t.Fatal(err)
		}
		if results[0].ValueString() != "4" {
			t.Errorf("Add = %s", results[0].ValueString())
		}
	}
	call()
	call()
	if got := ops.Load(); got != 1 {
		t.Fatalf("pre-expiry exchanges = %d, want 1", got)
	}
	time.Sleep(80 * time.Millisecond)
	call()
	if got := ops.Load(); got != 2 {
		t.Errorf("post-expiry exchanges = %d, want 2", got)
	}
	if st := med.Snapshot().Stats; st.CacheEvictions != 1 {
		t.Errorf("evictions = %d, want 1", st.CacheEvictions)
	}
}

// TestCacheVary: with vary restricted to x, invocations differing
// only in y share a cache entry.
func TestCacheVary(t *testing.T) {
	med, ops := startCachedAddPlus(t, 0, &engine.CachePolicy{
		Rules: map[string]engine.CacheRule{"Plus": {TTL: time.Minute, Vary: []string{"x"}}},
	})
	client, err := giop.Dial(med.Addr(), "calc")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	results, err := client.Invoke("Add", giop.IntParam(1), giop.IntParam(2))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].ValueString() != "3" {
		t.Errorf("Add(1,2) = %s", results[0].ValueString())
	}
	// Same x, different y: the vary key ignores y, so this is a hit and
	// returns the cached 3.
	results, err = client.Invoke("Add", giop.IntParam(1), giop.IntParam(99))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].ValueString() != "3" {
		t.Errorf("Add(1,99) with vary=x = %s, want cached 3", results[0].ValueString())
	}
	// Different x misses.
	if _, err := client.Invoke("Add", giop.IntParam(5), giop.IntParam(5)); err != nil {
		t.Fatal(err)
	}
	if got := ops.Load(); got != 2 {
		t.Errorf("service exchanges = %d, want 2", got)
	}
	_ = med
}

// TestCacheConfigValidation: nonsense cache policies are rejected at
// construction with ErrConfig.
func TestCacheConfigValidation(t *testing.T) {
	merged, err := automata.Merge(casestudy.AddUsage(), casestudy.PlusUsage(), automata.MergeOptions{
		Equiv: casestudy.AddPlusEquivalence(),
	})
	if err != nil {
		t.Fatal(err)
	}
	giopBinder, err := bind.NewGIOPBinder("calc", casestudy.AddUsage().Messages)
	if err != nil {
		t.Fatal(err)
	}
	base := func() engine.Config {
		return engine.Config{
			Merged: merged,
			Sides: map[int]*engine.Side{
				1: {Binder: giopBinder},
				2: {Binder: &bind.SOAPBinder{Path: "/soap"}, Target: "127.0.0.1:1"},
			},
		}
	}
	cases := map[string]*engine.CachePolicy{
		"unknown operation":     {Rules: map[string]engine.CacheRule{"Nope": {TTL: time.Second}}},
		"server-side operation": {Rules: map[string]engine.CacheRule{"Add": {TTL: time.Second}}},
		"zero ttl":              {Rules: map[string]engine.CacheRule{"Plus": {}}},
		"negative entries": {
			Rules:      map[string]engine.CacheRule{"Plus": {TTL: time.Second}},
			MaxEntries: -1,
		},
		"negative shards": {
			Rules:  map[string]engine.CacheRule{"Plus": {TTL: time.Second}},
			Shards: -1,
		},
		"invalidates unknown op": {
			Rules:       map[string]engine.CacheRule{"Plus": {TTL: time.Second}},
			Invalidates: map[string][]string{"Nope": {"Plus"}},
		},
		"invalidates uncached target": {
			Rules:       map[string]engine.CacheRule{"Plus": {TTL: time.Second}},
			Invalidates: map[string][]string{"Plus": {"Other"}},
		},
	}
	for name, cache := range cases {
		cfg := base()
		cfg.Cache = cache
		if _, err := engine.New(cfg); !errors.Is(err, engine.ErrConfig) {
			t.Errorf("%s: err = %v, want ErrConfig", name, err)
		}
	}
	// A valid policy is accepted.
	cfg := base()
	cfg.Cache = &engine.CachePolicy{Rules: map[string]engine.CacheRule{"Plus": {TTL: time.Second}}}
	if _, err := engine.New(cfg); err != nil {
		t.Errorf("valid policy rejected: %v", err)
	}
}

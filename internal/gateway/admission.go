package gateway

import (
	"sync"
	"sync/atomic"
	"time"
)

// AdmissionPolicy is one route's admission-control configuration. The
// zero value admits everything.
type AdmissionPolicy struct {
	// Rate is the sustained admission rate in connections per second
	// (token-bucket refill). 0 means unlimited.
	Rate float64
	// Burst is the bucket depth — how many connections may arrive at
	// once before the rate bites. 0 with a non-zero Rate means a depth
	// of max(1, Rate).
	Burst int
	// MaxFlows caps the route's concurrently-admitted connections; an
	// arrival past the cap is shed immediately rather than queued
	// behind stalled flows. 0 means unlimited.
	MaxFlows int
}

// tokenBucket is a classic refill-on-demand token bucket. It is cheap
// enough for the accept path: one mutex, no timers, no goroutines.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // bucket depth
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64, burst int) *tokenBucket {
	depth := float64(burst)
	if depth <= 0 {
		depth = rate
		if depth < 1 {
			depth = 1
		}
	}
	return &tokenBucket{rate: rate, burst: depth, tokens: depth, last: time.Now()}
}

// take consumes one token if available.
func (b *tokenBucket) take(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	elapsed := now.Sub(b.last).Seconds()
	if elapsed > 0 {
		b.tokens += elapsed * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// admission is one route's runtime admission state.
type admission struct {
	policy AdmissionPolicy
	bucket *tokenBucket // nil when Rate == 0
	active atomic.Int64 // concurrently admitted connections
}

func newAdmission(p AdmissionPolicy) *admission {
	a := &admission{policy: p}
	if p.Rate > 0 {
		a.bucket = newTokenBucket(p.Rate, p.Burst)
	}
	return a
}

// admit decides one arrival. On success the connection holds a flow
// slot until release is called.
func (a *admission) admit(now time.Time) (ok bool, reason string) {
	if a.policy.MaxFlows > 0 {
		if n := a.active.Add(1); n > int64(a.policy.MaxFlows) {
			a.active.Add(-1)
			return false, "max concurrent flows"
		}
	} else {
		a.active.Add(1)
	}
	if a.bucket != nil && !a.bucket.take(now) {
		a.active.Add(-1)
		return false, "rate limit"
	}
	return true, ""
}

// release returns an admitted connection's flow slot.
func (a *admission) release() { a.active.Add(-1) }

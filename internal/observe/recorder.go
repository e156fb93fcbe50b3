package observe

import (
	"sync/atomic"
	"time"
)

// Recorder is the flight recorder: a fixed-size ring of the last N
// failed or slow flows, each with its span tree and the truncated
// wire-level hexdump of the offending message. It answers the
// post-mortem question "what did the last few broken mediations
// actually look like on the wire" without stopping the mediator or
// re-running with ad-hoc hooks.
type Recorder struct {
	entries *ring[FlowTrace]
	slow    time.Duration

	failed   atomic.Uint64
	slowSeen atomic.Uint64
}

func newRecorder(capacity int, slow time.Duration) *Recorder {
	return &Recorder{entries: newRing[FlowTrace](capacity), slow: slow}
}

// offer records the flow if it failed, or if it was slower than the
// configured threshold.
func (r *Recorder) offer(ft *FlowTrace) {
	switch {
	case ft.Failed():
		r.failed.Add(1)
	case r.slow > 0 && ft.Duration() >= r.slow:
		r.slowSeen.Add(1)
	default:
		return
	}
	r.entries.add(ft)
}

// Entries snapshots the recorded flows, oldest first.
func (r *Recorder) Entries() []*FlowTrace { return r.entries.snapshot() }

// Len reports how many flows are currently held.
func (r *Recorder) Len() int { return r.entries.len() }

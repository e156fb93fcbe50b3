// Latency histograms for the mediation hot path: fixed log-scale bins
// updated with atomic adds, so an observation never serialises sessions;
// a Snapshot may be torn, but never goes back.
package engine

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of log-scale latency bins. Bucket 0 covers
// [0, 1µs); bucket i (i >= 1) covers [2^(i-1)µs, 2^i µs); the last
// bucket absorbs everything above ~18 minutes.
const histBuckets = 32

// histogram is the internal atomic form of a LatencyHistogram.
type histogram struct {
	bins  [histBuckets]atomic.Uint64
	count atomic.Uint64
	sum   atomic.Uint64 // nanoseconds
}

// histBucket maps a duration to its bin index.
func histBucket(d time.Duration) int {
	return min(bits.Len64(uint64(d/time.Microsecond)), histBuckets-1)
}

// bucketLow is the inclusive lower bound of bin i.
func bucketLow(i int) time.Duration {
	if i == 0 {
		return 0
	}
	return time.Duration(uint64(1)<<(i-1)) * time.Microsecond
}

// observe records one latency.
func (h *histogram) observe(d time.Duration) {
	d = max(d, 0)
	h.bins[histBucket(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(uint64(d))
}

// snapshot copies the live counters into an exported form.
func (h *histogram) snapshot() LatencyHistogram {
	out := LatencyHistogram{
		Buckets: make([]LatencyBucket, histBuckets),
		Count:   h.count.Load(),
		Sum:     time.Duration(h.sum.Load()),
	}
	for i := range h.bins {
		high := time.Duration(1<<63 - 1)
		if i < histBuckets-1 {
			high = bucketLow(i + 1)
		}
		out.Buckets[i] = LatencyBucket{Low: bucketLow(i), High: high, Count: h.bins[i].Load()}
	}
	return out
}

// LatencyBucket is one bin of a latency histogram snapshot.
type LatencyBucket struct {
	// Low and High bound the bin, Low <= latency < High, which Count
	// observations fell in.
	Low, High time.Duration
	Count     uint64
}

// LatencyHistogram is a copy of a latency distribution: its buckets in
// ascending order, 1µs wide at the bottom and doubling per bin, the
// number of observations and their sum.
type LatencyHistogram struct {
	Buckets []LatencyBucket
	Count   uint64
	Sum     time.Duration
}

// Mean is the average observed latency (0 with no observations).
func (l LatencyHistogram) Mean() time.Duration {
	if l.Count == 0 {
		return 0
	}
	return l.Sum / time.Duration(l.Count)
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <=
// 1): the upper edge of the bucket the q-th observation fell in. With no
// observations it returns 0.
func (l LatencyHistogram) Quantile(q float64) time.Duration {
	if l.Count == 0 || q <= 0 {
		return 0
	}
	q = min(q, 1)
	// Nearest-rank: the ceil keeps e.g. Quantile(0.99) over 3 samples
	// pointing at the 3rd observation, not the 2nd.
	rank := uint64(math.Ceil(q * float64(l.Count)))
	var seen uint64
	for _, b := range l.Buckets {
		seen += b.Count
		if seen >= rank {
			return b.High
		}
	}
	return l.Buckets[len(l.Buckets)-1].High
}

// Latencies are a mediator's latency histograms, as Snapshot reads them.
type Latencies = histograms[LatencyHistogram]

// histograms declares each latency histogram of a mediator once, like
// counters: a field here and its row in Fields. Sessions observe into the
// live form, histograms[histogram].
type histograms[T any] struct {
	// Transitions times every transition; Exchanges, service round trips
	// from a request's first send to its reply, replays included; and
	// Translate, the γ programs executed alone.
	Transitions, Exchanges, Translate T
	// Stages times the stages of a message by colour, Stages[stage] for
	// each stage stageNames names, each [colour-1] for colours 1 and 2, the
	// two a merged automaton has. Observed only while a Trace hook is set,
	// which is when the engine reads the clock around them.
	Stages [len(stageNames)][2]T
}

// stageSeries are the /metrics names of Stages, by stage and colour.
var stageSeries = func() (out [len(stageNames)][2]string) {
	for i, name := range stageNames {
		for c := range out[i] {
			out[i][c] = `starlink_stage_seconds{stage="` + name + `",color="` + string(rune('1'+c)) + `"}`
		}
	}
	return out
}()

// Fields lists the histograms in the order /metrics exports them.
func (h *histograms[T]) Fields() []Metric[T] {
	const stage = "Latency of the stages of a message (docs/OBSERVABILITY.md) by colour, while tracing."
	out := append(make([]Metric[T], 0, 3+len(h.Stages)*len(h.Stages[0])),
		Metric[T]{"starlink_transition_seconds", "Latency of individual automaton transitions.", &h.Transitions},
		Metric[T]{"starlink_exchange_seconds", "Latency of service request/reply round-trips.", &h.Exchanges},
		Metric[T]{"starlink_translate_seconds", "Latency of gamma translations alone.", &h.Translate},
	)
	for i := range h.Stages {
		for c := range h.Stages[i] {
			out = append(out, Metric[T]{stageSeries[i][c], stage, &h.Stages[i][c]})
		}
	}
	return out
}

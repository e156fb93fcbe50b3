// Package observe is Starlink's runtime observability subsystem. The
// paper's mediators are long-lived components "deployed in the network"
// (§3-5); this package makes a running one inspectable without stopping
// it, in four parts:
//
//   - a flow tracer (Observer) that consumes engine TraceEvents and
//     assembles them into per-session span trees — session → flow →
//     transition spans with durations, colors, state names and
//     redial/error annotations, and the binder's parse and build under a
//     message transition — kept in a bounded lock-free ring;
//   - a metrics Registry that reads one engine Snapshot (and one
//     observer or gateway Stats) per scrape, rendered in Prometheus
//     text exposition format;
//   - a flight Recorder holding the last N failed or slow flows with
//     their span trees and a truncated wire-level hexdump of the
//     offending message, for post-hoc diagnosis of parse/translate
//     faults;
//   - an Admin endpoint (pure-stdlib, built on internal/protocol/
//     httpwire, no net/http) serving /metrics, /healthz, /flows and
//     /automaton.dot.
//
// The tracer sits on the mediation hot path, so its cost profile is
// explicit: when disabled (SetEnabled(false)) every event costs exactly
// one atomic load; when enabled, a transition event costs one map read
// into a pre-built read-only table plus one atomic add, and span
// assembly appends to per-session state that only that session's
// goroutine touches.
package observe

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"starlink/internal/automata"
	"starlink/internal/engine"
)

// Defaults applied when Options fields are zero.
const (
	// DefaultFlowRing is the bound on retained completed flows.
	DefaultFlowRing = 256
	// DefaultRecorderSize is the flight recorder's bound.
	DefaultRecorderSize = 64
)

// Options configure an Observer.
type Options struct {
	// Merged, when non-nil, enables per-transition hit counters and the
	// live /automaton.dot export; transition spans are also annotated
	// with the edge's kind (message vs γ) and abstract message name.
	Merged *automata.Merged
	// FlowRing bounds the ring of retained completed flows (default
	// DefaultFlowRing).
	FlowRing int
	// RecorderSize bounds the flight recorder (default
	// DefaultRecorderSize).
	RecorderSize int
	// SampleRate keeps one in every SampleRate completed flows in the
	// flow ring (default 1 = keep every flow). Failed and slow flows
	// always reach the flight recorder regardless of sampling.
	SampleRate int
	// SlowThreshold, when positive, flight-records healthy flows at
	// least this slow. Zero records only failures.
	SlowThreshold time.Duration
	// Disabled starts the observer switched off; SetEnabled(true) turns
	// it on at runtime.
	Disabled bool
}

// transitionStat is one merged-automaton edge's identity and live hit
// counter. The table of these is built once and read-only afterwards,
// so the hot path never takes a lock.
type transitionStat struct {
	kind    automata.MergedKind
	message string
	hits    atomic.Uint64
}

// Observer is the flow tracer: its ObserveTrace is the engine's
// Config.Trace sink; it assembles TraceEvents into FlowTraces and feeds
// the flight recorder. One Observer instruments one mediator.
type Observer struct {
	opts        Options
	enabled     atomic.Bool
	transitions map[string]*transitionStat

	// sessions holds the per-session assembly state; events for one
	// session arrive from that session's goroutine only, so the values
	// need no internal locking.
	sessions sync.Map // uint64 -> *sessionTrace

	flows    *ring[FlowTrace]
	recorder *Recorder

	sampleN atomic.Uint64

	events         atomic.Uint64
	flowsAssembled atomic.Uint64
	flowsSampled   atomic.Uint64
	flowsDropped   atomic.Uint64
}

// sessionTrace is one session's open flow being assembled.
type sessionTrace struct {
	cur *FlowTrace
}

// New builds an Observer.
func New(opts Options) *Observer {
	if opts.FlowRing <= 0 {
		opts.FlowRing = DefaultFlowRing
	}
	if opts.RecorderSize <= 0 {
		opts.RecorderSize = DefaultRecorderSize
	}
	if opts.SampleRate <= 0 {
		opts.SampleRate = 1
	}
	o := &Observer{
		opts:     opts,
		flows:    newRing[FlowTrace](opts.FlowRing),
		recorder: newRecorder(opts.RecorderSize, opts.SlowThreshold),
	}
	if opts.Merged != nil {
		o.transitions = make(map[string]*transitionStat, len(opts.Merged.Transitions))
		for _, t := range opts.Merged.Transitions {
			o.transitions[t.From+"->"+t.To] = &transitionStat{kind: t.Kind, message: t.Message}
		}
	}
	o.enabled.Store(!opts.Disabled)
	return o
}

// Instrument attaches a new Observer to an engine configuration — it
// becomes the configuration's one Trace sink — defaulting
// Options.Merged to the configuration's automaton so hit counts and the
// DOT export work out of the box. Call before engine.New — the engine
// copies its Config.
func Instrument(cfg *engine.Config, opts Options) *Observer {
	if opts.Merged == nil {
		opts.Merged = cfg.Merged
	}
	o := New(opts)
	cfg.Trace = o.ObserveTrace
	return o
}

// SetEnabled switches tracing on or off at runtime. Disabled, every
// ObserveTrace call returns after a single atomic load.
func (o *Observer) SetEnabled(on bool) { o.enabled.Store(on) }

// Enabled reports whether the tracer is currently on.
func (o *Observer) Enabled() bool { return o.enabled.Load() }

// Recorder returns the observer's flight recorder.
func (o *Observer) Recorder() *Recorder { return o.recorder }

// ObserveTrace is the engine.Config.Trace sink. It must stay cheap: it
// runs synchronously inside session goroutines.
func (o *Observer) ObserveTrace(ev engine.TraceEvent) {
	if !o.enabled.Load() {
		return
	}
	o.events.Add(1)
	switch ev.Kind {
	case engine.TraceFlowStart:
		st := o.session(ev.Session)
		st.cur = &FlowTrace{
			Session: ev.Session,
			Flow:    ev.Flow,
			Start:   ev.Time,
			Root:    &Span{Kind: SpanFlow, Name: "flow", Start: ev.Time},
		}
	case engine.TraceTransition:
		if ts := o.transitions[ev.Transition]; ts != nil {
			ts.hits.Add(1)
		}
		st := o.session(ev.Session)
		if st.cur == nil {
			return
		}
		sp := &Span{
			Kind:     SpanMessage,
			Name:     ev.Transition,
			State:    ev.State,
			Color:    ev.Color,
			Start:    ev.Time.Add(-ev.Elapsed),
			Duration: ev.Elapsed,
		}
		sp.Budget = ev.Budget
		if ts := o.transitions[ev.Transition]; ts != nil {
			if ts.kind == automata.KindGamma {
				sp.Kind = SpanGamma
			}
			sp.Message = ts.message
		}
		// A packet is built at the start of its span, and a service
		// connection waited for after that; a packet is read, and then
		// parsed, at the end of its span.
		stage := func(kind string, start time.Time, d time.Duration) {
			if d > 0 {
				sp.Children = append(sp.Children, &Span{Kind: kind, Name: kind, Color: ev.Color, Start: start, Duration: d})
			}
		}
		stage(SpanBuild, sp.Start, ev.Build)
		stage(SpanPoolWait, sp.Start.Add(ev.Build), ev.PoolWait)
		stage(SpanFrameRead, ev.Time.Add(-ev.Parse-ev.FrameRead), ev.FrameRead)
		stage(SpanServiceWait, ev.Time.Add(-ev.Parse-ev.ServiceWait), ev.ServiceWait)
		stage(SpanParse, ev.Time.Add(-ev.Parse), ev.Parse)
		st.cur.Root.Children = append(st.cur.Root.Children, sp)
	case engine.TraceRedial:
		st := o.session(ev.Session)
		if st.cur == nil {
			return
		}
		sp := &Span{
			Kind:    SpanRedial,
			Name:    fmt.Sprintf("redial color %d", ev.Color),
			State:   ev.State,
			Color:   ev.Color,
			Attempt: ev.Attempt,
			Start:   ev.Time,
		}
		if ev.Err != nil {
			sp.Err = ev.Err.Error()
		}
		st.cur.Root.Children = append(st.cur.Root.Children, sp)
	case engine.TraceCacheHit:
		st := o.session(ev.Session)
		if st.cur == nil {
			return
		}
		sp := &Span{
			Kind:     SpanCache,
			Name:     fmt.Sprintf("cache hit %s", ev.State),
			State:    ev.State,
			Color:    ev.Color,
			Attempt:  ev.Attempt,
			Start:    ev.Time.Add(-ev.Elapsed),
			Duration: ev.Elapsed,
		}
		st.cur.Root.Children = append(st.cur.Root.Children, sp)
	case engine.TraceFlowEnd:
		st := o.session(ev.Session)
		if st.cur == nil {
			return
		}
		st.cur.End = ev.Time
		st.cur.Root.Duration = ev.Elapsed
		st.cur.Root.Budget = ev.Budget
		o.finishFlow(st.cur)
		st.cur = nil
	case engine.TraceError:
		st := o.session(ev.Session)
		ft := st.cur
		if ft == nil {
			// The flow failed before its first request completed
			// assembly; synthesize a bare trace so the failure is still
			// visible in the recorder.
			ft = &FlowTrace{
				Session: ev.Session,
				Flow:    ev.Flow,
				Start:   ev.Time,
				Root:    &Span{Kind: SpanFlow, Name: "flow", Start: ev.Time},
			}
		}
		if ev.Err != nil {
			ft.Err = ev.Err.Error()
			ft.Root.Err = ft.Err
		}
		ft.End = ev.Time
		ft.Root.Duration = ft.End.Sub(ft.Start)
		ft.Root.Budget = ev.Budget
		ft.Wire = hexdump(ev.Wire)
		o.finishFlow(ft)
		st.cur = nil
	case engine.TraceSessionEnd:
		o.sessions.Delete(ev.Session)
	}
}

// session returns (creating on first use) a session's assembly state.
func (o *Observer) session(id uint64) *sessionTrace {
	if st, ok := o.sessions.Load(id); ok {
		return st.(*sessionTrace)
	}
	st, _ := o.sessions.LoadOrStore(id, &sessionTrace{})
	return st.(*sessionTrace)
}

// finishFlow routes a completed flow: failed/slow flows to the flight
// recorder unconditionally, and a sampled subset to the flow ring.
func (o *Observer) finishFlow(ft *FlowTrace) {
	o.flowsAssembled.Add(1)
	o.recorder.offer(ft)
	if o.opts.SampleRate > 1 && o.sampleN.Add(1)%uint64(o.opts.SampleRate) != 0 {
		o.flowsDropped.Add(1)
		return
	}
	o.flowsSampled.Add(1)
	o.flows.add(ft)
}

// Flows snapshots the sampled completed-flow ring, oldest first.
func (o *Observer) Flows() []*FlowTrace { return o.flows.snapshot() }

// ObserverStats are one reading of the tracer and its flight recorder,
// the one sample /metrics takes of an observer per scrape.
type ObserverStats struct {
	// Enabled reports whether the tracer is on.
	Enabled bool
	// Events is the number of TraceEvents consumed while enabled.
	Events uint64
	// FlowsAssembled counts completed span trees (clean or failed).
	FlowsAssembled uint64
	// FlowsSampled and FlowsDropped split FlowsAssembled by the
	// sampling decision for the flow ring.
	FlowsSampled, FlowsDropped uint64
	// RecorderEntries is how many flows the flight recorder holds.
	RecorderEntries int
	// RecordedFailed and RecordedSlow count flows the recorder took for
	// each reason, including ones since evicted by its bound.
	RecordedFailed, RecordedSlow uint64
	// TransitionHits are the per-transition hit counts, keyed "from->to";
	// nil when the observer was built without a merged automaton.
	TransitionHits map[string]uint64
}

// Stats reads the tracer's and the recorder's counters and the hit counts.
func (o *Observer) Stats() ObserverStats {
	st := ObserverStats{
		Enabled:         o.Enabled(),
		Events:          o.events.Load(),
		FlowsAssembled:  o.flowsAssembled.Load(),
		FlowsSampled:    o.flowsSampled.Load(),
		FlowsDropped:    o.flowsDropped.Load(),
		RecorderEntries: o.recorder.Len(),
		RecordedFailed:  o.recorder.failed.Load(),
		RecordedSlow:    o.recorder.slowSeen.Load(),
	}
	if o.transitions != nil {
		st.TransitionHits = make(map[string]uint64, len(o.transitions))
		for name, ts := range o.transitions {
			st.TransitionHits[name] = ts.hits.Load()
		}
	}
	return st
}

// DOT renders the merged automaton in Graphviz format with live
// per-transition hit counts on the edge labels — the Fig. 3 diagram
// annotated with where traffic actually went. It returns "" when the
// observer has no automaton.
func (o *Observer) DOT() string {
	if o.opts.Merged == nil {
		return ""
	}
	return o.opts.Merged.NotedDOT(func(t automata.MergedTransition) string {
		var hits uint64
		if ts := o.transitions[t.From+"->"+t.To]; ts != nil {
			hits = ts.hits.Load()
		}
		return fmt.Sprintf(" (%d)", hits)
	})
}

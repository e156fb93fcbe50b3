package observe

import (
	"encoding/hex"
	"time"
)

// Span kinds produced by the flow tracer.
const (
	// SpanFlow is the root span of one automaton traversal.
	SpanFlow = "flow"
	// SpanMessage is a message transition (send or receive on a color).
	SpanMessage = "message"
	// SpanGamma is a γ translation transition.
	SpanGamma = "gamma"
	// SpanRedial marks a service connection replaced mid-flow (fault
	// recovery or a sethost retarget).
	SpanRedial = "redial"
	// SpanCache marks a service exchange served by the cross-flow
	// response cache — Attempt 0 for a stored reply, 1 for a coalesced
	// join of an in-flight leader's exchange.
	SpanCache = "cache"
	// SpanParse and SpanBuild nest under a message span: the binder
	// decoding the packet the transition received, or encoding the one it
	// sends — the part of the span that is not the wire or the wait.
	SpanParse = "parse"
	SpanBuild = "build"
	// SpanFrameRead, SpanPoolWait and SpanServiceWait nest under a message
	// span too: the wire's part of it — reading the client's request,
	// waiting for a pooled service connection, and waiting for the
	// service's reply and reading it.
	SpanFrameRead   = "frame_read"
	SpanPoolWait    = "pool_wait"
	SpanServiceWait = "service_wait"
)

// Span is one node of a flow's span tree: the flow root, a transition
// under it, a redial annotation under the flow, or a stage under a message
// transition. Durations come from
// the engine's own measurements; Start is back-dated from the event
// time so children nest inside their parent on a timeline.
type Span struct {
	// Kind is one of the Span* constants.
	Kind string `json:"kind"`
	// Name identifies the span: "flow", "from->to" for transitions, or
	// a redial description.
	Name string `json:"name"`
	// State is the automaton state the span ended in (transitions), or
	// the dialled address (redials).
	State string `json:"state,omitempty"`
	// Message names the abstract message of a message transition.
	Message string `json:"message,omitempty"`
	// Color is the side a message transition or redial concerns.
	Color int `json:"color,omitempty"`
	// Attempt is the retry attempt of a redial span.
	Attempt int `json:"attempt,omitempty"`
	// Start is when the span began.
	Start time.Time `json:"start"`
	// Duration is how long the span took (0 for instantaneous marks).
	Duration time.Duration `json:"duration_ns"`
	// Budget is the flow's remaining deadline budget when the span
	// closed, negative once the deadline has passed.
	Budget time.Duration `json:"budget_ns,omitempty"`
	// Err carries a redial's cause or the flow's failure.
	Err string `json:"error,omitempty"`
	// Children are the nested spans, in execution order.
	Children []*Span `json:"children,omitempty"`
}

// FlowTrace is one assembled automaton traversal: the span tree plus
// outcome metadata. Failed or slow flows additionally land in the
// flight recorder with the offending wire message hexdumped.
type FlowTrace struct {
	// Session and Flow identify the traversal (session 1-based in accept
	// order, flow 1-based within the session).
	Session uint64 `json:"session"`
	Flow    uint64 `json:"flow"`
	// Start and End bound the flow (first client request to final reply
	// or failure).
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Err is the failure that ended the flow ("" for a clean finish).
	Err string `json:"error,omitempty"`
	// Wire is a hexdump of the last wire message received before a
	// failure — what the parse or translate fault choked on.
	Wire string `json:"wire_hexdump,omitempty"`
	// Root is the flow's span tree.
	Root *Span `json:"spans"`
}

// Duration is the flow's wall-clock time.
func (f *FlowTrace) Duration() time.Duration { return f.End.Sub(f.Start) }

// Failed reports whether the flow ended with an error.
func (f *FlowTrace) Failed() bool { return f.Err != "" }

// hexdump renders wire bytes in the canonical offset/hex/ASCII layout.
func hexdump(data []byte) string {
	if len(data) == 0 {
		return ""
	}
	return hex.Dump(data)
}

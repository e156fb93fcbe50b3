// Package bind implements Starlink's binding rules (paper Section 4.3):
// the mapping between abstract application actions — an action label plus
// named input/output fields — and the concrete messages of a particular
// middleware protocol. Binding an API usage automaton to a protocol
// yields an executable application-middleware automaton (Fig. 7); at
// runtime the automata engine calls a Binder at every message transition.
//
// One Binder exists per middleware family (XML-RPC, JSON-RPC, SOAP, REST,
// GIOP, SSDP, SLP). Each is generic over applications: application-specific
// information enters only through models — the MsgDef field lists of the
// API usage automaton (positional-parameter naming) and, for REST, a route
// table. A binder also says how its colour travels: its Framer frames the
// messages, and network.SemanticsOf that framer is the transport (UDP for
// network.Datagram, TCP otherwise), so neither a spec nor an automaton
// states it.
//
// Abstract action messages follow one convention everywhere:
//
//   - a request's fields are flat primitives named as in the MsgDef;
//   - a reply's fields are primitives and/or repeated structured children
//     (e.g. one "entry" struct per search result);
//   - the fields are application data only: a protocol's request id (GIOP
//     RequestID, JSON-RPC id, SLP XID) is the message's ID, which
//     ParseRequest sets and AppendReply and BuildErrorReply read back — the
//     reply carries the id of the request it answers (Fig. 7's "!Action =
//     correlated by RequestID").
//
// A message is built once. A parse decodes the packet straight into the
// abstract fields — the XML-RPC binder through xmlrpc.ParseCallFields and
// ParseResponseFields, not a Value tree; the SOAP and REST binders from the
// xmlenc Reader's tokens — and a binder relabels instead of copying: the
// GIOP binder names the parameters the MDL codec parsed where they stand,
// and lends the composer shallow copies of the fields it is given to build
// from. No binder calls Clone (`make check` holds it to that).
package bind

import (
	"errors"
	"sync"

	"starlink/internal/message"
	"starlink/internal/network"
	"starlink/internal/protocol/bufpool"
)

// Errors reported by binders.
var (
	// ErrUnknownAction is returned when no rule covers an action label.
	ErrUnknownAction = errors.New("bind: unknown action")
	// ErrBadMessage is wrapped when a concrete message cannot be bound.
	ErrBadMessage = errors.New("bind: cannot bind message")
)

// Binder maps between concrete protocol packets and abstract action
// messages, in both directions and for both requests and replies.
// Implementations must be safe for concurrent use.
//
// What a parse returns holds no byte of the packet it was parsed from, so
// the caller may write over the packet once the parse returns
// (TestParsedRequestOwnsItsBytes, TestParsedReplyOwnsItsBytes). A parse
// comes in two forms: ParseRequestIn and ParseReplyIn make the message in
// a store the caller resets when the message is dead (the engine's is the
// flow's), and ParseRequest and ParseReply are them with a nil store, the
// heap. A build
// comes in two forms: BuildRequest and BuildReply make a packet of its
// own, the caller's to keep, and are AppendRequest and AppendReply with a
// nil dst; the append forms write the packet into dst's storage when it
// fits, for a caller that lends a buffer and knows when it is free again.
type Binder interface {
	// ParseRequest decodes a concrete request packet into a message of its
	// own, the heap's: ParseRequestIn(nil, packet).
	ParseRequest(packet []byte) (action string, abs *message.Message, err error)
	// ParseRequestIn decodes a concrete request packet into st, where the
	// message is valid until st is reset (message.Store).
	ParseRequestIn(st *message.Store, packet []byte) (action string, abs *message.Message, err error)
	// BuildRequest encodes an abstract action message as a request packet
	// of its own: AppendRequest(nil, action, abs).
	BuildRequest(action string, abs *message.Message) ([]byte, error)
	// AppendRequest encodes an abstract action message as a request packet
	// appended to dst. On an error dst comes back as it was.
	AppendRequest(dst []byte, action string, abs *message.Message) ([]byte, error)
	// ParseReply decodes the reply packet of a previously issued action
	// into a message of its own: ParseReplyIn(nil, action, packet).
	ParseReply(action string, packet []byte) (*message.Message, error)
	// ParseReplyIn decodes the reply packet of a previously issued action
	// into st, where the message is valid until st is reset.
	ParseReplyIn(st *message.Store, action string, packet []byte) (*message.Message, error)
	// BuildReply encodes an abstract reply for an action as a packet of its
	// own: AppendReply(nil, action, abs).
	BuildReply(action string, abs *message.Message) ([]byte, error)
	// AppendReply encodes an abstract reply for an action as a packet
	// appended to dst. On an error dst comes back as it was.
	AppendReply(dst []byte, action string, abs *message.Message) ([]byte, error)
	// Framer returns the wire framer for this protocol.
	Framer() network.Framer
}

// ErrorReplier is an optional Binder capability: building a
// protocol-level error reply (an XML-RPC fault, a SOAP Fault, a JSON-RPC
// error, a GIOP system exception, an HTTP 500) so that a mediation
// failure reaches the client as a proper fault instead of a dropped
// connection. req is the abstract request being answered, whose ID the
// fault is correlated by; it may be nil.
type ErrorReplier interface {
	// BuildErrorReply encodes a fault for the given action.
	BuildErrorReply(action string, req *message.Message, errMsg string) ([]byte, error)
}

// Projector is an optional Binder capability: parsing a reply into only
// the fields its readers look at. Project returns a binder that does: of
// the reply of each action keep names, it makes every top-level field,
// each field one of the action's paths names — a dotted label path below
// the message, "" naming the message itself — with all that field holds,
// and each field on the way to one, and it may leave out the rest; the
// reply of an action keep does not name it makes whole. What Project is
// called on is not changed, and the binder it returns parses what that
// binder parses, accepting and refusing the same packets.
type Projector interface {
	Project(keep map[string][]string) Binder
}

// bodies pools the buffers the HTTP binders render a body into. A body is
// written before the head that states its length, so it cannot be written
// where it will stand; the HTTP composer copies it behind the head, into
// the caller's buffer or the one allocation the packet costs.
var bodies = sync.Pool{New: func() any { return new([]byte) }}

// getBody returns an empty body buffer; give it back with putBody once the
// packet that holds a copy of it is composed.
func getBody() *[]byte { return bodies.Get().(*[]byte) }

func putBody(buf *[]byte) {
	if cap(*buf) <= bufpool.MaxRetain {
		*buf = (*buf)[:0]
		bodies.Put(buf)
	}
}

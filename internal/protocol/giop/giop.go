// Package giop implements the GIOP 1.0 wire protocol (the IIOP message
// layer) with CDR marshalling: the binary middleware of the paper's
// Figs. 4, 5 and 7. Message layouts are described in MDL and compiled
// by the binary engine — the same spec the mediator loads — and a small
// client/server pair provides the CORBA-style substrate for the Add/Plus
// case study.
package giop

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"starlink/internal/mdl"
	"starlink/internal/mdl/binenc"
	"starlink/internal/message"
	"starlink/internal/network"
	"starlink/models"
)

// Reply status codes (subset of GIOP).
const (
	StatusNoException     = 0
	StatusUserException   = 1
	StatusSystemException = 2
)

// Errors reported by the GIOP layer.
var (
	// ErrRemote is wrapped around exceptions raised by the server.
	ErrRemote = errors.New("giop: remote exception")
	// ErrProtocol is wrapped by protocol violations.
	ErrProtocol = errors.New("giop: protocol error")
)

// NewCodec returns the codec of the GIOP MDL document, models/giop.mdl
// (Fig. 5, with the cdrseq parameter encoding described in package
// binenc). The embedded file is parsed and compiled on the first call;
// the codec keeps no state between messages, so every client, server and
// binder of the process shares it.
func NewCodec() (mdl.Codec, error) { return compiled() }

var compiled = sync.OnceValues(func() (mdl.Codec, error) {
	doc, err := models.FS.ReadFile("giop.mdl")
	if err != nil {
		return nil, fmt.Errorf("giop: %w", err)
	}
	spec, err := mdl.ParseString(string(doc))
	if err != nil {
		return nil, fmt.Errorf("giop: parse MDL: %w", err)
	}
	return binenc.New(spec)
})

// Param helpers for building CDR parameter lists.

// IntParam returns an int parameter field.
func IntParam(v int64) *message.Field {
	return message.NewInt64("Parameter", v)
}

// StringParam returns a string parameter field.
func StringParam(s string) *message.Field {
	return message.NewString("Parameter", s)
}

// BoolParam returns a bool parameter field.
func BoolParam(b bool) *message.Field {
	return message.NewBool("Parameter", b)
}

// DoubleParam returns a double parameter field.
func DoubleParam(f float64) *message.Field {
	return message.NewFloat64("Parameter", f)
}

// NewRequest builds a GIOPRequest abstract message of its own:
// NewRequestIn(nil, …).
func NewRequest(requestID uint64, objectKey, operation string, params []*message.Field) *message.Message {
	return NewRequestIn(nil, requestID, objectKey, operation, params)
}

// NewRequestIn builds a GIOPRequest abstract message in st.
func NewRequestIn(st *message.Store, requestID uint64, objectKey, operation string, params []*message.Field) *message.Message {
	msg, body := newMessage(st, "GIOPRequest", 0, requestID, 4)
	body[0].Label = "Response"
	body[0].SetUint64(1)
	body[1].Label = "ObjectKey"
	st.SetBytes(&body[1], []byte(objectKey))
	body[2].Label = "Operation"
	body[2].SetText(operation)
	body[3].Label, body[3].Type, body[3].Children = "ParameterArray", message.TypeArray, params
	return msg
}

// NewReply builds a GIOPReply abstract message of its own:
// NewReplyIn(nil, …).
func NewReply(requestID uint64, status uint64, results []*message.Field) *message.Message {
	return NewReplyIn(nil, requestID, status, results)
}

// NewReplyIn builds a GIOPReply abstract message in st.
func NewReplyIn(st *message.Store, requestID uint64, status uint64, results []*message.Field) *message.Message {
	msg, body := newMessage(st, "GIOPReply", 1, requestID, 2)
	body[0].Label = "ReplyStatus"
	body[0].SetUint64(status)
	body[1].Label, body[1].Type, body[1].Children = "ParameterArray", message.TypeArray, results
	return msg
}

// newMessage carves a message from one slab of st's nodes — the GIOP
// header, the request id, then rest fields of the message's own, which it
// returns for the caller to fill — and one list that points at them.
func newMessage(st *message.Store, name string, messageType, requestID uint64, rest int) (*message.Message, []message.Field) {
	header := [...]struct {
		label string
		value uint64
	}{
		{"VersionMajor", 1}, {"VersionMinor", 0}, {"Flags", 0},
		{"MessageType", messageType}, {"MessageSize", 0}, {"RequestID", requestID},
	}
	nodes := st.Nodes(1 + len(header) + rest)
	fields := st.Links(len(nodes))
	for i := range nodes {
		fields[i] = &nodes[i]
	}
	nodes[0].Label = "Magic"
	nodes[0].SetText("GIOP")
	for i, h := range header {
		nodes[1+i].Label = h.label
		nodes[1+i].SetUint64(h.value)
	}
	msg := st.Message(name)
	msg.Fields = fields
	return msg, nodes[1+len(header):]
}

// Client invokes operations on a remote GIOP object.
type Client struct {
	conn      network.Conn
	codec     mdl.Codec
	objectKey string
	nextID    uint64
	timeout   time.Duration
}

// Dial connects to a GIOP server and targets objectKey.
func Dial(addr, objectKey string) (*Client, error) {
	codec, err := NewCodec()
	if err != nil {
		return nil, err
	}
	var eng network.Engine
	conn, err := eng.Dial(network.Semantics{Transport: "tcp"}, addr, network.GIOPFramer{})
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, codec: codec, objectKey: objectKey, nextID: 1, timeout: 10 * time.Second}, nil
}

// Invoke calls operation synchronously (the IIOP client behaviour of
// Fig. 4a) and returns the reply parameters.
func (c *Client) Invoke(operation string, params ...*message.Field) ([]*message.Field, error) {
	id := c.nextID
	c.nextID++
	wire, err := c.codec.Compose(NewRequest(id, c.objectKey, operation, params))
	if err != nil {
		return nil, fmt.Errorf("giop: compose %s: %w", operation, err)
	}
	if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		return nil, err
	}
	if err := c.conn.Send(wire); err != nil {
		return nil, fmt.Errorf("giop: send %s: %w", operation, err)
	}
	data, err := c.conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("giop: recv reply for %s: %w", operation, err)
	}
	reply, err := c.codec.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("giop: parse reply: %w", err)
	}
	if reply.Name != "GIOPReply" {
		return nil, fmt.Errorf("%w: expected GIOPReply, got %s", ErrProtocol, reply.Name)
	}
	gotID, _ := reply.GetInt("RequestID")
	if uint64(gotID) != id {
		return nil, fmt.Errorf("%w: reply id %d for request %d", ErrProtocol, gotID, id)
	}
	status, _ := reply.GetInt("ReplyStatus")
	arr, err := reply.Lookup("ParameterArray")
	if err != nil {
		return nil, fmt.Errorf("%w: reply without parameters", ErrProtocol)
	}
	if status != StatusNoException {
		msg := "unknown"
		if len(arr.Children) > 0 {
			msg = arr.Children[0].ValueString()
		}
		return nil, fmt.Errorf("%w: status %d: %s", ErrRemote, status, msg)
	}
	return arr.Children, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Handler serves one operation invocation. Returning an error raises a
// system exception carrying the error text.
type Handler func(objectKey, operation string, params []*message.Field) ([]*message.Field, error)

// Server is a GIOP server: one handler dispatched for every request.
// Close stops accepting and joins all connection goroutines.
type Server = network.Server

// Serve binds addr and serves h in the background.
func Serve(addr string, h Handler) (*Server, error) {
	codec, err := NewCodec()
	if err != nil {
		return nil, err
	}
	var eng network.Engine
	l, err := eng.Listen(network.Semantics{Transport: "tcp"}, addr, network.GIOPFramer{})
	if err != nil {
		return nil, err
	}
	return network.Serve(l, func(conn network.Conn) {
		for {
			data, err := conn.Recv()
			if err != nil {
				return
			}
			wire, err := codec.Compose(handleRequest(codec, h, data))
			if err != nil {
				return
			}
			if err := conn.Send(wire); err != nil {
				return
			}
		}
	}), nil
}

func handleRequest(codec mdl.Codec, h Handler, data []byte) *message.Message {
	req, err := codec.Parse(data)
	if err != nil || req.Name != "GIOPRequest" {
		return NewReply(0, StatusSystemException, []*message.Field{StringParam("malformed request")})
	}
	id, _ := req.GetInt("RequestID")
	op, _ := req.GetString("Operation")
	keyField := req.Field("ObjectKey")
	key := ""
	if keyField != nil {
		key = keyField.ValueString()
	}
	var params []*message.Field
	if arr, err := req.Lookup("ParameterArray"); err == nil {
		params = arr.Children
	}
	results, err := h(key, op, params)
	if err != nil {
		return NewReply(uint64(id), StatusSystemException, []*message.Field{StringParam(err.Error())})
	}
	return NewReply(uint64(id), StatusNoException, results)
}

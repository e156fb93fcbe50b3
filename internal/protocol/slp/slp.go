// Package slp implements a Service Location Protocol (RFC 2608,
// simplified) substrate: the binary service-discovery middleware used to
// demonstrate Starlink on the discovery domain. The ICDCS'11 companion
// paper generated direct bridges between discovery protocols; here the
// same message layouts are described in binary MDL — exercising the
// <Repeat> group construct for the URL entries of a Service Reply — and a
// small Directory Agent plus client run over UDP.
package slp

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"starlink/internal/mdl"
	"starlink/internal/mdl/binenc"
	"starlink/internal/message"
	"starlink/internal/network"
)

// MDLDoc describes the SLP v2 Service Request and Service Reply layouts.
const MDLDoc = `
# SLP v2 (RFC 2608, simplified) message formats
<MDL:SLP:binary>
<Message:ServiceRequest>
<Rule:Version=2>
<Rule:FunctionID=1>
<Version:8><FunctionID:8>
<XID:16>
<PRListLen:16><PRList:PRListLen:string>
<ServiceTypeLen:16><ServiceType:ServiceTypeLen:string>
<ScopeLen:16><Scope:ScopeLen:string>
<End:Message>

<Message:ServiceReply>
<Rule:Version=2>
<Rule:FunctionID=2>
<Version:8><FunctionID:8>
<XID:16>
<ErrorCode:16>
<URLCount:16>
<Repeat:URLEntries:URLCount>
<Reserved:8><Lifetime:16>
<URLLen:16><URL:URLLen:string>
<End:Repeat>
<End:Message>
`

// Function identifiers.
const (
	FnServiceRequest = 1
	FnServiceReply   = 2
)

// Errors reported by the SLP layer.
var (
	// ErrRemote is wrapped around non-zero reply error codes.
	ErrRemote = errors.New("slp: remote error")
	// ErrProtocol is wrapped by protocol violations.
	ErrProtocol = errors.New("slp: protocol error")
)

// NewCodec returns the codec of the SLP MDL document. The document is
// parsed and compiled on the first call; the codec keeps no state between
// messages, so every client, server and binder of the process shares it.
func NewCodec() (mdl.Codec, error) { return compiled() }

var compiled = sync.OnceValues(func() (mdl.Codec, error) {
	spec, err := mdl.ParseString(MDLDoc)
	if err != nil {
		return nil, fmt.Errorf("slp: parse MDL: %w", err)
	}
	return binenc.New(spec)
})

// URLEntry is one advertised service URL.
type URLEntry struct {
	// URL is the service URL ("service:printer:lpr://host").
	URL string
	// Lifetime is the advertisement lifetime in seconds.
	Lifetime uint16
}

// NewRequest builds a ServiceRequest abstract message.
func NewRequest(xid uint64, serviceType, scope string) *message.Message {
	return message.New("ServiceRequest",
		message.NewUint64("Version", 2),
		message.NewUint64("FunctionID", FnServiceRequest),
		message.NewUint64("XID", xid),
		message.NewString("PRList", ""),
		message.NewString("ServiceType", serviceType),
		message.NewString("Scope", scope),
	)
}

// NewReply builds a ServiceReply abstract message.
func NewReply(xid uint64, errorCode uint64, entries []URLEntry) *message.Message {
	arr := message.NewArray("URLEntries")
	for _, e := range entries {
		arr.Add(message.NewStruct("item",
			message.NewUint64("Reserved", 0),
			message.NewUint64("Lifetime", uint64(e.Lifetime)),
			message.NewString("URL", e.URL),
		))
	}
	return message.New("ServiceReply",
		message.NewUint64("Version", 2),
		message.NewUint64("FunctionID", FnServiceReply),
		message.NewUint64("XID", xid),
		message.NewUint64("ErrorCode", errorCode),
		arr,
	)
}

// EntriesOf extracts the URL entries from a parsed ServiceReply.
func EntriesOf(reply *message.Message) []URLEntry {
	arr, err := reply.Lookup("URLEntries")
	if err != nil {
		return nil
	}
	out := make([]URLEntry, 0, len(arr.Children))
	for _, item := range arr.Children {
		var e URLEntry
		if f := item.Child("URL"); f != nil {
			e.URL = f.ValueString()
		}
		if f := item.Child("Lifetime"); f != nil && f.Type == message.TypeUint64 {
			e.Lifetime = uint16(f.Uint64())
		}
		out = append(out, e)
	}
	return out
}

// DirectoryAgent is a minimal SLP DA: it answers ServiceRequests from its
// registration table over UDP.
type DirectoryAgent struct {
	codec mdl.Codec
	ep    network.PacketEndpoint

	mu       sync.Mutex
	services map[string][]URLEntry
	closed   bool
	done     chan struct{}
}

// NewDirectoryAgent binds a UDP socket and starts answering requests.
func NewDirectoryAgent(addr string) (*DirectoryAgent, error) {
	codec, err := NewCodec()
	if err != nil {
		return nil, err
	}
	var eng network.Engine
	ep, err := eng.ListenPacket(network.Semantics{Transport: "udp"}, addr)
	if err != nil {
		return nil, err
	}
	da := &DirectoryAgent{
		codec:    codec,
		ep:       ep,
		services: make(map[string][]URLEntry),
		done:     make(chan struct{}),
	}
	go da.serve()
	return da, nil
}

// Addr returns the agent's UDP address.
func (da *DirectoryAgent) Addr() string { return da.ep.LocalAddr().String() }

// Register advertises a service URL under a service type.
func (da *DirectoryAgent) Register(serviceType string, entry URLEntry) {
	da.mu.Lock()
	defer da.mu.Unlock()
	da.services[canon(serviceType)] = append(da.services[canon(serviceType)], entry)
}

func canon(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

func (da *DirectoryAgent) lookup(serviceType string) []URLEntry {
	da.mu.Lock()
	defer da.mu.Unlock()
	return append([]URLEntry(nil), da.services[canon(serviceType)]...)
}

func (da *DirectoryAgent) serve() {
	defer close(da.done)
	for {
		data, peer, err := da.ep.RecvFrom()
		if err != nil {
			return
		}
		reply, ok := da.handle(data)
		if !ok {
			continue
		}
		if err := da.ep.SendTo(reply, peer); err != nil {
			return
		}
	}
}

func (da *DirectoryAgent) handle(data []byte) ([]byte, bool) {
	msg, err := da.codec.Parse(data)
	if err != nil || msg.Name != "ServiceRequest" {
		return nil, false
	}
	xid, _ := msg.GetInt("XID")
	st, _ := msg.GetString("ServiceType")
	entries := da.lookup(st)
	var code uint64
	if len(entries) == 0 {
		code = 1 // LANGUAGE_NOT_SUPPORTED stands in for "no results" here
	}
	out, err := da.codec.Compose(NewReply(uint64(xid), code, entries))
	if err != nil {
		return nil, false
	}
	return out, true
}

// Close stops the agent.
func (da *DirectoryAgent) Close() error {
	da.mu.Lock()
	if da.closed {
		da.mu.Unlock()
		return nil
	}
	da.closed = true
	da.mu.Unlock()
	err := da.ep.Close()
	<-da.done
	return err
}

// Client issues ServiceRequests to a DA.
type Client struct {
	codec mdl.Codec
	conn  network.Conn
	// nextXID is as wide as the wire's <XID:16>, so it wraps where the
	// field does.
	nextXID uint16
	timeout time.Duration
}

// Dial connects a UDP client socket to a DA address.
func Dial(addr string) (*Client, error) {
	codec, err := NewCodec()
	if err != nil {
		return nil, err
	}
	var eng network.Engine
	conn, err := eng.Dial(network.Semantics{Transport: "udp"}, addr, nil)
	if err != nil {
		return nil, err
	}
	return &Client{codec: codec, conn: conn, nextXID: 1, timeout: 5 * time.Second}, nil
}

// Find requests the URLs registered under serviceType.
func (c *Client) Find(serviceType, scope string) ([]URLEntry, error) {
	xid := uint64(c.nextXID)
	c.nextXID++
	wire, err := c.codec.Compose(NewRequest(xid, serviceType, scope))
	if err != nil {
		return nil, err
	}
	if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		return nil, err
	}
	if err := c.conn.Send(wire); err != nil {
		return nil, err
	}
	data, err := c.conn.Recv()
	if err != nil {
		return nil, err
	}
	reply, err := c.codec.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	if reply.Name != "ServiceReply" {
		return nil, fmt.Errorf("%w: got %s", ErrProtocol, reply.Name)
	}
	if gotXID, _ := reply.GetInt("XID"); uint64(gotXID) != xid {
		return nil, fmt.Errorf("%w: XID %d for request %d", ErrProtocol, gotXID, xid)
	}
	if code, _ := reply.GetInt("ErrorCode"); code != 0 {
		return nil, fmt.Errorf("%w: code %d", ErrRemote, code)
	}
	return EntriesOf(reply), nil
}

// Close releases the client socket.
func (c *Client) Close() error { return c.conn.Close() }

package bind

import (
	"fmt"

	"starlink/internal/automata"
	"starlink/internal/message"
	"starlink/internal/network"
	"starlink/internal/protocol/httpwire"
	"starlink/internal/protocol/xmlrpc"
)

// XMLRPCBinder binds abstract actions to XML-RPC over HTTP.
//
// Binding rules (the Fig. 7 table, instantiated for XML-RPC):
//
//	?Action    = MethodCall.methodName
//	!Action    = the action of the pending call (XML-RPC replies carry none)
//	ParameterN = MethodCall.params.param[N]  — or, when the call follows the
//	             Flickr convention of one struct parameter, members by name
//
// Replies map generically: a struct result becomes one field per member,
// an array member becomes a structured field with one "item" child per
// element, a scalar result becomes the field "result".
type XMLRPCBinder struct {
	// Path is the HTTP endpoint path.
	Path string
	// Defs names positional request parameters (from the API usage
	// automaton's message templates).
	Defs map[string]automata.MsgDef
}

var _ Binder = (*XMLRPCBinder)(nil)

// Framer implements Binder.
func (b *XMLRPCBinder) Framer() network.Framer { return network.HTTPFramer{} }

// ParseRequest implements Binder.
func (b *XMLRPCBinder) ParseRequest(packet []byte) (string, *message.Message, error) {
	return b.ParseRequestIn(nil, packet)
}

// ParseRequestIn implements Binder: the HTTP head is checked where it
// stands, and the call decoded straight into the abstract fields
// (xmlrpc.ParseCallFields).
func (b *XMLRPCBinder) ParseRequestIn(st *message.Store, packet []byte) (string, *message.Message, error) {
	_, body, err := httpwire.RequestBody(packet)
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	action, fields, err := xmlrpc.ParseCallFields(st, body, b.paramNames)
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	abs := st.Message(action)
	abs.Fields = fields
	return action, abs, nil
}

// paramNames names an action's positional parameters.
func (b *XMLRPCBinder) paramNames(action string) []string { return b.Defs[action].Fields }

// BuildRequest implements Binder.
func (b *XMLRPCBinder) BuildRequest(action string, abs *message.Message) ([]byte, error) {
	return b.AppendRequest(nil, action, abs)
}

// AppendRequest implements Binder: the abstract fields become the members
// of a single struct parameter (the Flickr calling convention), written
// from the fields as they are.
func (b *XMLRPCBinder) AppendRequest(dst []byte, action string, abs *message.Message) ([]byte, error) {
	buf := getBody()
	defer putBody(buf)
	var err error
	if *buf, err = xmlrpc.AppendFieldCall(*buf, action, abs.Fields); err != nil {
		return dst, err
	}
	req := &httpwire.Request{
		Method:  "POST",
		Target:  b.Path,
		Headers: httpwire.Headers{{Name: "Content-Type", Value: "text/xml"}},
		Body:    *buf,
	}
	return req.AppendTo(dst), nil
}

// ParseReply implements Binder.
func (b *XMLRPCBinder) ParseReply(action string, packet []byte) (*message.Message, error) {
	return b.ParseReplyIn(nil, action, packet)
}

// ParseReplyIn implements Binder, as ParseRequestIn does.
func (b *XMLRPCBinder) ParseReplyIn(st *message.Store, action string, packet []byte) (*message.Message, error) {
	_, body, err := httpwire.ResponseBody(packet)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	fields, err := xmlrpc.ParseResponseFields(st, body)
	if err != nil {
		return nil, fmt.Errorf("parse %s reply: %w", action, err)
	}
	abs := st.Message(action + ".reply")
	abs.Fields = fields
	return abs, nil
}

// BuildReply implements Binder.
func (b *XMLRPCBinder) BuildReply(action string, abs *message.Message) ([]byte, error) {
	return b.AppendReply(nil, action, abs)
}

// AppendReply implements Binder: abstract fields become a struct result,
// a lone field "result" the result itself.
func (b *XMLRPCBinder) AppendReply(dst []byte, _ string, abs *message.Message) ([]byte, error) {
	buf := getBody()
	defer putBody(buf)
	var err error
	if len(abs.Fields) == 1 && abs.Fields[0].Label == "result" {
		*buf, err = xmlrpc.AppendFieldResponse(*buf, abs.Fields[0])
	} else {
		*buf, err = xmlrpc.AppendStructResponse(*buf, abs.Fields)
	}
	if err != nil {
		return dst, err
	}
	resp := &httpwire.Response{
		Status:  200,
		Headers: httpwire.Headers{{Name: "Content-Type", Value: "text/xml"}},
		Body:    *buf,
	}
	return resp.AppendTo(dst), nil
}

// BuildErrorReply implements ErrorReplier with an XML-RPC fault.
func (b *XMLRPCBinder) BuildErrorReply(action string, _ *message.Message, errMsg string) ([]byte, error) {
	body, err := xmlrpc.MarshalFault(&xmlrpc.Fault{Code: 500, Message: "mediation failed: " + errMsg})
	if err != nil {
		return nil, err
	}
	resp := &httpwire.Response{
		Status:  200,
		Headers: httpwire.Headers{{Name: "Content-Type", Value: "text/xml"}},
		Body:    body,
	}
	return resp.Marshal(), nil
}

var _ ErrorReplier = (*XMLRPCBinder)(nil)

package bind

import (
	"fmt"

	"starlink/internal/message"
	"starlink/internal/network"
	"starlink/internal/protocol/httpwire"
	"starlink/internal/protocol/soap"
)

// SOAPBinder binds abstract actions to SOAP 1.1 RPC envelopes over HTTP.
//
// Binding rules (the Fig. 7 table for SOAP):
//
//	!Action    = SOAPRequest.MethodName  (the body element)
//	?Action    = SOAPReply.MethodName
//	ParameterN = SOAPRequest.ParameterArray.ParameterN (named body children)
//
// Abstract request fields map one-to-one onto named parameter elements;
// repeated reply parameters become repeated abstract fields.
type SOAPBinder struct {
	// Path is the HTTP endpoint path.
	Path string
}

var _ Binder = (*SOAPBinder)(nil)

// Framer implements Binder.
func (b *SOAPBinder) Framer() network.Framer { return network.HTTPFramer{} }

// ParseRequest implements Binder.
func (b *SOAPBinder) ParseRequest(packet []byte) (string, *message.Message, error) {
	return b.ParseRequestIn(nil, packet)
}

// ParseRequestIn implements Binder: the HTTP head is checked where it
// stands, and the envelope's parameters decoded straight into fields.
func (b *SOAPBinder) ParseRequestIn(st *message.Store, packet []byte) (string, *message.Message, error) {
	_, body, err := httpwire.RequestBody(packet)
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	action, fields, err := soap.ParseRequestFields(st, body)
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	abs := st.Message(action)
	abs.Fields = fields
	return action, abs, nil
}

// BuildRequest implements Binder.
func (b *SOAPBinder) BuildRequest(action string, abs *message.Message) ([]byte, error) {
	return b.AppendRequest(nil, action, abs)
}

// AppendRequest implements Binder: the envelope is rendered into a pooled
// body buffer, and the packet written behind its head.
func (b *SOAPBinder) AppendRequest(dst []byte, action string, abs *message.Message) ([]byte, error) {
	body := getBody()
	defer putBody(body)
	var err error
	if *body, err = soap.AppendRequestFields(*body, action, abs.Fields); err != nil {
		return dst, err
	}
	req := &httpwire.Request{
		Method: "POST",
		Target: b.Path,
		Headers: httpwire.Headers{
			{Name: "Content-Type", Value: "text/xml; charset=utf-8"},
			{Name: "SOAPAction", Value: `"` + action + `"`},
		},
		Body: *body,
	}
	return req.AppendTo(dst), nil
}

// ParseReply implements Binder.
func (b *SOAPBinder) ParseReply(action string, packet []byte) (*message.Message, error) {
	return b.ParseReplyIn(nil, action, packet)
}

// ParseReplyIn implements Binder, as ParseRequestIn does.
func (b *SOAPBinder) ParseReplyIn(st *message.Store, action string, packet []byte) (*message.Message, error) {
	_, body, err := httpwire.ResponseBody(packet)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	_, fields, err := soap.ParseResponseFields(st, body)
	if err != nil {
		return nil, fmt.Errorf("parse %s reply: %w", action, err)
	}
	abs := st.Message(action + ".reply")
	abs.Fields = fields
	return abs, nil
}

// BuildReply implements Binder.
func (b *SOAPBinder) BuildReply(action string, abs *message.Message) ([]byte, error) {
	return b.AppendReply(nil, action, abs)
}

// AppendReply implements Binder, as AppendRequest does.
func (b *SOAPBinder) AppendReply(dst []byte, action string, abs *message.Message) ([]byte, error) {
	body := getBody()
	defer putBody(body)
	var err error
	if *body, err = soap.AppendResponseFields(*body, action, abs.Fields); err != nil {
		return dst, err
	}
	resp := &httpwire.Response{
		Status:  200,
		Headers: httpwire.Headers{{Name: "Content-Type", Value: "text/xml; charset=utf-8"}},
		Body:    *body,
	}
	return resp.AppendTo(dst), nil
}

// BuildErrorReply implements ErrorReplier with a SOAP Fault.
func (b *SOAPBinder) BuildErrorReply(action string, _ *message.Message, errMsg string) ([]byte, error) {
	body, err := soap.MarshalFault(&soap.Fault{Code: "Server", Message: "mediation failed: " + errMsg})
	if err != nil {
		return nil, err
	}
	resp := &httpwire.Response{
		Status:  500,
		Headers: httpwire.Headers{{Name: "Content-Type", Value: "text/xml; charset=utf-8"}},
		Body:    body,
	}
	return resp.Marshal(), nil
}

var _ ErrorReplier = (*SOAPBinder)(nil)

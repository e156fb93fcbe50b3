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
	req, err := httpwire.ParseRequest(packet)
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	action, params, err := xmlrpc.ParseCall(req.Body)
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	abs := message.New(action)
	if len(params) == 1 {
		if st, ok := params[0].(map[string]xmlrpc.Value); ok {
			abs.Fields = membersToFields(st)
			return action, abs, nil
		}
	}
	names := b.Defs[action].Fields
	for i, p := range params {
		var label string
		if i < len(names) {
			label = names[i]
		} else {
			label = fmt.Sprintf("param%d", i+1)
		}
		abs.Add(valueToField(label, p))
	}
	return action, abs, nil
}

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
	resp, err := httpwire.ParseResponse(packet)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	result, err := xmlrpc.ParseResponse(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parse %s reply: %w", action, err)
	}
	abs := message.New(action + ".reply")
	switch v := result.(type) {
	case map[string]xmlrpc.Value:
		abs.Fields = membersToFields(v)
	default:
		abs.Add(valueToField("result", result))
	}
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

// valueToField maps an XML-RPC value onto the abstract field convention;
// the way back is written, not built: xmlrpc.AppendFieldCall and its like.
func valueToField(label string, v xmlrpc.Value) *message.Field {
	switch x := v.(type) {
	case map[string]xmlrpc.Value:
		return message.NewStruct(label, membersToFields(x)...)
	case []xmlrpc.Value:
		items := make([]*message.Field, len(x))
		for i, e := range x {
			items[i] = valueToField("item", e)
		}
		return message.NewArray(label, items...)
	case string:
		return message.NewString(label, x)
	case int64:
		return message.NewInt64(label, x)
	case bool:
		return message.NewBool(label, x)
	case float64:
		return message.NewFloat64(label, x)
	default:
		return message.NewString(label, fmt.Sprint(x))
	}
}

// membersToFields maps a struct's members onto one field each, in the
// order of their names.
func membersToFields(st map[string]xmlrpc.Value) []*message.Field {
	var buf [16]string
	fields := make([]*message.Field, 0, len(st))
	for _, k := range sortedKeys(buf[:0], st) {
		fields = append(fields, valueToField(k, st[k]))
	}
	return fields
}

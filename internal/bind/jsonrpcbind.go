package bind

import (
	"fmt"
	"sync/atomic"

	"starlink/internal/automata"
	"starlink/internal/message"
	"starlink/internal/network"
	"starlink/internal/protocol/httpwire"
	"starlink/internal/protocol/jsonrpc"
)

// JSONRPCBinder binds abstract actions to JSON-RPC 1.0 over HTTP. Like
// the XML-RPC binder it supports both the single-object-parameter
// convention (members become named abstract fields) and positional
// parameters named from the API usage automaton's MsgDefs.
type JSONRPCBinder struct {
	// Path is the HTTP endpoint path.
	Path string
	// Defs names positional request parameters.
	Defs map[string]automata.MsgDef

	nextID atomic.Uint64
}

var _ Binder = (*JSONRPCBinder)(nil)

// Framer implements Binder.
func (b *JSONRPCBinder) Framer() network.Framer { return network.HTTPFramer{} }

// ParseRequest implements Binder.
func (b *JSONRPCBinder) ParseRequest(packet []byte) (string, *message.Message, error) {
	return b.ParseRequestIn(nil, packet)
}

// ParseRequestIn implements Binder: the HTTP head is checked where it
// stands, and the fields are made in st.
func (b *JSONRPCBinder) ParseRequestIn(st *message.Store, packet []byte) (string, *message.Message, error) {
	_, body, err := httpwire.RequestBody(packet)
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	id, action, params, err := jsonrpc.ParseCall(body)
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	abs := st.Message(action)
	abs.ID = id
	if len(params) == 1 {
		if obj, ok := params[0].(map[string]any); ok {
			abs.Fields = membersToFields(st, obj)
			return action, abs, nil
		}
	}
	names := b.Defs[action].Fields
	abs.Fields = links(st, len(params))
	for i, p := range params {
		label := fmt.Sprintf("param%d", i+1)
		if i < len(names) {
			label = names[i]
		}
		abs.Fields[i] = jsonToField(st, label, p)
	}
	return action, abs, nil
}

// BuildRequest implements Binder.
func (b *JSONRPCBinder) BuildRequest(action string, abs *message.Message) ([]byte, error) {
	return b.AppendRequest(nil, action, abs)
}

// AppendRequest implements Binder: abstract fields become one object
// parameter.
func (b *JSONRPCBinder) AppendRequest(dst []byte, action string, abs *message.Message) ([]byte, error) {
	obj := map[string]any{}
	for _, f := range abs.Fields {
		obj[f.Label] = fieldToJSON(f)
	}
	body, err := jsonrpc.MarshalCall(b.nextID.Add(1), action, obj)
	if err != nil {
		return dst, err
	}
	req := &httpwire.Request{
		Method:  "POST",
		Target:  b.Path,
		Headers: httpwire.Headers{{Name: "Content-Type", Value: "application/json"}},
		Body:    body,
	}
	return req.AppendTo(dst), nil
}

// ParseReply implements Binder.
func (b *JSONRPCBinder) ParseReply(action string, packet []byte) (*message.Message, error) {
	return b.ParseReplyIn(nil, action, packet)
}

// ParseReplyIn implements Binder, as ParseRequestIn does.
func (b *JSONRPCBinder) ParseReplyIn(st *message.Store, action string, packet []byte) (*message.Message, error) {
	_, body, err := httpwire.ResponseBody(packet)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	_, result, err := jsonrpc.ParseResponse(body)
	if err != nil {
		return nil, fmt.Errorf("parse %s reply: %w", action, err)
	}
	abs := st.Message(action + ".reply")
	if v, ok := result.(map[string]any); ok {
		abs.Fields = membersToFields(st, v)
	} else {
		abs.Fields = links(st, 1)
		abs.Fields[0] = jsonToField(st, "result", result)
	}
	return abs, nil
}

// BuildReply implements Binder.
func (b *JSONRPCBinder) BuildReply(action string, abs *message.Message) ([]byte, error) {
	return b.AppendReply(nil, action, abs)
}

// AppendReply implements Binder: the response takes abs.ID, the id of the
// request it answers.
func (b *JSONRPCBinder) AppendReply(dst []byte, _ string, abs *message.Message) ([]byte, error) {
	obj := map[string]any{}
	for _, f := range abs.Fields {
		obj[f.Label] = fieldToJSON(f)
	}
	var result any = obj
	if len(obj) == 1 {
		if v, ok := obj["result"]; ok {
			result = v
		}
	}
	body, err := jsonrpc.MarshalResult(abs.ID, result)
	if err != nil {
		return dst, err
	}
	resp := &httpwire.Response{
		Status:  200,
		Headers: httpwire.Headers{{Name: "Content-Type", Value: "application/json"}},
		Body:    body,
	}
	return resp.AppendTo(dst), nil
}

// BuildErrorReply implements ErrorReplier with a JSON-RPC error.
func (b *JSONRPCBinder) BuildErrorReply(action string, req *message.Message, errMsg string) ([]byte, error) {
	var id uint64
	if req != nil {
		id = req.ID
	}
	body, err := jsonrpc.MarshalError(id, "mediation failed: "+errMsg)
	if err != nil {
		return nil, err
	}
	resp := &httpwire.Response{
		Status:  200,
		Headers: httpwire.Headers{{Name: "Content-Type", Value: "application/json"}},
		Body:    body,
	}
	return resp.Marshal(), nil
}

var _ ErrorReplier = (*JSONRPCBinder)(nil)

// jsonToField maps a JSON value onto the abstract field convention, the
// field made in st.
func jsonToField(st *message.Store, label string, v any) *message.Field {
	f := &st.Nodes(1)[0]
	f.Label = label
	switch x := v.(type) {
	case map[string]any:
		f.Type, f.Children = message.TypeStruct, membersToFields(st, x)
	case []any:
		f.Type, f.Children = message.TypeArray, links(st, len(x))
		for i, e := range x {
			f.Children[i] = jsonToField(st, "item", e)
		}
	case string:
		f.SetText(x)
	case float64:
		// JSON numbers arrive as float64; keep integral values as ints so
		// MTL arithmetic and positional GIOP parameters stay exact.
		if x == float64(int64(x)) {
			f.SetInt64(int64(x))
		} else {
			f.SetFloat64(x)
		}
	case bool:
		f.SetBool(x)
	case nil:
		f.SetText("")
	default:
		f.SetText(fmt.Sprint(x))
	}
	return f
}

// membersToFields maps an object's members onto fields in key order.
func membersToFields(st *message.Store, obj map[string]any) []*message.Field {
	keys := sortedAnyKeys(obj)
	fields := links(st, len(keys))
	for i, k := range keys {
		fields[i] = jsonToField(st, k, obj[k])
	}
	return fields
}

// links is a list of n fields from st, nil when n is 0, as a list
// appended to from nothing is.
func links(st *message.Store, n int) []*message.Field {
	if n == 0 {
		return nil
	}
	return st.Links(n)
}

// fieldToJSON is the inverse mapping.
func fieldToJSON(f *message.Field) any {
	switch f.Type {
	case message.TypeInt32, message.TypeInt64:
		return f.Int64()
	case message.TypeUint32, message.TypeUint64:
		return f.Uint64()
	case message.TypeBool:
		return f.Bool()
	case message.TypeFloat64:
		return f.Float64()
	case message.TypeStruct, message.TypeArray:
		if f.Type == message.TypeArray || allChildrenShareLabel(f) {
			arr := make([]any, 0, len(f.Children))
			for _, c := range f.Children {
				arr = append(arr, fieldToJSON(c))
			}
			return arr
		}
		obj := map[string]any{}
		for _, c := range f.Children {
			obj[c.Label] = fieldToJSON(c)
		}
		return obj
	}
	return f.ValueString()
}

// allChildrenShareLabel reports whether f holds two or more children of
// one label: a repeated element, which is an array.
func allChildrenShareLabel(f *message.Field) bool {
	if len(f.Children) < 2 {
		return false
	}
	for _, c := range f.Children {
		if c.Label != f.Children[0].Label {
			return false
		}
	}
	return true
}

func sortedAnyKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

package xmlrpc

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"starlink/internal/mdl/xmlenc"
	"starlink/internal/message"
)

// oracle is how ParseCall and ParseResponse read a document before the
// xmlenc Reader: the whole field tree first, then a walk over it. It is
// the reference the fuzzers hold the token decoders against.
//
// irregular records that the walk met one of the two things the decoders
// now read differently on purpose (DESIGN.md, "The reader and its
// consumers"): an element read for its text that holds attributes or
// elements — the tree renders such a field as a bracketed list of its
// children, "[1 x]", which was never XML-RPC — or a response whose
// <params> come before a <fault>.
type oracle struct {
	irregular bool
}

func (o *oracle) text(f *message.Field) string {
	if !f.Type.Primitive() {
		o.irregular = true
	}
	return f.ValueString()
}

func (o *oracle) parseCall(data []byte) (method string, params []Value, err error) {
	root, err := xmlenc.DecodeTree(data)
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if root.Label != "methodCall" {
		return "", nil, fmt.Errorf("%w: root %q", ErrMalformed, root.Label)
	}
	mn := root.Child("methodName")
	if mn == nil {
		return "", nil, fmt.Errorf("%w: no methodName", ErrMalformed)
	}
	method = strings.TrimSpace(o.text(mn))
	if ps := root.Child("params"); ps != nil {
		for _, p := range ps.Children {
			if p.Label != "param" {
				continue
			}
			v, err := o.decodeValue(p.Child("value"))
			if err != nil {
				return "", nil, err
			}
			params = append(params, v)
		}
	}
	return method, params, nil
}

func (o *oracle) parseResponse(data []byte) (Value, error) {
	root, err := xmlenc.DecodeTree(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if root.Label != "methodResponse" {
		return nil, fmt.Errorf("%w: root %q", ErrMalformed, root.Label)
	}
	if fl := root.Child("fault"); fl != nil {
		for _, c := range root.Children {
			if c == fl {
				break
			}
			if c.Label == "params" {
				o.irregular = true
			}
		}
		v, err := o.decodeValue(fl.Child("value"))
		if err != nil {
			return nil, err
		}
		st, ok := v.(map[string]Value)
		if !ok {
			return nil, fmt.Errorf("%w: fault payload %T", ErrMalformed, v)
		}
		f := &Fault{Message: str(st["faultString"])}
		if c, ok := st["faultCode"].(int64); ok {
			f.Code = int(c)
		}
		return nil, f
	}
	ps := root.Child("params")
	if ps == nil || ps.Child("param") == nil {
		return nil, fmt.Errorf("%w: no params in response", ErrMalformed)
	}
	return o.decodeValue(ps.Child("param").Child("value"))
}

func (o *oracle) decodeValue(val *message.Field) (Value, error) {
	if val == nil {
		return nil, fmt.Errorf("%w: missing <value>", ErrMalformed)
	}
	// A bare <value>text</value> is a string.
	if val.Type.Primitive() {
		return val.ValueString(), nil
	}
	if len(val.Children) == 0 {
		return "", nil
	}
	typed := val.Children[0]
	if typed.Label == "#text" {
		return typed.ValueString(), nil
	}
	switch typed.Label {
	case "string":
		return o.text(typed), nil
	case "int", "i4":
		n, err := strconv.ParseInt(strings.TrimSpace(o.text(typed)), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: int %q", ErrMalformed, typed.ValueString())
		}
		return n, nil
	case "boolean":
		return strings.TrimSpace(o.text(typed)) == "1", nil
	case "double":
		f, err := strconv.ParseFloat(strings.TrimSpace(o.text(typed)), 64)
		if err != nil {
			return nil, fmt.Errorf("%w: double %q", ErrMalformed, typed.ValueString())
		}
		return f, nil
	case "array":
		var out []Value
		data := typed.Child("data")
		if data == nil {
			return nil, fmt.Errorf("%w: array without data", ErrMalformed)
		}
		for _, e := range data.Children {
			if e.Label != "value" {
				continue
			}
			v, err := o.decodeValue(e)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	case "struct":
		out := map[string]Value{}
		for _, m := range typed.Children {
			if m.Label != "member" {
				continue
			}
			name := m.Child("name")
			if name == nil {
				return nil, fmt.Errorf("%w: member without name", ErrMalformed)
			}
			v, err := o.decodeValue(m.Child("value"))
			if err != nil {
				return nil, err
			}
			out[o.text(name)] = v
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: unknown value type %q", ErrMalformed, typed.Label)
	}
}

// sameValue is reflect.DeepEqual for Values, except that a double read
// from "NaN" is the same as another.
func sameValue(a, b Value) bool {
	switch x := a.(type) {
	case []Value:
		y, ok := b.([]Value)
		if !ok || len(x) != len(y) || (x == nil) != (y == nil) {
			return false
		}
		for i := range x {
			if !sameValue(x[i], y[i]) {
				return false
			}
		}
		return true
	case map[string]Value:
		y, ok := b.(map[string]Value)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, v := range x {
			if w, ok := y[k]; !ok || !sameValue(v, w) {
				return false
			}
		}
		return true
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	default:
		return a == b
	}
}

// Package xmlrpc implements the XML-RPC protocol over the httpwire
// substrate: encoding of methodCall/methodResponse documents, a client,
// and a dispatching server. A Flickr client in the case study speaks this
// protocol (Section 2.1).
package xmlrpc

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"starlink/internal/mdl/xmlenc"
	"starlink/internal/message"
	"starlink/internal/protocol/httpwire"
)

// Errors reported by the XML-RPC layer.
var (
	// ErrMalformed is wrapped by all decode failures.
	ErrMalformed = errors.New("xmlrpc: malformed message")
	// ErrNoSuchMethod is the fault raised for unregistered methods.
	ErrNoSuchMethod = errors.New("xmlrpc: no such method")
)

// Value is an XML-RPC value: string, int64, bool, float64, []Value
// (array) or map[string]Value (struct).
type Value any

// Fault is an XML-RPC fault response.
type Fault struct {
	// Code is the numeric fault code.
	Code int
	// Message describes the fault.
	Message string
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("xmlrpc fault %d: %s", f.Code, f.Message)
}

// MarshalCall renders a methodCall document.
func MarshalCall(method string, params ...Value) ([]byte, error) {
	w := xmlenc.NewDoc()
	w.Open("methodCall")
	w.Leaf("methodName", method)
	w.Open("params")
	for _, p := range params {
		w.Open("param")
		writeValue(w, p)
		w.Close()
	}
	w.Close()
	w.Close()
	return w.Doc()
}

// MarshalResponse renders a methodResponse document with one result.
func MarshalResponse(result Value) ([]byte, error) {
	w := xmlenc.NewDoc()
	w.Open("methodResponse")
	w.Open("params")
	w.Open("param")
	writeValue(w, result)
	w.Close()
	w.Close()
	w.Close()
	return w.Doc()
}

// MarshalFault renders a fault methodResponse.
func MarshalFault(f *Fault) ([]byte, error) {
	w := xmlenc.NewDoc()
	w.Open("methodResponse")
	w.Open("fault")
	writeValue(w, map[string]Value{
		"faultCode":   int64(f.Code),
		"faultString": f.Message,
	})
	w.Close()
	w.Close()
	return w.Doc()
}

// writeValue writes one <value> element. A value of a type XML-RPC has no
// element for fails the document.
func writeValue(w *xmlenc.Writer, v Value) {
	w.Open("value")
	switch x := v.(type) {
	case nil:
		w.Leaf("string", "")
	case string:
		w.Leaf("string", x)
	case int:
		w.Leaf("int", strconv.Itoa(x))
	case int64:
		w.Leaf("int", strconv.FormatInt(x, 10))
	case bool:
		b := "0"
		if x {
			b = "1"
		}
		w.Leaf("boolean", b)
	case float64:
		w.Leaf("double", strconv.FormatFloat(x, 'g', -1, 64))
	case []Value:
		w.Open("array")
		w.Open("data")
		for _, e := range x {
			writeValue(w, e)
		}
		w.Close()
		w.Close()
	case map[string]Value:
		w.Open("struct")
		for _, k := range sortedKeys(x) {
			w.Open("member")
			w.Leaf("name", k)
			writeValue(w, x[k])
			w.Close()
		}
		w.Close()
	default:
		w.Fail(fmt.Errorf("xmlrpc: cannot encode %T", v))
	}
	w.Close()
}

func sortedKeys(m map[string]Value) []string {
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

// ParseCall decodes a methodCall document.
func ParseCall(data []byte) (method string, params []Value, err error) {
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
	method = strings.TrimSpace(mn.ValueString())
	if ps := root.Child("params"); ps != nil {
		for _, p := range ps.Children {
			if p.Label != "param" {
				continue
			}
			v, err := decodeValue(p.Child("value"))
			if err != nil {
				return "", nil, err
			}
			params = append(params, v)
		}
	}
	return method, params, nil
}

// ParseResponse decodes a methodResponse document, returning the result
// or a *Fault as the error.
func ParseResponse(data []byte) (Value, error) {
	root, err := xmlenc.DecodeTree(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if root.Label != "methodResponse" {
		return nil, fmt.Errorf("%w: root %q", ErrMalformed, root.Label)
	}
	if fl := root.Child("fault"); fl != nil {
		v, err := decodeValue(fl.Child("value"))
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
	return decodeValue(ps.Child("param").Child("value"))
}

func str(v Value) string {
	if s, ok := v.(string); ok {
		return s
	}
	return fmt.Sprint(v)
}

func decodeValue(val *message.Field) (Value, error) {
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
		return typed.ValueString(), nil
	case "int", "i4":
		n, err := strconv.ParseInt(strings.TrimSpace(typed.ValueString()), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: int %q", ErrMalformed, typed.ValueString())
		}
		return n, nil
	case "boolean":
		return strings.TrimSpace(typed.ValueString()) == "1", nil
	case "double":
		f, err := strconv.ParseFloat(strings.TrimSpace(typed.ValueString()), 64)
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
			v, err := decodeValue(e)
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
			v, err := decodeValue(m.Child("value"))
			if err != nil {
				return nil, err
			}
			out[name.ValueString()] = v
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: unknown value type %q", ErrMalformed, typed.Label)
	}
}

// Client calls XML-RPC methods at a fixed HTTP endpoint.
type Client struct {
	http *httpwire.Client
	path string
}

// NewClient targets addr ("host:port") and path (e.g. "/services/xmlrpc").
func NewClient(addr, path string) *Client {
	return &Client{http: &httpwire.Client{Addr: addr}, path: path}
}

// Call invokes a method. A server fault is returned as *Fault.
func (c *Client) Call(method string, params ...Value) (Value, error) {
	body, err := MarshalCall(method, params...)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Post(c.path, "text/xml", body)
	if err != nil {
		return nil, fmt.Errorf("xmlrpc: call %s: %w", method, err)
	}
	if resp.Status != 200 {
		return nil, fmt.Errorf("xmlrpc: call %s: HTTP %d", method, resp.Status)
	}
	return ParseResponse(resp.Body)
}

// Close releases the client connection.
func (c *Client) Close() error { return c.http.Close() }

// Method handles one XML-RPC method.
type Method func(params []Value) (Value, *Fault)

// Server dispatches XML-RPC calls to registered methods.
type Server struct {
	http    *httpwire.Server
	methods map[string]Method
}

// NewServer starts an XML-RPC server at addr/path. Register methods in
// the handlers map; unknown methods yield fault 404.
func NewServer(addr, path string, handlers map[string]Method) (*Server, error) {
	s := &Server{methods: handlers}
	hs, err := httpwire.Serve(addr, func(req *httpwire.Request) *httpwire.Response {
		if req.Method != "POST" || req.Path() != path {
			return &httpwire.Response{Status: 404, Body: []byte("not an XML-RPC endpoint")}
		}
		return s.dispatch(req.Body)
	})
	if err != nil {
		return nil, err
	}
	s.http = hs
	return s, nil
}

func (s *Server) dispatch(body []byte) *httpwire.Response {
	method, params, err := ParseCall(body)
	if err != nil {
		return faultResponse(&Fault{Code: 400, Message: err.Error()})
	}
	h, ok := s.methods[method]
	if !ok {
		return faultResponse(&Fault{Code: 404, Message: ErrNoSuchMethod.Error() + ": " + method})
	}
	result, fault := h(params)
	if fault != nil {
		return faultResponse(fault)
	}
	out, err := MarshalResponse(result)
	if err != nil {
		return faultResponse(&Fault{Code: 500, Message: err.Error()})
	}
	return &httpwire.Response{
		Status:  200,
		Headers: map[string]string{"Content-Type": "text/xml"},
		Body:    out,
	}
}

func faultResponse(f *Fault) *httpwire.Response {
	out, err := MarshalFault(f)
	if err != nil {
		return &httpwire.Response{Status: 500, Body: []byte(err.Error())}
	}
	return &httpwire.Response{
		Status:  200,
		Headers: map[string]string{"Content-Type": "text/xml"},
		Body:    out,
	}
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.http.Addr() }

// Close shuts the server down.
func (s *Server) Close() error { return s.http.Close() }

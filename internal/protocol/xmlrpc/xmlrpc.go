// Package xmlrpc implements the XML-RPC protocol over the httpwire
// substrate: encoding of methodCall/methodResponse documents, a client,
// and a dispatching server. A Flickr client in the case study speaks this
// protocol (Section 2.1).
package xmlrpc

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

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
	w := beginCall(method)
	for _, p := range params {
		w.Open("param")
		writeValue(w, p)
		w.Close()
	}
	return end(w, nil, 2)
}

// MarshalResponse renders a methodResponse document with one result.
func MarshalResponse(result Value) ([]byte, error) {
	w := beginResponse()
	writeValue(w, result)
	return end(w, nil, 3)
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
	return end(w, nil, 2)
}

// AppendFieldCall appends to dst a methodCall document whose one parameter
// is a struct with the fields as members, written from the field trees as
// they are (see writeField): what MarshalCall renders of the same struct
// held as a map of Values, without the map.
func AppendFieldCall(dst []byte, method string, members []*message.Field) ([]byte, error) {
	w := beginCall(method)
	w.Open("param")
	writeMembers(w, members)
	return end(w, dst, 3)
}

// AppendFieldResponse appends to dst a methodResponse document whose result
// is the value of the field, whatever its label.
func AppendFieldResponse(dst []byte, result *message.Field) ([]byte, error) {
	w := beginResponse()
	writeField(w, result)
	return end(w, dst, 3)
}

// AppendStructResponse appends to dst a methodResponse document whose
// result is a struct with the fields as members.
func AppendStructResponse(dst []byte, members []*message.Field) ([]byte, error) {
	w := beginResponse()
	writeMembers(w, members)
	return end(w, dst, 3)
}

// beginCall starts a methodCall document, up to its first <param>.
func beginCall(method string) *xmlenc.Writer {
	w := xmlenc.NewDoc()
	w.Open("methodCall")
	w.Leaf("methodName", method)
	w.Open("params")
	return w
}

// beginResponse starts a methodResponse document, up to its result value.
func beginResponse() *xmlenc.Writer {
	w := xmlenc.NewDoc()
	w.Open("methodResponse")
	w.Open("params")
	w.Open("param")
	return w
}

// end closes the open elements of a document and appends it to dst.
func end(w *xmlenc.Writer, dst []byte, open int) ([]byte, error) {
	for ; open > 0; open-- {
		w.Close()
	}
	return w.AppendTo(dst)
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
		writeInt(w, int64(x))
	case int64:
		writeInt(w, x)
	case bool:
		writeBool(w, x)
	case float64:
		writeDouble(w, x)
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
		var buf [16]string
		keys := buf[:0]
		for k := range x {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
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

// The scalar elements, shared by the two writers. A number is formatted on
// the stack: Leaf does not keep its text.
func writeInt(w *xmlenc.Writer, n int64) {
	var buf [20]byte
	w.Leaf("int", string(strconv.AppendInt(buf[:0], n, 10)))
}

func writeDouble(w *xmlenc.Writer, f float64) {
	var buf [24]byte
	w.Leaf("double", string(strconv.AppendFloat(buf[:0], f, 'g', -1, 64)))
}

func writeBool(w *xmlenc.Writer, b bool) {
	if b {
		w.Leaf("boolean", "1")
	} else {
		w.Leaf("boolean", "0")
	}
}

// writeField writes a field tree as one <value> element, by the convention
// the binders keep between abstract fields and XML-RPC values, so that a
// mediator's reply goes from its fields to the wire without a Value tree in
// between. A primitive is the scalar its Go value is (string, int64, bool,
// float64) and otherwise a string of its text; an array field, or a
// structured field of two or more children that all bear one label, is an
// <array> of its children's values; any other structured field is a
// <struct> of them.
func writeField(w *xmlenc.Writer, f *message.Field) {
	if !f.Type.Primitive() {
		if f.Type != message.TypeArray && !repeated(f.Children) {
			writeMembers(w, f.Children)
			return
		}
		w.Open("value")
		w.Open("array")
		w.Open("data")
		for _, c := range f.Children {
			writeField(w, c)
		}
		w.Close()
		w.Close()
		w.Close()
		return
	}
	w.Open("value")
	switch f.Type {
	case message.TypeInt32, message.TypeInt64:
		writeInt(w, f.Int64())
	case message.TypeBool:
		writeBool(w, f.Bool())
	case message.TypeFloat64:
		writeDouble(w, f.Float64())
	default:
		w.Leaf("string", f.ValueString())
	}
	w.Close()
}

// repeated reports whether fields are two or more of one label.
func repeated(fields []*message.Field) bool {
	if len(fields) < 2 {
		return false
	}
	for _, f := range fields[1:] {
		if f.Label != fields[0].Label {
			return false
		}
	}
	return true
}

// writeMembers writes fields as one <value> holding a <struct> with a
// member per label, as a map of them would be written: in the order of the
// labels, and of two fields with one label the later.
func writeMembers(w *xmlenc.Writer, fields []*message.Field) {
	w.Open("value")
	w.Open("struct")
	var buf [16]*message.Field
	sorted := append(buf[:0], fields...)
	slices.SortStableFunc(sorted, func(a, b *message.Field) int { return strings.Compare(a.Label, b.Label) })
	for i, f := range sorted {
		if i+1 < len(sorted) && sorted[i+1].Label == f.Label {
			continue
		}
		w.Open("member")
		w.Leaf("name", f.Label)
		writeField(w, f)
		w.Close()
	}
	w.Close()
	w.Close()
}

// decoder reads a document's tokens straight into Values, by recursive
// descent; the Reader bounds the depth. An element the protocol does not
// name where it stands is skipped, and of two that may stand only once
// the first counts. Its scratch space is pooled, so a decode allocates
// only what the Values are made of.
type decoder struct {
	r *xmlenc.Reader
	// text holds the character data of a <value> until it is known to hold
	// no type element.
	text []byte
	// vals and members hold the elements of the arrays and structs being
	// read, innermost last, so that each is allocated once at its size.
	vals    []Value
	members []member
}

type member struct {
	name  string
	value Value
}

var decoders = sync.Pool{New: func() any { return new(decoder) }}

// A decoder that one large document has grown past this many pending
// values is not pooled again.
const maxRetainedVals = 4 << 10

func newDecoder(data []byte) *decoder {
	d := decoders.Get().(*decoder)
	d.r = xmlenc.NewReader(data)
	return d
}

func (d *decoder) release() {
	d.r.Release()
	if cap(d.vals) > maxRetainedVals || cap(d.members) > maxRetainedVals || cap(d.text) > maxRetainedVals {
		return
	}
	// Nothing pooled may pin a result. Every array and struct that was
	// completed has cleared its own; a decode that failed leaves some.
	clear(d.vals)
	clear(d.members)
	*d = decoder{text: d.text[:0], vals: d.vals[:0], members: d.members[:0]}
	decoders.Put(d)
}

// malformed makes a decode failure this package's: what the Reader
// reports is wrapped, what the decoder found wrong itself already is.
func malformed(err error) error {
	if err == nil || errors.Is(err, ErrMalformed) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrMalformed, err)
}

// ParseCall decodes a methodCall document.
func ParseCall(data []byte) (method string, params []Value, err error) {
	d := newDecoder(data)
	defer d.release()
	if method, params, err = d.call(); err != nil {
		return "", nil, malformed(err)
	}
	return method, params, nil
}

// ParseResponse decodes a methodResponse document, returning the result
// or a *Fault as the error. Of a <fault> and a <params> element the first
// decides which it is.
func ParseResponse(data []byte) (Value, error) {
	d := newDecoder(data)
	defer d.release()
	result, faulted, err := d.response()
	if err != nil {
		return nil, malformed(err)
	}
	if !faulted {
		return result, nil
	}
	st, ok := result.(map[string]Value)
	if !ok {
		return nil, fmt.Errorf("%w: fault payload %T", ErrMalformed, result)
	}
	f := &Fault{Message: str(st["faultString"])}
	if c, ok := st["faultCode"].(int64); ok {
		f.Code = int(c)
	}
	return nil, f
}

// root reads the root element's start tag, which must be named want.
func (d *decoder) root(want string) error {
	if _, err := d.r.Next(); err != nil {
		return err
	}
	if name := d.r.Name(); string(name) != want {
		return fmt.Errorf("%w: root %q", ErrMalformed, name)
	}
	return nil
}

// call reads a methodCall document.
func (d *decoder) call() (method string, params []Value, err error) {
	if err := d.root("methodCall"); err != nil {
		return "", nil, err
	}
	var named, listed bool
	for {
		name, err := d.r.Find("methodName", "params")
		switch {
		case err != nil:
			return "", nil, err
		case name == "":
			if !named {
				return "", nil, fmt.Errorf("%w: no methodName", ErrMalformed)
			}
			return method, params, nil
		case name == "methodName" && !named:
			named = true
			text, _, err := d.r.Content()
			if err != nil {
				return "", nil, err
			}
			method = string(bytes.TrimSpace(text))
		case name == "params" && !listed:
			listed = true
			if params, err = d.params(); err != nil {
				return "", nil, err
			}
		default:
			if err := d.r.Skip(); err != nil {
				return "", nil, err
			}
		}
	}
}

// response reads a methodResponse document: the value of its <fault>, or
// of the first <param> of its <params>.
func (d *decoder) response() (v Value, faulted bool, err error) {
	if err := d.root("methodResponse"); err != nil {
		return nil, false, err
	}
	which, err := d.r.Find("fault", "params")
	if err != nil {
		return nil, false, err
	}
	if which == "params" {
		if which, err = d.r.Find("param"); err != nil {
			return nil, false, err
		}
	}
	if which == "" {
		return nil, false, fmt.Errorf("%w: no params in response", ErrMalformed)
	}
	if v, err = d.firstValue(); err != nil {
		return nil, false, err
	}
	if which == "param" {
		if err := d.r.Skip(); err != nil { // the other <param>s
			return nil, false, err
		}
	}
	// The rest of the document has to be one, but says nothing more.
	return v, which == "fault", d.r.Skip()
}

func str(v Value) string {
	if s, ok := v.(string); ok {
		return s
	}
	return fmt.Sprint(v)
}

// params reads the open <params>: one value per <param>.
func (d *decoder) params() ([]Value, error) {
	mark := len(d.vals)
	for {
		name, err := d.r.Find("param")
		if err != nil {
			return nil, err
		}
		if name == "" {
			return d.popVals(mark), nil
		}
		v, err := d.firstValue()
		if err != nil {
			return nil, err
		}
		d.vals = append(d.vals, v)
	}
}

// firstValue reads the open element, a <param> or a <fault>, to its end:
// the first <value> in it.
func (d *decoder) firstValue() (Value, error) {
	if name, err := d.r.Find("value"); err != nil {
		return nil, err
	} else if name == "" {
		return nil, fmt.Errorf("%w: missing <value>", ErrMalformed)
	}
	v, err := d.value()
	if err != nil {
		return nil, err
	}
	return v, d.r.Skip()
}

// value reads the open <value>: the type element it holds, or, when it
// holds none, its text as a string.
func (d *decoder) value() (Value, error) {
	d.text = d.text[:0]
	for {
		switch tok, err := d.r.Next(); {
		case err != nil:
			return nil, err
		case tok == xmlenc.Text:
			// One run at most reaches the End: an element in between would
			// have been the type.
			d.text = append(d.text[:0], d.r.Text()...)
		case tok == xmlenc.End:
			return string(d.text), nil
		default:
			v, err := d.typed(d.r.Name())
			if err != nil {
				return nil, err
			}
			return v, d.r.Skip()
		}
	}
}

// typed reads the open type element of a <value>.
func (d *decoder) typed(kind []byte) (Value, error) {
	switch string(kind) {
	case "array":
		return d.array()
	case "struct":
		return d.structure()
	case "string", "int", "i4", "boolean", "double":
	default:
		return nil, fmt.Errorf("%w: unknown value type %q", ErrMalformed, kind)
	}
	text, _, err := d.r.Content()
	if err != nil {
		return nil, err
	}
	switch string(kind) {
	case "string":
		return string(text), nil
	case "boolean":
		return string(bytes.TrimSpace(text)) == "1", nil
	case "double":
		f, err := strconv.ParseFloat(string(bytes.TrimSpace(text)), 64)
		if err != nil {
			return nil, fmt.Errorf("%w: double %q", ErrMalformed, text)
		}
		return f, nil
	default:
		n, err := strconv.ParseInt(string(bytes.TrimSpace(text)), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: int %q", ErrMalformed, text)
		}
		return n, nil
	}
}

// array reads the open <array>: the values of its first <data>.
func (d *decoder) array() (Value, error) {
	if name, err := d.r.Find("data"); err != nil {
		return nil, err
	} else if name == "" {
		return nil, fmt.Errorf("%w: array without data", ErrMalformed)
	}
	mark := len(d.vals)
	for {
		name, err := d.r.Find("value")
		if err != nil {
			return nil, err
		}
		if name == "" {
			return d.popVals(mark), d.r.Skip()
		}
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		d.vals = append(d.vals, v)
	}
}

// popVals takes what was put on vals since mark as one slice of its size,
// nil when it is empty.
func (d *decoder) popVals(mark int) []Value {
	var out []Value
	if len(d.vals) > mark {
		out = append(make([]Value, 0, len(d.vals)-mark), d.vals[mark:]...)
		clear(d.vals[mark:])
	}
	d.vals = d.vals[:mark]
	return out
}

// structure reads the open <struct>; of two members with one name the
// later counts.
func (d *decoder) structure() (Value, error) {
	mark := len(d.members)
	for {
		name, err := d.r.Find("member")
		if err != nil {
			return nil, err
		}
		if name == "" {
			out := make(map[string]Value, len(d.members)-mark)
			for _, m := range d.members[mark:] {
				out[m.name] = m.value
			}
			clear(d.members[mark:])
			d.members = d.members[:mark]
			return out, nil
		}
		m, err := d.member()
		if err != nil {
			return nil, err
		}
		d.members = append(d.members, m)
	}
}

// member reads the open <member>: its first <name>, interned, and its
// first <value>, in either order.
func (d *decoder) member() (m member, err error) {
	var named, valued bool
	for {
		name, err := d.r.Find("name", "value")
		switch {
		case err != nil:
			return m, err
		case name == "":
			if !named {
				return m, fmt.Errorf("%w: member without name", ErrMalformed)
			}
			if !valued {
				return m, fmt.Errorf("%w: missing <value>", ErrMalformed)
			}
			return m, nil
		case name == "name" && !named:
			named = true
			text, _, err := d.r.Content()
			if err != nil {
				return m, err
			}
			m.name = d.r.Intern(text)
		case name == "value" && !valued:
			valued = true
			if m.value, err = d.value(); err != nil {
				return m, err
			}
		default:
			if err := d.r.Skip(); err != nil {
				return m, err
			}
		}
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
		Headers: httpwire.Headers{{Name: "Content-Type", Value: "text/xml"}},
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
		Headers: httpwire.Headers{{Name: "Content-Type", Value: "text/xml"}},
		Body:    out,
	}
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.http.Addr() }

// Close shuts the server down.
func (s *Server) Close() error { return s.http.Close() }

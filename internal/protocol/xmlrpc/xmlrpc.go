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

// decoder reads a document's tokens, by recursive descent, onto a tape of
// nodes: the grammar is written once, here, and the two results a caller
// can ask for — Values (ParseCall, ParseResponse) and abstract fields
// (ParseCallFields, ParseResponseFields) — are each one walk over the
// tape. The Reader bounds the depth. An element the protocol does not name
// where it stands is skipped, and of two that may stand only once the
// first counts. Its scratch space is pooled, so a decode allocates only
// what its result is made of.
type decoder struct {
	r *xmlenc.Reader
	// text holds the character data of a <value> until it is known to hold
	// no type element.
	text []byte
	// tape holds the values read, in document order: each array or struct
	// followed by the values it holds.
	tape []node
	// order is the fields walk's scratch: the members of the structs being
	// carved, innermost last.
	order []int
}

// node is one value on the tape: its type and scalar are f's, a
// TypeString, TypeInt64, TypeBool, TypeFloat64, TypeArray or TypeStruct
// field labelled with the name of the struct member the value is. An array
// or a struct holds the n values that follow it directly, and size counts
// the entries its whole value takes, itself included: the next value after
// it is size entries on.
type node struct {
	f    message.Field
	n    int
	size int
}

var decoders = sync.Pool{New: func() any { return new(decoder) }}

// A decoder that one large document has grown past this many tape entries
// is not pooled again.
const maxRetainedVals = 4 << 10

func newDecoder(data []byte) *decoder {
	d := decoders.Get().(*decoder)
	d.r = xmlenc.NewReader(data)
	return d
}

func (d *decoder) release() {
	d.r.Release()
	if cap(d.tape) > maxRetainedVals || cap(d.order) > maxRetainedVals || cap(d.text) > maxRetainedVals {
		return
	}
	// Nothing pooled may pin a result's strings.
	clear(d.tape)
	*d = decoder{text: d.text[:0], tape: d.tape[:0], order: d.order[:0]}
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
	n := 0
	if method, n, err = d.call(); err != nil {
		return "", nil, malformed(err)
	}
	if n > 0 {
		params = make([]Value, n)
		for i, at := 0, 0; i < n; i++ {
			params[i], at = d.value(at)
		}
	}
	return method, params, nil
}

// ParseResponse decodes a methodResponse document, returning the result
// or a *Fault as the error. Of a <fault> and a <params> element the first
// decides which it is.
func ParseResponse(data []byte) (Value, error) {
	d := newDecoder(data)
	defer d.release()
	faulted, err := d.response()
	if err != nil {
		return nil, malformed(err)
	}
	if faulted {
		return nil, d.fault()
	}
	result, _ := d.value(0)
	return result, nil
}

// ParseCallFields decodes a methodCall document straight into abstract
// fields, as the binders map XML-RPC onto them: a call whose one parameter
// is a struct gives its members; any other gives its parameters in order,
// each labelled with what names(method) has at its position, "paramN"
// beyond it. A struct is a TypeStruct field of its members, in the order of
// their names, and of two members with one name the later; an array a
// TypeArray field with an "item" child per element; an int, a boolean, a
// double and a string the field of that type. The nodes are carved from one
// slab and the child lists from another, each of the message's size.
func ParseCallFields(st *message.Store, data []byte, names func(method string) []string) (string, []*message.Field, error) {
	d := newDecoder(data)
	defer d.release()
	method, n, err := d.call()
	if err != nil {
		return "", nil, malformed(err)
	}
	label := names(method)
	return method, d.fields(st, n, func(i int) string {
		if i < len(label) {
			return label[i]
		}
		return "param" + strconv.Itoa(i+1)
	}), nil
}

// ParseResponseFields decodes a methodResponse document straight into
// abstract fields, mapped as ParseCallFields maps a call's: a struct result
// gives its members, any other result the one field "result". A fault is
// returned as ParseResponse returns it.
func ParseResponseFields(st *message.Store, data []byte) ([]*message.Field, error) {
	d := newDecoder(data)
	defer d.release()
	switch faulted, err := d.response(); {
	case err != nil:
		return nil, malformed(err)
	case faulted:
		return nil, d.fault()
	}
	return d.fields(st, 1, func(int) string { return "result" }), nil
}

// fault is the *Fault the value of a <fault> says, the one at the head of
// the tape.
func (d *decoder) fault() error {
	v, _ := d.value(0)
	st, ok := v.(map[string]Value)
	if !ok {
		return fmt.Errorf("%w: fault payload %T", ErrMalformed, v)
	}
	f := &Fault{Message: str(st["faultString"])}
	if c, ok := st["faultCode"].(int64); ok {
		f.Code = int(c)
	}
	return f
}

func str(v Value) string {
	if s, ok := v.(string); ok {
		return s
	}
	return fmt.Sprint(v)
}

// ---- the grammar: tokens onto the tape ----

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

// call reads a methodCall document: its method, and its parameters onto
// the tape, n values.
func (d *decoder) call() (method string, n int, err error) {
	if err := d.root("methodCall"); err != nil {
		return "", 0, err
	}
	var named, listed bool
	for {
		name, err := d.r.Find("methodName", "params")
		switch {
		case err != nil:
			return "", 0, err
		case name == "":
			if !named {
				return "", 0, fmt.Errorf("%w: no methodName", ErrMalformed)
			}
			return method, n, nil
		case name == "methodName" && !named:
			named = true
			text, _, err := d.r.Content()
			if err != nil {
				return "", 0, err
			}
			// A flow calls the same few methods over and over: the name is
			// interned with the document's element names.
			method = d.r.Intern(bytes.TrimSpace(text))
		case name == "params" && !listed:
			listed = true
			if n, err = d.params(); err != nil {
				return "", 0, err
			}
		default:
			if err := d.r.Skip(); err != nil {
				return "", 0, err
			}
		}
	}
}

// response reads a methodResponse document: the value of its <fault>, or
// of the first <param> of its <params>, onto the tape.
func (d *decoder) response() (faulted bool, err error) {
	if err := d.root("methodResponse"); err != nil {
		return false, err
	}
	which, err := d.r.Find("fault", "params")
	if err != nil {
		return false, err
	}
	if which == "params" {
		if which, err = d.r.Find("param"); err != nil {
			return false, err
		}
	}
	if which == "" {
		return false, fmt.Errorf("%w: no params in response", ErrMalformed)
	}
	if err = d.firstValue(); err != nil {
		return false, err
	}
	if which == "param" {
		if err := d.r.Skip(); err != nil { // the other <param>s
			return false, err
		}
	}
	// The rest of the document has to be one, but says nothing more.
	return which == "fault", d.r.Skip()
}

// params reads the open <params>: one value per <param>.
func (d *decoder) params() (n int, err error) {
	for {
		name, err := d.r.Find("param")
		if err != nil || name == "" {
			return n, err
		}
		if err := d.firstValue(); err != nil {
			return 0, err
		}
		n++
	}
}

// firstValue reads the open element, a <param> or a <fault>, to its end:
// the first <value> in it.
func (d *decoder) firstValue() error {
	if name, err := d.r.Find("value"); err != nil {
		return err
	} else if name == "" {
		return fmt.Errorf("%w: missing <value>", ErrMalformed)
	}
	if err := d.read(); err != nil {
		return err
	}
	return d.r.Skip()
}

// read reads the open <value>: the type element it holds, or, when it
// holds none, its text as a string.
func (d *decoder) read() error {
	at := len(d.tape)
	d.tape = append(d.tape, node{size: 1})
	d.text = d.text[:0]
	for {
		switch tok, err := d.r.Next(); {
		case err != nil:
			return err
		case tok == xmlenc.Text:
			// One run at most reaches the End: an element in between would
			// have been the type.
			d.text = append(d.text[:0], d.r.Text()...)
		case tok == xmlenc.End:
			d.tape[at].f.SetText(string(d.text))
			return nil
		default:
			if err := d.typed(at, d.r.Name()); err != nil {
				return err
			}
			return d.r.Skip()
		}
	}
}

// typed reads the open type element of the <value> at the tape's entry at.
func (d *decoder) typed(at int, typ []byte) error {
	switch string(typ) {
	case "array":
		return d.array(at)
	case "struct":
		return d.structure(at)
	case "string", "int", "i4", "boolean", "double":
	default:
		return fmt.Errorf("%w: unknown value type %q", ErrMalformed, typ)
	}
	text, _, err := d.r.Content()
	if err != nil {
		return err
	}
	f := &d.tape[at].f
	switch string(typ) {
	case "string":
		f.SetText(string(text))
	case "boolean":
		f.SetBool(string(bytes.TrimSpace(text)) == "1")
	case "double":
		x, err := strconv.ParseFloat(string(bytes.TrimSpace(text)), 64)
		if err != nil {
			return fmt.Errorf("%w: double %q", ErrMalformed, text)
		}
		f.SetFloat64(x)
	default:
		n, err := strconv.ParseInt(string(bytes.TrimSpace(text)), 10, 64)
		if err != nil {
			return fmt.Errorf("%w: int %q", ErrMalformed, text)
		}
		f.SetInt64(n)
	}
	return nil
}

// array reads the open <array> at the tape's entry at: the values of its
// first <data>.
func (d *decoder) array(at int) error {
	if name, err := d.r.Find("data"); err != nil {
		return err
	} else if name == "" {
		return fmt.Errorf("%w: array without data", ErrMalformed)
	}
	d.tape[at].f.Type = message.TypeArray
	for {
		name, err := d.r.Find("value")
		if err != nil {
			return err
		}
		if name == "" {
			d.tape[at].size = len(d.tape) - at
			return d.r.Skip()
		}
		if err := d.read(); err != nil {
			return err
		}
		d.tape[at].n++
	}
}

// structure reads the open <struct> at the tape's entry at: its members,
// each the value named.
func (d *decoder) structure(at int) error {
	d.tape[at].f.Type = message.TypeStruct
	for {
		name, err := d.r.Find("member")
		if err != nil {
			return err
		}
		if name == "" {
			d.tape[at].size = len(d.tape) - at
			return nil
		}
		if err := d.member(); err != nil {
			return err
		}
		d.tape[at].n++
	}
}

// member reads the open <member>: its first <name>, interned, and its
// first <value>, in either order.
func (d *decoder) member() error {
	var name string
	named, valued := false, -1 // valued: the tape entry of the value
	for {
		found, err := d.r.Find("name", "value")
		switch {
		case err != nil:
			return err
		case found == "":
			if !named {
				return fmt.Errorf("%w: member without name", ErrMalformed)
			}
			if valued < 0 {
				return fmt.Errorf("%w: missing <value>", ErrMalformed)
			}
			d.tape[valued].f.Label = name
			return nil
		case found == "name" && !named:
			named = true
			text, _, err := d.r.Content()
			if err != nil {
				return err
			}
			name = d.r.Intern(text)
		case found == "value" && valued < 0:
			valued = len(d.tape)
			if err := d.read(); err != nil {
				return err
			}
		default:
			if err := d.r.Skip(); err != nil {
				return err
			}
		}
	}
}

// ---- the two walks over the tape ----

// value returns the Value of the tape's entry at, and the entry after it:
// an array a []Value of its size (nil when empty), a struct a map in which
// of two members with one name the later stands.
func (d *decoder) value(at int) (Value, int) {
	f, n := &d.tape[at].f, d.tape[at].n
	next := at + 1
	switch f.Type {
	case message.TypeInt64:
		return f.Int64(), next
	case message.TypeBool:
		return f.Bool(), next
	case message.TypeFloat64:
		return f.Float64(), next
	case message.TypeArray:
		var out []Value
		if n > 0 {
			out = make([]Value, n)
		}
		for i := range out {
			out[i], next = d.value(next)
		}
		return out, next
	case message.TypeStruct:
		out := make(map[string]Value, n)
		for i := 0; i < n; i++ {
			name := d.tape[next].f.Label
			out[name], next = d.value(next)
		}
		return out, next
	}
	return f.Text(), next
}

// fields carves the n values at the head of the tape as the binders' fields:
// the members of a lone struct, any other value labelled label(i) by its
// position.
func (d *decoder) fields(st *message.Store, n int, label func(i int) string) []*message.Field {
	if n == 1 && d.tape[0].f.Type == message.TypeStruct {
		c := d.carver(st, 0, 1)
		fields, _ := c.members(0)
		return fields
	}
	c := d.carver(st, n, 0)
	fields := c.list(n)
	for i, at := 0, 0; i < n; i++ {
		fields[i], at = c.field(at, label(i))
	}
	return fields
}

// carver is the fields walk: it carves each field from the rest of the
// node slab and each child list from the rest of the list slab.
type carver struct {
	d     *decoder
	nodes []message.Field
	links []*message.Field
}

// carver sizes the slabs for the tape's values as fields, with top more
// entries in the top-level list and skip entries of the tape not made
// nodes (a struct whose members are the fields), and carves them out of
// st. A struct that names one member twice gets both counted and one
// carved.
func (d *decoder) carver(st *message.Store, top, skip int) carver {
	links := top
	for i := range d.tape {
		links += d.tape[i].n
	}
	return carver{d: d, nodes: st.Nodes(len(d.tape) - skip), links: st.Links(links)}
}

// list returns a child list of length n.
func (c *carver) list(n int) []*message.Field {
	out := c.links[:n:n]
	c.links = c.links[n:]
	return out
}

// field carves the tape's entry at as a field labelled label, and returns
// it and the entry after it.
func (c *carver) field(at int, label string) (*message.Field, int) {
	nd := &c.d.tape[at]
	f := &c.nodes[0]
	c.nodes = c.nodes[1:]
	*f = nd.f
	f.Label = label
	next := at + 1
	switch f.Type {
	case message.TypeArray:
		f.Children = c.list(nd.n)
		for i := range f.Children {
			f.Children[i], next = c.field(next, "item")
		}
	case message.TypeStruct:
		f.Children, next = c.members(at)
	}
	return f, next
}

// members carves the members of the struct at the tape's entry at, in the
// order of their names and of two with one name the later, and returns
// them and the entry after the struct.
func (c *carver) members(at int) ([]*message.Field, int) {
	d := c.d
	mark := len(d.order)
	for i, next := 0, at+1; i < d.tape[at].n; i++ {
		d.order = append(d.order, next)
		next += d.tape[next].size
	}
	byName := d.order[mark:]
	name := func(i int) string { return d.tape[i].f.Label }
	slices.SortStableFunc(byName, func(a, b int) int { return strings.Compare(name(a), name(b)) })
	live := byName[:0]
	for i, m := range byName {
		if i+1 == len(byName) || name(byName[i+1]) != name(m) {
			live = append(live, m)
		}
	}
	out := c.list(len(live))
	for i, m := range live {
		out[i], _ = c.field(m, name(m))
	}
	d.order = d.order[:mark]
	return out, at + d.tape[at].size
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

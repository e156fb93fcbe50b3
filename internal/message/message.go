// Package message implements Starlink's abstract message model.
//
// An abstract message is the protocol-independent representation that the
// whole framework manipulates: MDL-generated parsers turn network packets
// into abstract messages, MTL translations rewrite their fields, and
// MDL-generated composers turn them back into wire formats. Following the
// paper (Section 3.1), a message consists of a set of fields, either
// primitive — a label, a type, a length in bits, and a value — or
// structured — a label plus child fields.
package message

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type describes the data content of a primitive field.
type Type uint8

// Field data types. TypeStruct marks a structured field; TypeArray marks a
// structured field whose children are an ordered, homogeneous sequence.
const (
	TypeString Type = iota + 1
	TypeInt32
	TypeInt64
	TypeUint32
	TypeUint64
	TypeBool
	TypeFloat64
	TypeBytes
	TypeStruct
	TypeArray
)

var typeNames = map[Type]string{
	TypeString:  "string",
	TypeInt32:   "int32",
	TypeInt64:   "int64",
	TypeUint32:  "uint32",
	TypeUint64:  "uint64",
	TypeBool:    "bool",
	TypeFloat64: "float64",
	TypeBytes:   "bytes",
	TypeStruct:  "struct",
	TypeArray:   "array",
}

// String returns the MDL name of the type.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return "type(" + strconv.Itoa(int(t)) + ")"
}

// Primitive reports whether values of the type are scalar.
func (t Type) Primitive() bool { return t != TypeStruct && t != TypeArray }

// Errors returned by field navigation and mutation.
var (
	// ErrNoSuchField is returned when a path does not resolve to a field.
	ErrNoSuchField = errors.New("no such field")
	// ErrNotPrimitive is returned when a scalar operation is applied to a
	// structured field.
	ErrNotPrimitive = errors.New("field is not primitive")
	// ErrNotStructured is returned when a child operation is applied to a
	// primitive field.
	ErrNotStructured = errors.New("field is not structured")
)

// Field is one labelled node of an abstract message. A primitive field
// carries its value in the node; a structured field carries Children.
//
// The value is read and written through the accessors (Text, Int64, …,
// SetText, …, CopyScalar): a string lives in the node as a string, the
// integer, boolean and float kinds as their eight bytes, and only a []byte
// sits behind a pointer, so that the node stays 80 bytes and a scalar costs
// no allocation beside it.
type Field struct {
	// Label names the field, e.g. "RequestID" or "q".
	Label string
	// Type describes the content. The setters and Set change it together
	// with the value; assigned by hand it belongs on a node that holds none
	// yet (a structured field being built).
	Type Type
	// Mandatory marks fields that participate in the semantic-equivalence
	// check of Definition 2 (Mfields).
	Mandatory bool
	// LengthBits is the wire length in bits when fixed (0 = variable).
	LengthBits int32

	text string  // TypeString, and any Type this package has no kind for
	num  uint64  // the integer kinds, TypeBool (0 or 1), TypeFloat64 (its bits)
	raw  *[]byte // TypeBytes; never written through, so copies may share it

	// Children holds the sub-fields of a structured field, in order.
	Children []*Field
}

// NewPrimitive builds a primitive field, normalising the Go value to the
// canonical content for t. A caller that holds a typed value uses NewString
// and its like, which do not box it on the way in.
func NewPrimitive(label string, t Type, value any) *Field {
	f := &Field{Label: label}
	f.Set(t, value)
	return f
}

// NewString builds a TypeString field.
func NewString(label, s string) *Field {
	return &Field{Label: label, Type: TypeString, text: s}
}

// NewInt64 builds a TypeInt64 field.
func NewInt64(label string, n int64) *Field {
	return &Field{Label: label, Type: TypeInt64, num: uint64(n)}
}

// NewUint64 builds a TypeUint64 field.
func NewUint64(label string, n uint64) *Field {
	return &Field{Label: label, Type: TypeUint64, num: n}
}

// NewBool builds a TypeBool field.
func NewBool(label string, b bool) *Field {
	f := &Field{Label: label}
	f.SetBool(b)
	return f
}

// NewFloat64 builds a TypeFloat64 field.
func NewFloat64(label string, x float64) *Field {
	return &Field{Label: label, Type: TypeFloat64, num: math.Float64bits(x)}
}

// NewBytes builds a TypeBytes field that aliases b.
func NewBytes(label string, b []byte) *Field {
	return &Field{Label: label, Type: TypeBytes, raw: &b}
}

// NewStruct builds a structured field from its children.
func NewStruct(label string, children ...*Field) *Field {
	return &Field{Label: label, Type: TypeStruct, Children: children}
}

// NewArray builds an ordered-sequence field from its elements.
func NewArray(label string, elems ...*Field) *Field {
	return &Field{Label: label, Type: TypeArray, Children: elems}
}

// Set makes f a primitive of type t holding value, normalised: any Go
// integer, float, bool or numeric string is accepted for a numeric type,
// text or bytes for TypeString and TypeBytes, and nil is the zero value. A
// type without a kind of its own holds the value's text.
func (f *Field) Set(t Type, value any) {
	f.Type, f.text, f.num, f.raw = t, "", 0, nil
	if value == nil {
		return
	}
	switch t {
	case TypeInt32, TypeInt64:
		f.num = uint64(toInt64(value))
	case TypeUint32, TypeUint64:
		f.num = toUint64(value)
	case TypeBool:
		b, ok := value.(bool)
		if !ok {
			s := fmt.Sprint(value)
			b = s == "true" || s == "1"
		}
		if b {
			f.num = 1
		}
	case TypeFloat64:
		f.num = math.Float64bits(toFloat64(value))
	case TypeBytes:
		switch x := value.(type) {
		case []byte:
			f.raw = &x
		case string:
			b := []byte(x)
			f.raw = &b
		default:
			b := []byte(fmt.Sprint(x))
			f.raw = &b
		}
	default:
		switch x := value.(type) {
		case string:
			f.text = x
		case []byte:
			f.text = string(x)
		default:
			f.text = fmt.Sprint(x)
		}
	}
}

// SetText makes f a TypeString field holding s.
func (f *Field) SetText(s string) { f.Type, f.text, f.num, f.raw = TypeString, s, 0, nil }

// SetInt64 makes f a TypeInt64 field holding n.
func (f *Field) SetInt64(n int64) { f.Type, f.text, f.num, f.raw = TypeInt64, "", uint64(n), nil }

// SetUint64 makes f a TypeUint64 field holding n.
func (f *Field) SetUint64(n uint64) { f.Type, f.text, f.num, f.raw = TypeUint64, "", n, nil }

// SetBool makes f a TypeBool field holding b.
func (f *Field) SetBool(b bool) {
	f.Type, f.text, f.num, f.raw = TypeBool, "", 0, nil
	if b {
		f.num = 1
	}
}

// SetFloat64 makes f a TypeFloat64 field holding x.
func (f *Field) SetFloat64(x float64) {
	f.Type, f.text, f.num, f.raw = TypeFloat64, "", math.Float64bits(x), nil
}

// SetBytes makes f a TypeBytes field that aliases b.
func (f *Field) SetBytes(b []byte) { f.Type, f.text, f.num, f.raw = TypeBytes, "", 0, &b }

// CopyScalar gives f the value of the primitive field from, as an MTL
// assignment moves it: node to node, with no box in between. The 32-bit
// kinds widen to their 64-bit type and a type without a kind becomes
// TypeString — what reading the value out and building a field from it
// would give. Bytes are shared, not copied (Clone copies).
func (f *Field) CopyScalar(from *Field) {
	t := from.Type
	switch t {
	case TypeInt32:
		t = TypeInt64
	case TypeUint32:
		t = TypeUint64
	case TypeInt64, TypeUint64, TypeBool, TypeFloat64, TypeBytes:
	default:
		t = TypeString
	}
	f.Type, f.text, f.num, f.raw = t, from.text, from.num, from.raw
}

// Text returns the value as text: the string of a TypeString field, the
// decimal or literal form of a number or boolean, the bytes as a string.
func (f *Field) Text() string {
	switch f.Type {
	case TypeInt32, TypeInt64:
		return strconv.FormatInt(int64(f.num), 10)
	case TypeUint32, TypeUint64:
		return strconv.FormatUint(f.num, 10)
	case TypeBool:
		return strconv.FormatBool(f.num != 0)
	case TypeFloat64:
		return strconv.FormatFloat(math.Float64frombits(f.num), 'g', -1, 64)
	case TypeBytes:
		return string(f.bytes())
	}
	return f.text
}

// Int64 returns the value as a signed integer: a float truncated, a
// boolean as 0 or 1, text parsed (0 when it is not a number).
func (f *Field) Int64() int64 {
	switch f.Type {
	case TypeInt32, TypeInt64, TypeUint32, TypeUint64, TypeBool:
		return int64(f.num)
	case TypeFloat64:
		return int64(math.Float64frombits(f.num))
	case TypeBytes:
		return 0
	}
	return parseInt(f.text)
}

// Uint64 returns the value as an unsigned integer, converted like Int64.
func (f *Field) Uint64() uint64 {
	switch f.Type {
	case TypeInt32, TypeInt64, TypeUint32, TypeUint64, TypeBool:
		return f.num
	case TypeFloat64:
		return uint64(math.Float64frombits(f.num))
	case TypeBytes:
		return 0
	}
	return parseUint(f.text)
}

// Float64 returns the value as a float: an integer converted, text parsed
// (0 when it is not a number).
func (f *Field) Float64() float64 {
	switch f.Type {
	case TypeFloat64:
		return math.Float64frombits(f.num)
	case TypeInt32, TypeInt64:
		return float64(int64(f.num))
	case TypeUint32, TypeUint64:
		return float64(f.num)
	case TypeBool, TypeBytes:
		return 0
	}
	return parseFloat(f.text)
}

// Bool returns the value as a boolean: true for a TypeBool that is set and
// for any other value whose text is "true" or "1".
func (f *Field) Bool() bool {
	if f.Type == TypeBool {
		return f.num != 0
	}
	s := f.Text()
	return s == "true" || s == "1"
}

// Bytes returns the bytes of a TypeBytes field — the field's own, not a
// copy — and the text of any other as bytes.
func (f *Field) Bytes() []byte {
	if f.Type != TypeBytes {
		return []byte(f.Text())
	}
	return f.bytes()
}

// bytes is what raw points at.
func (f *Field) bytes() []byte {
	if f.raw == nil {
		return nil
	}
	return *f.raw
}

// Value returns the value boxed in an interface, its dynamic type string,
// int64, uint64, bool, float64 or []byte according to Type. It allocates
// for most values: the message path reads through the typed accessors, and
// Value is for tests, tools and the MTL interpreter.
func (f *Field) Value() any {
	switch f.Type {
	case TypeInt32, TypeInt64:
		return int64(f.num)
	case TypeUint32, TypeUint64:
		return f.num
	case TypeBool:
		return f.num != 0
	case TypeFloat64:
		return math.Float64frombits(f.num)
	case TypeBytes:
		return f.bytes()
	}
	return f.text
}

func toInt64(v any) int64 {
	switch x := v.(type) {
	case int:
		return int64(x)
	case int32:
		return int64(x)
	case int64:
		return x
	case uint32:
		return int64(x)
	case uint64:
		return int64(x)
	case float64:
		return int64(x)
	case string:
		return parseInt(x)
	case bool:
		if x {
			return 1
		}
		return 0
	}
	return 0
}

func toUint64(v any) uint64 {
	switch x := v.(type) {
	case int:
		return uint64(x)
	case int32:
		return uint64(x)
	case int64:
		return uint64(x)
	case uint32:
		return uint64(x)
	case uint64:
		return x
	case float64:
		return uint64(x)
	case string:
		return parseUint(x)
	}
	return 0
}

func toFloat64(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case float32:
		return float64(x)
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case uint64:
		return float64(x)
	case string:
		return parseFloat(x)
	}
	return 0
}

// Text read as a number is 0 when it is not one.

func parseInt(s string) int64 {
	n, _ := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	return n
}

func parseUint(s string) uint64 {
	n, _ := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
	return n
}

func parseFloat(s string) float64 {
	f, _ := strconv.ParseFloat(strings.TrimSpace(s), 64)
	return f
}

// Child returns the first child with the given label, or nil.
func (f *Field) Child(label string) *Field {
	for _, c := range f.Children {
		if c.Label == label {
			return c
		}
	}
	return nil
}

// Add appends children to a structured field and returns f for chaining.
func (f *Field) Add(children ...*Field) *Field {
	f.Children = append(f.Children, children...)
	return f
}

// Clone returns a deep copy of the field. The copy costs what it holds:
// its nodes are carved out of one []Field and its child lists out of one
// []*Field, both of exactly the size the tree needs ([]byte values are
// copied on top of that).
func (f *Field) Clone() *Field {
	if f == nil {
		return nil
	}
	if len(f.Children) == 0 {
		// A leaf is its node: nothing to count and no list to carve.
		cp := new(Field)
		cp.copyContent(f)
		if f.Children != nil {
			cp.Children = []*Field{}
		}
		return cp
	}
	nodes, links := treeSize(f.Children)
	s := slab{nodes: make([]Field, 1+nodes), links: make([]*Field, links)}
	return s.clone(f)
}

// Slab is the memory of a copy made again and again in the same place, as
// the MTL session cache makes the value of a key put anew: Copy carves the
// copy out of the slab's nodes and child lists as Clone carves one out of
// its own, and reuses them when the tree fits and would leave no more than
// half of them idle. A copy overwrites the one made before it, which must
// no longer be read. The memory is the heap's, never a Store's.
type Slab struct {
	nodes []Field
	links []*Field
}

// Copy copies f's tree into the slab, as Clone does, and returns the copy.
func (s *Slab) Copy(f *Field) *Field {
	if f == nil {
		return nil
	}
	nodes, links := treeSize(f.Children)
	nodes++
	if reusable(len(s.nodes), nodes) {
		clear(s.nodes[nodes:]) // so that no value of the copy before stays reachable
	} else {
		s.nodes = make([]Field, nodes)
	}
	if reusable(len(s.links), links) {
		clear(s.links[links:])
	} else {
		s.links = make([]*Field, links)
	}
	carve := slab{nodes: s.nodes, links: s.links}
	return carve.clone(f)
}

// reusable reports whether have elements take a copy that needs need of
// them, with no more than half of them idle.
func reusable(have, need int) bool { return need <= have && have <= 2*need }

// treeSize counts the nodes of the trees under fields, and the links that
// lead to them: the entries of fields and of every child list below.
func treeSize(fields []*Field) (nodes, links int) {
	links = len(fields)
	for _, f := range fields {
		if f != nil {
			n, l := treeSize(f.Children)
			nodes, links = nodes+1+n, links+l
		}
	}
	return nodes, links
}

// slab is the unused rest of the two allocations a clone is carved from.
type slab struct {
	nodes []Field
	links []*Field
}

// clone copies f's tree into the slab.
func (s *slab) clone(f *Field) *Field {
	if f == nil {
		return nil
	}
	cp := &s.nodes[0]
	s.nodes = s.nodes[1:]
	cp.copyContent(f)
	cp.Children = s.cloneAll(f.Children)
	return cp
}

// copyContent makes cp a copy of f in everything but its children.
func (cp *Field) copyContent(f *Field) {
	*cp = *f
	cp.Children = nil
	if f.raw != nil {
		nb := append([]byte(nil), *f.raw...)
		cp.raw = &nb
	}
}

// cloneAll copies a child list into the slab, nil staying nil. The list is
// cut to its length, so that appending to it reallocates instead of
// running into the list carved after it.
func (s *slab) cloneAll(fields []*Field) []*Field {
	if fields == nil {
		return nil
	}
	n := len(fields)
	if n == 0 {
		return []*Field{}
	}
	out := s.links[:n:n]
	s.links = s.links[n:]
	for i, c := range fields {
		out[i] = s.clone(c)
	}
	return out
}

// Equal reports deep equality of label, type and content.
func (f *Field) Equal(o *Field) bool {
	if f == nil || o == nil {
		return f == o
	}
	if f.Label != o.Label || f.Type != o.Type {
		return false
	}
	if f.Type.Primitive() {
		// Of one Type, so of one kind. Floats compare by their bits: a
		// clone equals its original, NaN included.
		return f.text == o.text && f.num == o.num && string(f.bytes()) == string(o.bytes())
	}
	if len(f.Children) != len(o.Children) {
		return false
	}
	for i := range f.Children {
		if !f.Children[i].Equal(o.Children[i]) {
			return false
		}
	}
	return true
}

// Message is a named set of fields: the unit the automata engine sends,
// receives and translates.
type Message struct {
	// Name identifies the message kind ("GIOPRequest", "MethodCall", …).
	Name string
	// Fields are the top-level fields, in order: application data only.
	Fields []*Field
	// ID is the protocol's request id — the GIOP RequestID, the JSON-RPC
	// id, the SLP XID — or 0 where the protocol has none. The binder that
	// parses a request sets it and the binder that answers reads it back
	// from the reply, which carries the id of the request it answers. It
	// is a header, not content: Equal ignores it, γ never sees it, and it
	// is not a trace id that follows a flow across hops.
	ID uint64
}

// New builds a message from fields.
func New(name string, fields ...*Field) *Message {
	return &Message{Name: name, Fields: fields}
}

// Clone returns a deep copy of the message, carved like Field.Clone out of
// one allocation for its nodes and one for its field and child lists.
func (m *Message) Clone() *Message {
	if m == nil {
		return nil
	}
	nodes, links := treeSize(m.Fields)
	s := slab{nodes: make([]Field, nodes), links: make([]*Field, links)}
	return &Message{Name: m.Name, Fields: s.cloneAll(m.Fields), ID: m.ID}
}

// Equal reports deep equality of name and fields with o; the ID, a header,
// is not compared.
func (m *Message) Equal(o *Message) bool {
	if m == nil || o == nil {
		return m == o
	}
	if m.Name != o.Name || len(m.Fields) != len(o.Fields) {
		return false
	}
	for i := range m.Fields {
		if !m.Fields[i].Equal(o.Fields[i]) {
			return false
		}
	}
	return true
}

// Field returns the first top-level field with the given label, or nil.
func (m *Message) Field(label string) *Field {
	for _, f := range m.Fields {
		if f.Label == label {
			return f
		}
	}
	return nil
}

// Add appends top-level fields and returns m for chaining.
func (m *Message) Add(fields ...*Field) *Message {
	m.Fields = append(m.Fields, fields...)
	return m
}

// splitIndex separates one path component into its label and optional
// [n] index (-1 when absent), without allocating.
func splitIndex(p string) (string, int, error) {
	i := strings.IndexByte(p, '[')
	if i < 0 {
		return p, -1, nil
	}
	if !strings.HasSuffix(p, "]") {
		return "", 0, fmt.Errorf("malformed index in path element %q", p)
	}
	n, err := strconv.Atoi(p[i+1 : len(p)-1])
	if err != nil {
		return "", 0, fmt.Errorf("malformed index in path element %q: %v", p, err)
	}
	return p[:i], n, nil
}

// Lookup resolves a dotted path like "Body.entry[2].id" to a field.
// Each component names a child; an optional [n] suffix selects the n-th
// child with that label (0-based). An empty label with an index ("[2]")
// selects the n-th child regardless of label. A successful Lookup does
// not allocate: path components are scanned in place rather than split
// into a step slice.
func (m *Message) Lookup(path string) (*Field, error) {
	if path == "" {
		return nil, fmt.Errorf("empty field path: %w", ErrNoSuchField)
	}
	var cur *Field
	children := m.Fields
	rest := path
	for si := 0; ; si++ {
		part, tail, more := strings.Cut(rest, ".")
		label, index, err := splitIndex(part)
		if err != nil {
			return nil, err
		}
		cur = nil
		if label == "" && index >= 0 {
			if index < len(children) {
				cur = children[index]
			}
		} else {
			seen := 0
			for _, c := range children {
				if c.Label != label {
					continue
				}
				if index < 0 || seen == index {
					cur = c
					break
				}
				seen++
			}
		}
		if cur == nil {
			return nil, fmt.Errorf("%w: %q (element %d of %q)", ErrNoSuchField, label, si, path)
		}
		if !more {
			return cur, nil
		}
		children = cur.Children
		rest = tail
	}
}

// Get returns the value of the primitive field at path.
func (m *Message) Get(path string) (any, error) {
	f, err := m.Lookup(path)
	if err != nil {
		return nil, err
	}
	if !f.Type.Primitive() {
		return nil, fmt.Errorf("%q: %w", path, ErrNotPrimitive)
	}
	return f.Value(), nil
}

// GetString returns the field value at path rendered as a string.
func (m *Message) GetString(path string) (string, error) {
	f, err := m.Lookup(path)
	if err != nil {
		return "", err
	}
	return f.ValueString(), nil
}

// GetInt returns the field value at path as an int64.
func (m *Message) GetInt(path string) (int64, error) {
	f, err := m.Lookup(path)
	if err != nil {
		return 0, err
	}
	if !f.Type.Primitive() {
		return 0, fmt.Errorf("%q: %w", path, ErrNotPrimitive)
	}
	return f.Int64(), nil
}

// ValueString renders a primitive field's value as text; structured fields
// render as a bracketed child list.
func (f *Field) ValueString() string {
	if f == nil {
		return ""
	}
	if !f.Type.Primitive() {
		parts := make([]string, len(f.Children))
		for i, c := range f.Children {
			parts[i] = c.ValueString()
		}
		return "[" + strings.Join(parts, " ") + "]"
	}
	return f.Text()
}

// Set assigns a value to the primitive field at path, creating the path
// (as structured fields) if it does not exist. The final component becomes
// a primitive field of type t. Like Lookup, Set scans path components in
// place: overwriting an existing field does not allocate.
func (m *Message) Set(path string, t Type, value any) error {
	if path == "" {
		return fmt.Errorf("empty field path: %w", ErrNoSuchField)
	}
	children := &m.Fields
	rest := path
	for {
		part, tail, more := strings.Cut(rest, ".")
		label, index, err := splitIndex(part)
		if err != nil {
			return err
		}
		var cur *Field
		seen := 0
		for _, c := range *children {
			if c.Label != label {
				continue
			}
			if index < 0 || seen == index {
				cur = c
				break
			}
			seen++
		}
		if cur == nil {
			if index > seen {
				return fmt.Errorf("%w: cannot create %q at index %d (only %d present)",
					ErrNoSuchField, label, index, seen)
			}
			if !more {
				cur = NewPrimitive(label, t, value)
			} else {
				cur = NewStruct(label)
			}
			*children = append(*children, cur)
		}
		if !more {
			if !cur.Type.Primitive() {
				return fmt.Errorf("%q: %w", path, ErrNotPrimitive)
			}
			cur.Set(t, value)
			return nil
		}
		if cur.Type.Primitive() {
			return fmt.Errorf("%q: %w", label, ErrNotStructured)
		}
		children = &cur.Children
		rest = tail
	}
}

// String renders the message tree for debugging.
func (m *Message) String() string {
	var b strings.Builder
	b.WriteString(m.Name)
	b.WriteString("{")
	for i, f := range m.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		writeField(&b, f)
	}
	b.WriteString("}")
	return b.String()
}

func writeField(b *strings.Builder, f *Field) {
	b.WriteString(f.Label)
	if f.Type.Primitive() {
		b.WriteString("=")
		b.WriteString(f.ValueString())
		return
	}
	b.WriteString("{")
	for i, c := range f.Children {
		if i > 0 {
			b.WriteString(", ")
		}
		writeField(b, c)
	}
	b.WriteString("}")
}

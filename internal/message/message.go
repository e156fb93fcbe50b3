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
	"sort"
	"strconv"
	"strings"
)

// Type describes the data content of a primitive field.
type Type int

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

// ParseType resolves an MDL type name to a Type.
func ParseType(s string) (Type, error) {
	for t, name := range typeNames {
		if name == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("unknown field type %q", s)
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

// Field is one labelled node of an abstract message. Primitive fields carry
// Value; structured fields carry Children.
type Field struct {
	// Label names the field, e.g. "RequestID" or "q".
	Label string
	// Type describes the content.
	Type Type
	// LengthBits is the wire length in bits when fixed (0 = variable).
	LengthBits int
	// Mandatory marks fields that participate in the semantic-equivalence
	// check of Definition 2 (Mfields).
	Mandatory bool
	// Value holds the content of a primitive field. Its dynamic type is
	// string, int64, uint64, bool, float64 or []byte according to Type.
	Value any
	// Children holds the sub-fields of a structured field, in order.
	Children []*Field
}

// NewPrimitive builds a primitive field, normalising the Go value to the
// canonical dynamic type for t.
func NewPrimitive(label string, t Type, value any) *Field {
	f := &Field{Label: label, Type: t}
	f.Value = normalize(t, value)
	return f
}

// NewStruct builds a structured field from its children.
func NewStruct(label string, children ...*Field) *Field {
	return &Field{Label: label, Type: TypeStruct, Children: children}
}

// NewArray builds an ordered-sequence field from its elements.
func NewArray(label string, elems ...*Field) *Field {
	return &Field{Label: label, Type: TypeArray, Children: elems}
}

func normalize(t Type, v any) any {
	if v == nil {
		return nil
	}
	// Already-canonical values are returned as the original interface —
	// `return x` would re-box the concrete value into a fresh `any`,
	// costing an allocation on every Set that overwrites a field.
	switch t {
	case TypeString:
		switch x := v.(type) {
		case string:
			return v
		case []byte:
			return string(x)
		default:
			return fmt.Sprint(x)
		}
	case TypeInt32, TypeInt64:
		if _, ok := v.(int64); ok {
			return v
		}
		return toInt64(v)
	case TypeUint32, TypeUint64:
		if _, ok := v.(uint64); ok {
			return v
		}
		return toUint64(v)
	case TypeBool:
		if _, ok := v.(bool); ok {
			return v
		}
		s := fmt.Sprint(v)
		return s == "true" || s == "1"
	case TypeFloat64:
		if _, ok := v.(float64); ok {
			return v
		}
		return toFloat64(v)
	case TypeBytes:
		switch x := v.(type) {
		case []byte:
			return v
		case string:
			return []byte(x)
		default:
			return []byte(fmt.Sprint(x))
		}
	}
	// Unknown or structured type: render to a string rather than admit an
	// arbitrary (possibly mutable, alias-prone) Go value as a field Value.
	// The Value invariant — string, int64, uint64, bool, float64 or []byte —
	// is what lets Clone guarantee deep copies.
	return fmt.Sprint(v)
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
		n, _ := strconv.ParseInt(strings.TrimSpace(x), 10, 64)
		return n
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
		n, _ := strconv.ParseUint(strings.TrimSpace(x), 10, 64)
		return n
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
		f, _ := strconv.ParseFloat(strings.TrimSpace(x), 64)
		return f
	}
	return 0
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
	cp.Label = f.Label
	cp.Type = f.Type
	cp.LengthBits = f.LengthBits
	cp.Mandatory = f.Mandatory
	switch v := f.Value.(type) {
	case nil, string, int64, uint64, bool, float64,
		int, int8, int16, int32, uint, uint8, uint16, uint32, float32:
		// Immutable scalars are safe to share.
		cp.Value = f.Value
	case []byte:
		nb := make([]byte, len(v))
		copy(nb, v)
		cp.Value = nb
	default:
		// A directly-constructed Field can smuggle in a slice/map-typed
		// Value that normalize never saw; canonicalise it so the clone
		// never aliases mutable state with the original.
		cp.Value = normalize(f.Type, v)
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
		return valueEqual(f.Value, o.Value)
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

func valueEqual(a, b any) bool {
	ab, aok := a.([]byte)
	bb, bok := b.([]byte)
	if aok && bok {
		return string(ab) == string(bb)
	}
	if aok != bok {
		return false
	}
	return a == b
}

// Message is a named set of fields: the unit the automata engine sends,
// receives and translates.
type Message struct {
	// Name identifies the message kind ("GIOPRequest", "MethodCall", …).
	Name string
	// Fields are the top-level fields, in order.
	Fields []*Field
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
	return &Message{Name: m.Name, Fields: s.cloneAll(m.Fields)}
}

// Equal reports deep equality with o.
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
	return f.Value, nil
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
	v, err := m.Get(path)
	if err != nil {
		return 0, err
	}
	return toInt64(v), nil
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
	switch v := f.Value.(type) {
	case nil:
		return ""
	case string:
		return v
	case []byte:
		return string(v)
	case int64:
		return strconv.FormatInt(v, 10)
	case uint64:
		return strconv.FormatUint(v, 10)
	case bool:
		return strconv.FormatBool(v)
	case float64:
		return strconv.FormatFloat(v, 'g', -1, 64)
	default:
		return fmt.Sprint(v)
	}
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
			cur.Type = t
			cur.Value = normalize(t, value)
			return nil
		}
		if cur.Type.Primitive() {
			return fmt.Errorf("%q: %w", label, ErrNotStructured)
		}
		children = &cur.Children
		rest = tail
	}
}

// SetField replaces (or appends) the top-level field with f's label.
func (m *Message) SetField(f *Field) {
	for i, c := range m.Fields {
		if c.Label == f.Label {
			m.Fields[i] = f
			return
		}
	}
	m.Fields = append(m.Fields, f)
}

// MandatoryFields returns the labels of all mandatory fields in the message
// (recursively), sorted — Mfields(n) of Definition 2. If no field is marked
// mandatory, all primitive leaf labels are considered mandatory, which
// matches the paper's reading that an operation's declared parameters are
// its mandatory fields.
func (m *Message) MandatoryFields() []string {
	var explicit, all []string
	var walk func(fs []*Field)
	walk = func(fs []*Field) {
		for _, f := range fs {
			if f.Type.Primitive() {
				all = append(all, f.Label)
				if f.Mandatory {
					explicit = append(explicit, f.Label)
				}
			} else {
				if f.Mandatory {
					explicit = append(explicit, f.Label)
				}
				walk(f.Children)
			}
		}
	}
	walk(m.Fields)
	out := explicit
	if len(out) == 0 {
		out = all
	}
	sort.Strings(out)
	return dedupe(out)
}

func dedupe(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || sorted[i-1] != s {
			out = append(out, s)
		}
	}
	return out
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

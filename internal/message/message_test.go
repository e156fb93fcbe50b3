package message

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func sampleMessage() *Message {
	return New("HTTPOK",
		NewPrimitive("Status", TypeInt64, 200),
		NewStruct("Body",
			NewStruct("entry",
				NewPrimitive("id", TypeString, "photo-1"),
				NewPrimitive("title", TypeString, "tree"),
			),
			NewStruct("entry",
				NewPrimitive("id", TypeString, "photo-2"),
				NewPrimitive("title", TypeString, "forest"),
			),
		),
	)
}

func TestTypePrimitive(t *testing.T) {
	if TypeStruct.Primitive() || TypeArray.Primitive() {
		t.Error("struct/array reported primitive")
	}
	if !TypeString.Primitive() || !TypeBytes.Primitive() {
		t.Error("scalar types reported non-primitive")
	}
}

func TestLookupPaths(t *testing.T) {
	m := sampleMessage()
	tests := []struct {
		path string
		want string
	}{
		{"Status", "200"},
		{"Body.entry.id", "photo-1"},
		{"Body.entry[0].id", "photo-1"},
		{"Body.entry[1].id", "photo-2"},
		{"Body.entry[1].title", "forest"},
		{"Body.[0].id", "photo-1"},
	}
	for _, tt := range tests {
		got, err := m.GetString(tt.path)
		if err != nil {
			t.Errorf("GetString(%q): %v", tt.path, err)
			continue
		}
		if got != tt.want {
			t.Errorf("GetString(%q) = %q, want %q", tt.path, got, tt.want)
		}
	}
}

func TestLookupErrors(t *testing.T) {
	m := sampleMessage()
	for _, path := range []string{"Nope", "Body.entry[5].id", "Body.missing", ""} {
		if _, err := m.Lookup(path); !errors.Is(err, ErrNoSuchField) {
			t.Errorf("Lookup(%q) err = %v, want ErrNoSuchField", path, err)
		}
	}
	if _, err := m.Get("Body"); !errors.Is(err, ErrNotPrimitive) {
		t.Errorf("Get(Body) err = %v, want ErrNotPrimitive", err)
	}
	if _, err := m.Lookup("Body.entry[x].id"); err == nil {
		t.Error("malformed index accepted")
	}
	if _, err := m.Lookup("Body.entry[1.id"); err == nil {
		t.Error("unterminated index accepted")
	}
}

func TestSetCreatesPath(t *testing.T) {
	m := New("MethodResponse")
	if err := m.Set("Params.param", TypeString, "hello"); err != nil {
		t.Fatal(err)
	}
	got, err := m.GetString("Params.param")
	if err != nil || got != "hello" {
		t.Fatalf("round-trip got %q, %v", got, err)
	}
	// Overwrite with a different type.
	if err := m.Set("Params.param", TypeInt64, 42); err != nil {
		t.Fatal(err)
	}
	n, err := m.GetInt("Params.param")
	if err != nil || n != 42 {
		t.Fatalf("after overwrite got %d, %v", n, err)
	}
}

func TestSetRejectsThroughPrimitive(t *testing.T) {
	m := New("M", NewPrimitive("leaf", TypeString, "x"))
	if err := m.Set("leaf.sub", TypeString, "y"); !errors.Is(err, ErrNotStructured) {
		t.Errorf("Set through primitive err = %v, want ErrNotStructured", err)
	}
	m2 := New("M", NewStruct("s"))
	if err := m2.Set("s", TypeString, "y"); !errors.Is(err, ErrNotPrimitive) {
		t.Errorf("Set on struct err = %v, want ErrNotPrimitive", err)
	}
}

func TestSetSparseIndexRejected(t *testing.T) {
	m := New("M")
	if err := m.Set("entry[2].id", TypeString, "x"); !errors.Is(err, ErrNoSuchField) {
		t.Errorf("sparse index err = %v, want ErrNoSuchField", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := sampleMessage()
	cp := m.Clone()
	if !m.Equal(cp) {
		t.Fatal("clone not equal to original")
	}
	if err := cp.Set("Body.entry[0].id", TypeString, "mutated"); err != nil {
		t.Fatal(err)
	}
	orig, _ := m.GetString("Body.entry[0].id")
	if orig != "photo-1" {
		t.Error("mutating clone affected original")
	}
	if m.Equal(cp) {
		t.Error("messages equal after divergent mutation")
	}
}

// TestCloneDirectValueNotShared: a field never shares mutable state with
// the Go value it was made from, and so neither does its clone. With the
// value inside the node there is no way left to hand a Field a slice or a
// map as it is; Set renders it on the way in.
func TestCloneDirectValueNotShared(t *testing.T) {
	tags := []string{"a", "b"}
	f := NewPrimitive("tags", TypeString, tags)
	cp := f.Clone()
	tags[0] = "mutated"
	for _, g := range []*Field{f, cp} {
		if s, ok := g.Value().(string); !ok || s != "[a b]" {
			t.Errorf("slice-typed value became %#v, want its text as it was", g.Value())
		}
	}

	meta := map[string]string{"k": "v"}
	f = NewPrimitive("meta", TypeBytes, meta)
	cp = f.Clone()
	meta["k"] = "mutated"
	for _, g := range []*Field{f, cp} {
		if b, ok := g.Value().([]byte); !ok || string(b) != "map[k:v]" {
			t.Errorf("map-typed value became %#v, want its text as bytes", g.Value())
		}
	}
}

func TestCloneBytesIndependence(t *testing.T) {
	raw := []byte{1, 2, 3}
	m := New("M", NewPrimitive("raw", TypeBytes, raw))
	if &m.Field("raw").Bytes()[0] != &raw[0] {
		t.Error("a bytes field copied what it was given; it aliases (a Body is handed over, not copied)")
	}
	cp := m.Clone()
	b := cp.Field("raw").Bytes()
	if cp.Field("raw").Type != TypeBytes || len(b) != 3 {
		t.Fatal("clone lost []byte value")
	}
	b[0] = 99
	if raw[0] != 1 || m.Field("raw").Bytes()[0] != 1 {
		t.Error("byte slice shared between clone and original")
	}
	// CopyScalar moves a value as an MTL assignment does: bytes are shared.
	var moved Field
	moved.CopyScalar(m.Field("raw"))
	if &moved.Bytes()[0] != &raw[0] {
		t.Error("CopyScalar copied the bytes")
	}
}

// TestCloneNodesIndependent holds the clone's carving to account: the
// nodes and child lists of one clone share two allocations, and still a
// change to any node — its label, its value, a child appended to it, a field
// appended to the message — reaches neither the original nor any other
// node of the same clone.
func TestCloneNodesIndependent(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		m := randomMessage(rand.New(rand.NewSource(seed)))
		pristine, cp := m.Clone(), m.Clone()
		var nodes []*Field
		var walk func(fs []*Field)
		walk = func(fs []*Field) {
			for _, f := range fs {
				nodes = append(nodes, f)
				walk(f.Children)
			}
		}
		walk(cp.Fields)
		for i, n := range nodes {
			was := *n
			n.Add(NewPrimitive("added", TypeString, "x"))
			n.Label = "mutated"
			n.SetText("mutated")
			if !m.Equal(pristine) {
				t.Fatalf("seed %d: changing node %d of a clone changed the original", seed, i)
			}
			*n = was
			if !cp.Equal(m) {
				t.Fatalf("seed %d: changing node %d of a clone changed another of its nodes:\n%v\n%v", seed, i, cp, m)
			}
		}
		fields := cp.Fields
		cp.Add(NewPrimitive("added", TypeString, "x"))
		cp.Fields = fields
		if !cp.Equal(m) || !m.Equal(pristine) {
			t.Fatalf("seed %d: a field added to a clone landed in one of its child lists", seed)
		}
	}
}

// TestCloneKeepsNilAndEmptyChildren: a clone's child lists are nil where
// the original's are and empty where the original's are empty.
func TestCloneKeepsNilAndEmptyChildren(t *testing.T) {
	m := New("M",
		&Field{Label: "none", Type: TypeStruct},
		&Field{Label: "empty", Type: TypeStruct, Children: []*Field{}},
		NewStruct("some", &Field{Label: "empty", Type: TypeArray, Children: []*Field{}}, NewPrimitive("leaf", TypeString, "x")),
	)
	check := func(what string, none, empty, nested, leaf *Field) {
		t.Helper()
		if none.Children != nil {
			t.Errorf("%s: nil Children became %#v", what, none.Children)
		}
		for _, f := range []*Field{empty, nested} {
			if f.Children == nil || len(f.Children) != 0 {
				t.Errorf("%s: empty Children of %q became %#v", what, f.Label, f.Children)
			}
		}
		if leaf.Children != nil {
			t.Errorf("%s: a leaf got Children %#v", what, leaf.Children)
		}
	}
	cp := m.Clone()
	check("Message.Clone", cp.Fields[0], cp.Fields[1], cp.Fields[2].Children[0], cp.Fields[2].Children[1])
	some := m.Fields[2].Clone()
	check("Field.Clone", m.Fields[0].Clone(), m.Fields[1].Clone(), some.Children[0], some.Children[1])
	if (&Message{Name: "M"}).Clone().Fields != nil {
		t.Error("a message without fields got a field list")
	}
}

func TestEqualNilAndMismatch(t *testing.T) {
	var nilMsg *Message
	if !nilMsg.Equal(nil) {
		t.Error("nil != nil")
	}
	if sampleMessage().Equal(nil) {
		t.Error("msg == nil")
	}
	a := New("A", NewPrimitive("x", TypeInt64, 1))
	b := New("A", NewPrimitive("x", TypeInt64, 2))
	if a.Equal(b) {
		t.Error("different values compare equal")
	}
	c := New("A", NewPrimitive("x", TypeString, "1"))
	if a.Equal(c) {
		t.Error("different types compare equal")
	}
}

// TestIDIsAHeader: a message's ID is the protocol's request id, not
// content: a clone carries it, and two messages that differ only in it are
// equal.
func TestIDIsAHeader(t *testing.T) {
	a := New("A", NewInt64("x", 1))
	a.ID = 7
	if cp := a.Clone(); cp.ID != 7 || !cp.Equal(a) {
		t.Errorf("clone %v with ID %d, want an equal message with ID 7", cp, cp.ID)
	}
	b := New("A", NewInt64("x", 1))
	b.ID = 8
	if !a.Equal(b) {
		t.Error("messages that differ only in ID compare unequal")
	}
}

func TestNormalize(t *testing.T) {
	tests := []struct {
		t    Type
		in   any
		want any
	}{
		{TypeString, 42, "42"},
		{TypeString, []byte("hi"), "hi"},
		{TypeInt64, "17", int64(17)},
		{TypeInt64, uint64(9), int64(9)},
		{TypeInt64, true, int64(1)},
		{TypeUint64, "18", uint64(18)},
		{TypeUint64, int32(7), uint64(7)},
		{TypeBool, "true", true},
		{TypeBool, "1", true},
		{TypeBool, "no", false},
		{TypeFloat64, "2.5", 2.5},
		{TypeFloat64, 3, 3.0},
		{TypeBytes, "abc", []byte("abc")},
	}
	for _, tt := range tests {
		f := NewPrimitive("x", tt.t, tt.in)
		if !reflect.DeepEqual(f.Value(), tt.want) {
			t.Errorf("normalize(%v, %#v) = %#v, want %#v", tt.t, tt.in, f.Value(), tt.want)
		}
	}
}

func TestValueString(t *testing.T) {
	tests := []struct {
		f    *Field
		want string
	}{
		{NewPrimitive("a", TypeString, "s"), "s"},
		{NewPrimitive("a", TypeInt64, -3), "-3"},
		{NewPrimitive("a", TypeUint64, 3), "3"},
		{NewPrimitive("a", TypeBool, true), "true"},
		{NewPrimitive("a", TypeFloat64, 1.5), "1.5"},
		{NewPrimitive("a", TypeBytes, []byte("b")), "b"},
		{NewStruct("a", NewPrimitive("b", TypeInt64, 1)), "[1]"},
		{nil, ""},
		{&Field{Label: "a", Type: TypeString}, ""},
	}
	for i, tt := range tests {
		if got := tt.f.ValueString(); got != tt.want {
			t.Errorf("case %d: ValueString = %q, want %q", i, got, tt.want)
		}
	}
}

func TestStringRendering(t *testing.T) {
	m := New("M", NewPrimitive("x", TypeInt64, 1), NewStruct("s", NewPrimitive("y", TypeString, "z")))
	s := m.String()
	for _, want := range []string{"M{", "x=1", "s{", "y=z"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

// randomField builds a random field tree for property tests.
func randomField(r *rand.Rand, depth int) *Field {
	if depth <= 0 || r.Intn(3) == 0 {
		types := []Type{TypeString, TypeInt64, TypeUint64, TypeBool, TypeFloat64, TypeBytes}
		t := types[r.Intn(len(types))]
		var v any
		switch t {
		case TypeString:
			v = randLabel(r)
		case TypeInt64:
			v = r.Int63() - r.Int63()
		case TypeUint64:
			v = r.Uint64()
		case TypeBool:
			v = r.Intn(2) == 0
		case TypeFloat64:
			v = r.Float64()
		case TypeBytes:
			b := make([]byte, r.Intn(8))
			r.Read(b)
			v = b
		}
		return NewPrimitive(randLabel(r), t, v)
	}
	n := r.Intn(4)
	kids := make([]*Field, n)
	for i := range kids {
		kids[i] = randomField(r, depth-1)
	}
	return NewStruct(randLabel(r), kids...)
}

func randLabel(r *rand.Rand) string {
	const letters = "abcdefgh"
	n := 1 + r.Intn(6)
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[r.Intn(len(letters))]
	}
	return string(b)
}

// RandomMessage builds a random message; exported within the package for
// reuse by quick-check style tests elsewhere.
func randomMessage(r *rand.Rand) *Message {
	n := 1 + r.Intn(5)
	fs := make([]*Field, n)
	for i := range fs {
		fs[i] = randomField(r, 3)
	}
	return New("M"+randLabel(r), fs...)
}

func TestQuickCloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomMessage(r)
		return m.Equal(m.Clone())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickEqualSymmetric(t *testing.T) {
	f := func(seed1, seed2 int64) bool {
		a := randomMessage(rand.New(rand.NewSource(seed1)))
		b := randomMessage(rand.New(rand.NewSource(seed2)))
		return a.Equal(b) == b.Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTypeStringUnknown(t *testing.T) {
	if got := Type(99).String(); got != "type(99)" {
		t.Errorf("unknown type = %q", got)
	}
	if TypeArray.String() != "array" {
		t.Error("array name")
	}
}

func TestChildAndAddHelpers(t *testing.T) {
	f := NewStruct("s").Add(NewPrimitive("a", TypeInt64, 1))
	if f.Child("a") == nil || f.Child("zz") != nil {
		t.Error("Child lookup")
	}
	arr := NewArray("list", NewPrimitive("item", TypeString, "x"))
	if arr.Type != TypeArray || len(arr.Children) != 1 {
		t.Errorf("NewArray = %+v", arr)
	}
	m := New("M").Add(NewPrimitive("x", TypeInt64, 1))
	if len(m.Fields) != 1 {
		t.Error("Message.Add")
	}
}

func TestNumericCoercions(t *testing.T) {
	cases := []struct {
		t    Type
		in   any
		want any
	}{
		{TypeInt64, int32(5), int64(5)},
		{TypeInt64, 2.9, int64(2)},
		{TypeUint64, uint32(6), uint64(6)},
		{TypeUint64, uint64(7), uint64(7)},
		{TypeUint64, 3.0, uint64(3)},
		{TypeFloat64, float32(1.5), 1.5},
		{TypeFloat64, int64(4), 4.0},
		{TypeFloat64, uint64(5), 5.0},
	}
	for _, c := range cases {
		got := NewPrimitive("x", c.t, c.in).Value()
		if got != c.want {
			t.Errorf("normalize(%v, %#v) = %#v, want %#v", c.t, c.in, got, c.want)
		}
	}
}

// TestFieldSize: the value moved into the node without making it bigger
// (Type and LengthBits narrowed to make the room).
func TestFieldSize(t *testing.T) {
	if size := reflect.TypeOf(Field{}).Size(); size > 80 {
		t.Errorf("Field is %d bytes, want at most 80", size)
	}
}

// TestEveryTypeEveryInput runs every Type against every kind of Go value
// Set accepts, and holds the field that comes out to the accessors'
// contract: Value has the canonical dynamic type, the typed accessor of the
// field's own kind agrees with it, ValueString is its text, a clone is
// Equal, a typed constructor builds the same field, and CopyScalar moves
// the value under the 64-bit type of its kind.
func TestEveryTypeEveryInput(t *testing.T) {
	inputs := []any{
		nil, "", "17", " 18 ", "-3", "2.5", "true", "text",
		[]byte("9"), []byte{}, true, false,
		int(-4), int32(5), int64(-6), uint32(7), uint64(8), uint64(math.MaxUint64),
		float32(1.5), 2.9, -0.0, math.NaN(), math.Inf(1),
	}
	types := []Type{TypeString, TypeInt32, TypeInt64, TypeUint32, TypeUint64, TypeBool, TypeFloat64, TypeBytes, Type(0), Type(99)}
	for _, ty := range types {
		for _, in := range inputs {
			f := NewPrimitive("x", ty, in)
			name := fmt.Sprintf("%v(%#v)", ty, in)
			if f.Type != ty || f.Label != "x" {
				t.Errorf("%s: built as %v %q", name, f.Type, f.Label)
			}
			var typed *Field // what the typed constructor makes of the same value
			wide := ty       // the type CopyScalar gives
			switch v := f.Value().(type) {
			case string:
				if ty != TypeString && ty != 0 && ty != 99 {
					t.Errorf("%s: Value is a string", name)
				}
				if v != f.Text() || v != f.ValueString() {
					t.Errorf("%s: Value %q, Text %q, ValueString %q", name, v, f.Text(), f.ValueString())
				}
				typed, wide = NewString("x", v), TypeString
			case int64:
				if ty != TypeInt32 && ty != TypeInt64 {
					t.Errorf("%s: Value is an int64", name)
				}
				if v != f.Int64() || strconv.FormatInt(v, 10) != f.ValueString() {
					t.Errorf("%s: Value %d, Int64 %d, ValueString %q", name, v, f.Int64(), f.ValueString())
				}
				typed, wide = NewInt64("x", v), TypeInt64
			case uint64:
				if ty != TypeUint32 && ty != TypeUint64 {
					t.Errorf("%s: Value is a uint64", name)
				}
				if v != f.Uint64() || strconv.FormatUint(v, 10) != f.ValueString() {
					t.Errorf("%s: Value %d, Uint64 %d, ValueString %q", name, v, f.Uint64(), f.ValueString())
				}
				typed, wide = NewUint64("x", v), TypeUint64
			case bool:
				if ty != TypeBool || v != f.Bool() || strconv.FormatBool(v) != f.ValueString() {
					t.Errorf("%s: Value %v, Bool %v, ValueString %q", name, v, f.Bool(), f.ValueString())
				}
				typed = NewBool("x", v)
			case float64:
				same := v == f.Float64() || (math.IsNaN(v) && math.IsNaN(f.Float64()))
				if ty != TypeFloat64 || !same || strconv.FormatFloat(v, 'g', -1, 64) != f.ValueString() {
					t.Errorf("%s: Value %v, Float64 %v, ValueString %q", name, v, f.Float64(), f.ValueString())
				}
				typed = NewFloat64("x", v)
			case []byte:
				if ty != TypeBytes || string(v) != string(f.Bytes()) || string(v) != f.ValueString() {
					t.Errorf("%s: Value %q, Bytes %q, ValueString %q", name, v, f.Bytes(), f.ValueString())
				}
				typed = NewBytes("x", v)
			default:
				t.Errorf("%s: Value has dynamic type %T", name, v)
				continue
			}
			if ty == wide && !typed.Equal(f) {
				t.Errorf("%s: the typed constructor builds %v, NewPrimitive %v", name, typed.Value(), f.Value())
			}
			cp := f.Clone()
			if !cp.Equal(f) || !f.Equal(cp) || cp.ValueString() != f.ValueString() {
				t.Errorf("%s: clone %v differs from %v", name, cp.Value(), f.Value())
			}
			var moved Field
			moved.Label = "x"
			moved.CopyScalar(f)
			if moved.Type != wide || moved.ValueString() != f.ValueString() || !reflect.DeepEqual(moved.Value(), f.Value()) {
				// NaN is not DeepEqual to itself; its text is compared above.
				if v, ok := f.Value().(float64); !ok || !math.IsNaN(v) {
					t.Errorf("%s: CopyScalar gives %v %#v, want %v %#v", name, moved.Type, moved.Value(), wide, f.Value())
				}
			}
			// A setter leaves nothing of what the node held before.
			f.SetText("reset")
			if !f.Equal(NewString("x", "reset")) {
				t.Errorf("%s: SetText over it leaves %v behind", name, f.Value())
			}
		}
	}
	// The coercions a reader may ask of a field of another kind.
	n := NewString("n", " 42 ")
	if n.Int64() != 42 || n.Uint64() != 42 || n.Float64() != 42 || n.Bool() || string(n.Bytes()) != " 42 " {
		t.Errorf("text read as numbers: %d %d %v %v %q", n.Int64(), n.Uint64(), n.Float64(), n.Bool(), n.Bytes())
	}
	if b := NewBool("b", true); b.Int64() != 1 || b.Text() != "true" || !NewString("b", "1").Bool() {
		t.Error("booleans read as numbers and text")
	}
	if x := NewFloat64("x", 2.9); x.Int64() != 2 || x.Uint64() != 2 || NewInt64("i", -3).Float64() != -3 {
		t.Error("floats and integers read as each other")
	}
	if NewBytes("b", []byte("7")).Int64() != 0 || NewBytes("b", nil).Bytes() != nil {
		t.Error("bytes are no number, and none are nil")
	}
}

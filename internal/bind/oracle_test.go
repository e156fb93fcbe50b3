package bind

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"starlink/internal/message"
	"starlink/internal/protocol/httpwire"
	"starlink/internal/protocol/rest"
	"starlink/internal/protocol/xmlrpc"
)

// The mappings the binders went through before they wrote and carved
// straight from the fields, kept word for word as what the direct paths are
// held against: fieldToValue built the xmlrpc.Value tree MarshalCall and
// MarshalResponse rendered, abstractFromEntry one field and one child list
// per Atom entry.

func fieldToValue(f *message.Field) xmlrpc.Value {
	if f.Type.Primitive() {
		switch v := f.Value().(type) {
		case string, int64, bool, float64:
			return v
		default:
			return f.ValueString()
		}
	}
	if f.Type == message.TypeArray || allChildrenShareLabel(f) {
		arr := make([]xmlrpc.Value, len(f.Children))
		for i, c := range f.Children {
			arr[i] = fieldToValue(c)
		}
		return arr
	}
	st := make(map[string]xmlrpc.Value, len(f.Children))
	for _, c := range f.Children {
		st[c.Label] = fieldToValue(c)
	}
	return st
}

func abstractFromEntry(e rest.Entry) *message.Field {
	optional := [...]struct{ label, value string }{
		{"summary", e.Summary}, {"author", e.Author}, {"src", e.ContentSrc}, {"type", e.ContentType},
	}
	n := 2
	for _, o := range optional {
		if o.value != "" {
			n++
		}
	}
	f := &message.Field{Label: "entry", Type: message.TypeStruct, Children: make([]*message.Field, 0, n)}
	f.Add(
		message.NewPrimitive("id", message.TypeString, e.ID),
		message.NewPrimitive("title", message.TypeString, e.Title),
	)
	for _, o := range optional {
		if o.value != "" {
			f.Add(message.NewPrimitive(o.label, message.TypeString, o.value))
		}
	}
	return f
}

// oracleReply and oracleRequest are XMLRPCBinder.BuildReply and
// BuildRequest as they were.
func oracleReply(abs *message.Message) ([]byte, error) {
	var result xmlrpc.Value
	if len(abs.Fields) == 1 && abs.Fields[0].Label == "result" {
		result = fieldToValue(abs.Fields[0])
	} else {
		st := map[string]xmlrpc.Value{}
		for _, f := range abs.Fields {
			st[f.Label] = fieldToValue(f)
		}
		result = st
	}
	body, err := xmlrpc.MarshalResponse(result)
	if err != nil {
		return nil, err
	}
	resp := &httpwire.Response{Status: 200, Headers: httpwire.Headers{{Name: "Content-Type", Value: "text/xml"}}, Body: body}
	return resp.Marshal(), nil
}

func oracleRequest(path, action string, abs *message.Message) ([]byte, error) {
	st := map[string]xmlrpc.Value{}
	for _, f := range abs.Fields {
		st[f.Label] = fieldToValue(f)
	}
	body, err := xmlrpc.MarshalCall(action, st)
	if err != nil {
		return nil, err
	}
	req := &httpwire.Request{Method: "POST", Target: path, Headers: httpwire.Headers{{Name: "Content-Type", Value: "text/xml"}}, Body: body}
	return req.Marshal(), nil
}

// checkBuildsMatchOracle holds both build directions of the XML-RPC binder
// to the oracle, byte for byte, on one abstract message.
func checkBuildsMatchOracle(t *testing.T, abs *message.Message) {
	t.Helper()
	b := &XMLRPCBinder{Path: "/services/xmlrpc"}
	got, err := b.BuildReply("op", abs)
	want, wantErr := oracleReply(abs)
	if (err != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
		t.Errorf("BuildReply(%v)\n got %q, %v\nwant %q, %v", abs, got, err, want, wantErr)
	}
	got, err = b.BuildRequest("op", abs)
	want, wantErr = oracleRequest(b.Path, "op", abs)
	if (err != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
		t.Errorf("BuildRequest(%v)\n got %q, %v\nwant %q, %v", abs, got, err, want, wantErr)
	}
}

func TestXMLRPCBuildMatchesOracle(t *testing.T) {
	str := func(label, v string) *message.Field { return message.NewPrimitive(label, message.TypeString, v) }
	photo := func(id string) *message.Field {
		return message.NewStruct("photo", str("title", "t"+id), str("id", id), message.NewPrimitive("views", message.TypeInt64, 1234567))
	}
	for name, fields := range map[string][]*message.Field{
		"no fields":                nil,
		"one result field":         {message.NewPrimitive("result", message.TypeInt64, 42)},
		"one result struct":        {message.NewStruct("result", str("b", "2"), str("a", "1"))},
		"result beside another":    {str("result", "r"), str("other", "o")},
		"duplicate labels":         {str("x", "first"), str("a", "1"), str("x", "second"), str("x", "last")},
		"duplicates at top, twice": {photo("1"), photo("2")},
		"empty struct":             {message.NewStruct("s")},
		"empty array":              {message.NewArray("a")},
		"single-child struct":      {message.NewStruct("s", str("item", "only"))},
		"single-child array":       {message.NewArray("a", str("item", "only"))},
		"repeated children":        {message.NewStruct("photos", photo("1"), photo("2"), photo("3"))},
		"mixed children":           {message.NewStruct("photos", photo("1"), str("total", "1"), photo("2"))},
		"nested arrays": {message.NewArray("m",
			message.NewArray("item", str("item", "a"), str("item", "b")),
			message.NewArray("item"),
			message.NewStruct("item", message.NewArray("deep", message.NewArray("item", str("x", "y")))))},
		"scalars": {
			message.NewPrimitive("i", message.TypeInt64, int64(math.MinInt64)),
			message.NewPrimitive("i32", message.TypeInt32, -7),
			message.NewPrimitive("t", message.TypeBool, true),
			message.NewPrimitive("f", message.TypeBool, false),
			message.NewPrimitive("d", message.TypeFloat64, 2.5e-9),
			message.NewPrimitive("big", message.TypeFloat64, 1e300),
			message.NewPrimitive("nan", message.TypeFloat64, math.NaN()),
			message.NewPrimitive("u", message.TypeUint64, uint64(math.MaxUint64)),
			message.NewPrimitive("raw", message.TypeBytes, []byte("by<t>es")),
			message.NewPrimitive("none", message.TypeString, nil),
			message.NewPrimitive("u32", message.TypeUint32, 7),
			{Label: "untyped"},
			message.NewPrimitive("unknown type", message.Type(99), 5),
		},
		"labels and text needing escapes": {
			str(`a&b`, `<"quoted">`), str("<tag>", "line\nbreak\ttab\r"), str("", "no label"), str("café", "￾\x00"),
			message.NewStruct("s&t", str("'", "''")),
		},
		// More members than the sort has room for on the stack, and than an
		// insertion sort would keep in order by accident.
		"many members, few labels": {message.NewStruct("wide", func() []*message.Field {
			var fs []*message.Field
			for i := 0; i < 60; i++ {
				fs = append(fs, str(string(rune('a'+i*7%5)), itoa(i)), str("only"+itoa(i), "v"))
			}
			return fs
		}()...)},
	} {
		t.Run(name, func(t *testing.T) { checkBuildsMatchOracle(t, message.New("op.reply", fields...)) })
	}
	for seed := int64(0); seed < 300; seed++ {
		checkBuildsMatchOracle(t, treeFrom(rand.New(rand.NewSource(seed))))
	}
}

// source is where a generated tree takes its choices from: a seeded
// generator, or a fuzzer's bytes.
type source interface{ Intn(n int) int }

// fuzzBytes reads choices off a fuzz input, zeros once it is used up.
type fuzzBytes []byte

func (b *fuzzBytes) Intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	c := int((*b)[0])
	*b = (*b)[1:]
	return c % n
}

// treeFrom builds an abstract message of the shapes the writer tells apart:
// few labels, so that they repeat, some of them in need of escapes; every
// scalar kind; arrays, structs, and structs that are arrays by their
// children.
func treeFrom(src source) *message.Message {
	labels := []string{"a", "b", "item", "result", "photo", "a&b", "<x>", ""}
	texts := []string{"", "tree", "1", `<&>"'`, "two\nlines", "café"}
	var field func(depth int) *message.Field
	field = func(depth int) *message.Field {
		label := labels[src.Intn(len(labels))]
		kind := src.Intn(9)
		if depth == 0 && kind > 5 {
			kind -= 3
		}
		switch kind {
		case 0:
			return message.NewPrimitive(label, message.TypeString, texts[src.Intn(len(texts))])
		case 1:
			return message.NewPrimitive(label, message.TypeInt64, int64(src.Intn(256)-128)*1_000_003)
		case 2:
			return message.NewPrimitive(label, message.TypeBool, src.Intn(2) == 1)
		case 3:
			return message.NewPrimitive(label, message.TypeFloat64, float64(src.Intn(256))/7)
		case 4:
			return message.NewPrimitive(label, message.TypeUint64, uint64(src.Intn(256))<<56)
		case 5:
			return message.NewPrimitive(label, message.TypeBytes, []byte(texts[src.Intn(len(texts))]))
		}
		children := make([]*message.Field, src.Intn(5))
		for i := range children {
			children[i] = field(depth - 1)
		}
		if kind == 6 {
			return message.NewArray(label, children...)
		}
		if kind == 7 && len(children) > 0 {
			// One label throughout: an array by its children.
			for _, c := range children {
				c.Label = children[0].Label
			}
		}
		return message.NewStruct(label, children...)
	}
	m := message.New("op.reply")
	for n := src.Intn(6); n > 0; n-- {
		m.Add(field(4))
	}
	return m
}

// FuzzXMLRPCBuildOracle lets the fuzzer pick the tree.
func FuzzXMLRPCBuildOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 0, 1})                                     // one "result" string
	f.Add([]byte{3, 0, 0, 1, 0, 0, 2, 0, 0, 3})                   // duplicate labels at the top
	f.Add([]byte{1, 1, 7, 3, 2, 0, 1, 4, 0, 2, 0, 0, 3})          // a struct that is an array by its children
	f.Add([]byte{2, 4, 6, 2, 2, 6, 0, 2, 6, 1, 0, 0, 0, 5, 8, 0}) // nested arrays, an empty struct
	f.Fuzz(func(t *testing.T, data []byte) {
		src := fuzzBytes(data)
		checkBuildsMatchOracle(t, treeFrom(&src))
	})
}

// TestFieldsFromEntriesMatchOracle: the fields a feed reply is carved into
// equal the ones made entry by entry, and although they share two
// allocations a field appended to one entry does not land in the next.
func TestFieldsFromEntriesMatchOracle(t *testing.T) {
	entries := []rest.Entry{
		{ID: "p1", Title: "tree", ContentSrc: "http://x/1.jpg", ContentType: "image/jpeg"},
		{},
		{ID: "c1", Summary: "nice", Author: "bob"},
		{ID: "p2", Title: "oak", Summary: "s", Author: "a", ContentSrc: "u", ContentType: "t"},
		{Title: "no id"},
	}
	b := newRESTBinder(t)
	for n := 0; n <= len(entries); n++ {
		body, err := rest.AppendFeed(nil, rest.Feed{Title: "t", Entries: entries[:n]})
		if err != nil {
			t.Fatal(err)
		}
		reply, err := b.ParseReply("picasa.photos.search", (&httpwire.Response{Status: 200, Body: body}).Marshal())
		if err != nil {
			t.Fatal(err)
		}
		fields := reply.Fields
		if len(fields) != n {
			t.Fatalf("%d entries made %d fields", n, len(fields))
		}
		for i, f := range fields {
			if want := abstractFromEntry(entries[i]); !f.Equal(want) {
				t.Errorf("entry %d of %d: got %v, want %v", i, n, message.New("", f), message.New("", want))
			}
		}
		for _, f := range fields {
			f.Add(message.NewPrimitive("added", message.TypeString, "x"))
			f.Children = f.Children[:len(f.Children)-1]
		}
		if more := append(fields, message.NewStruct("entry")); n > 0 && &more[0] == &fields[0] {
			t.Errorf("%d entries: the field list has room to spare, into the first entry's children", n)
		}
		for i, f := range fields {
			if want := abstractFromEntry(entries[i]); !f.Equal(want) {
				t.Errorf("entry %d of %d after adding to its neighbours: got %v", i, n, message.New("", f))
			}
		}
	}
}

package xmlenc

import (
	"errors"
	"strings"
	"testing"

	"starlink/internal/message"
)

// decode is DecodeTree with the root's children as a message's fields, so
// a test reads them by path below the root.
func decode(t *testing.T, raw string) (root string, msg *message.Message) {
	t.Helper()
	f, err := DecodeTree([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	return f.Label, message.New(f.Label, f.Children...)
}

const sampleCall = `<?xml version="1.0"?>
<methodCall>
  <methodName>flickr.photos.search</methodName>
  <params>
    <param><value><string>tree</string></value></param>
    <param><value><int>3</int></value></param>
  </params>
</methodCall>`

func TestParseMethodCall(t *testing.T) {
	root, msg := decode(t, sampleCall)
	if root != "methodCall" {
		t.Fatalf("root = %q", root)
	}
	if mn, _ := msg.GetString("methodName"); mn != "flickr.photos.search" {
		t.Errorf("methodName = %q", mn)
	}
	if v, _ := msg.GetString("params.param[0].value.string"); v != "tree" {
		t.Errorf("param0 = %q", v)
	}
	if v, _ := msg.GetString("params.param[1].value.int"); v != "3" {
		t.Errorf("param1 = %q", v)
	}
}

func TestComposeRoundTrip(t *testing.T) {
	in := message.NewStruct("methodCall",
		message.NewPrimitive("methodName", message.TypeString, "flickr.photos.getInfo"),
		message.NewStruct("params",
			message.NewStruct("param",
				message.NewStruct("value",
					message.NewPrimitive("string", message.TypeString, "id<&>1"),
				),
			),
		),
	)
	wire, err := EncodeDoc(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(wire), "id&lt;&amp;&gt;1") {
		t.Errorf("escaping missing: %s", wire)
	}
	_, back := decode(t, string(wire))
	if v, _ := back.GetString("params.param.value.string"); v != "id<&>1" {
		t.Errorf("round-trip value = %q", v)
	}
}

func TestAttributesRoundTrip(t *testing.T) {
	raw := `<feed><entry etag="W/1"><id>p1</id><content type="image/jpeg" src="http://x/1.jpg"/></entry></feed>`
	f, err := DecodeTree([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	msg := message.New(f.Label, f.Children...)
	if v, _ := msg.GetString("entry.@etag"); v != "W/1" {
		t.Errorf("@etag = %q", v)
	}
	if v, _ := msg.GetString("entry.content.@src"); v != "http://x/1.jpg" {
		t.Errorf("@src = %q", v)
	}
	wire, err := EncodeDoc(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, back := decode(t, string(wire)); !msg.Equal(back) {
		t.Errorf("attribute round-trip mismatch:\n%s\n%s", msg, back)
	}
}

func TestMixedContent(t *testing.T) {
	_, msg := decode(t, `<methodCall><methodName>m</methodName><note lang="en">hello <b>world</b></note></methodCall>`)
	if v, _ := msg.GetString("note.#text"); v != "hello" {
		t.Errorf("#text = %q", v)
	}
	if v, _ := msg.GetString("note.b"); v != "world" {
		t.Errorf("b = %q", v)
	}
	if v, _ := msg.GetString("note.@lang"); v != "en" {
		t.Errorf("@lang = %q", v)
	}
}

func TestEmptyElement(t *testing.T) {
	_, msg := decode(t, `<methodCall><params/></methodCall>`)
	f, err := msg.Lookup("params")
	if err != nil {
		t.Fatal(err)
	}
	if !f.Type.Primitive() || f.ValueString() != "" {
		t.Errorf("empty element = %v %q", f.Type, f.ValueString())
	}
}

// TestRootAttrsEmitted: a namespace declaration on the root is decoded as
// an attribute child and written back on the root's start tag.
func TestRootAttrsEmitted(t *testing.T) {
	f, err := DecodeTree([]byte(`<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/"><Body/></Envelope>`))
	if err != nil {
		t.Fatal(err)
	}
	wire, err := EncodeDoc(f)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(wire), `<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/">`) {
		t.Errorf("root attr missing: %s", wire)
	}
}

func TestMalformedDocuments(t *testing.T) {
	for _, raw := range []string{"", "not xml", "<methodCall>", "<a><b></a></b>"} {
		if _, err := DecodeTree([]byte(raw)); err == nil {
			t.Errorf("DecodeTree(%q) accepted", raw)
		}
	}
}

func TestComposeTopLevelAttrBecomesRootAttr(t *testing.T) {
	wire, err := EncodeDoc(message.NewStruct("methodCall", message.NewPrimitive("@v", message.TypeString, "1")))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(wire), `<methodCall v="1"/>`) {
		t.Errorf("root attribute not emitted: %s", wire)
	}
}

func TestDecodeEncodeHelpers(t *testing.T) {
	f, err := DecodeTree([]byte(`<entry><id>p1</id></entry>`))
	if err != nil {
		t.Fatal(err)
	}
	if f.Label != "entry" || f.Child("id").ValueString() != "p1" {
		t.Errorf("DecodeTree = %v", f)
	}
	doc, err := EncodeDoc(f)
	if err != nil {
		t.Fatal(err)
	}
	if string(doc) != docHeader+"<entry><id>p1</id></entry>" {
		t.Errorf("EncodeDoc = %q", doc)
	}
}

func BenchmarkXMLParse(b *testing.B) {
	raw := []byte(sampleCall)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeTree(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXMLCompose(b *testing.B) {
	tree, err := DecodeTree([]byte(sampleCall))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeDoc(tree); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWriterReportsMisuse(t *testing.T) {
	for name, misuse := range map[string]func(w *Writer){
		"attribute after content":     func(w *Writer) { w.Open("a"); w.Leaf("b", ""); w.Attr("k", "v"); w.Close() },
		"element named as attribute":  func(w *Writer) { w.Leaf("@k", "v") },
		"element named as text":       func(w *Writer) { w.Open("#text"); w.Close() },
		"joined name as text":         func(w *Writer) { w.OpenJoined("#te", "xt"); w.Close() },
		"joined name as attribute":    func(w *Writer) { w.OpenJoined("", "@k"); w.Close() },
		"element left open":           func(w *Writer) { w.Open("a") },
		"close with nothing open":     func(w *Writer) { w.Open("a"); w.Close(); w.Close() },
		"failed by the caller":        func(w *Writer) { w.Open("a"); w.Fail(errors.New("no")); w.Close() },
		"tree rooted at an attribute": func(w *Writer) { w.Field(message.NewPrimitive("@k", message.TypeString, "v")) },
	} {
		w := NewDoc()
		misuse(w)
		if doc, err := w.Doc(); err == nil {
			t.Errorf("%s: Doc() = %q, want an error", name, doc)
		}
	}
	w := NewDoc()
	w.Open("a")
	w.Attr("k", `"v"`)
	w.Open("empty")
	w.Close()
	w.Leaf("leaf", "")
	w.Close()
	doc, err := w.Doc()
	if want := docHeader + `<a k="&#34;v&#34;"><empty/><leaf></leaf></a>`; err != nil || string(doc) != want {
		t.Errorf("Doc() = %q, %v, want %q", doc, err, want)
	}
}

// TestWriterOpenJoined: an element opened in two parts is the element
// opened whole, with content and without.
func TestWriterOpenJoined(t *testing.T) {
	w := NewDoc()
	w.OpenJoined("Plus", "Response")
	w.Leaf("result", "42")
	w.Close()
	w.OpenJoined("Plus", "Response")
	w.Close()
	doc, err := w.AppendTo(nil)
	if want := docHeader + `<PlusResponse><result>42</result></PlusResponse><PlusResponse/>`; err != nil || string(doc) != want {
		t.Errorf("Doc() = %q, %v, want %q", doc, err, want)
	}
	w = NewDoc()
	w.OpenJoined("Plus", "Response")
	if _, err := w.Doc(); err == nil || !strings.Contains(err.Error(), "<PlusResponse>") {
		t.Errorf("an element left open reports %v, want it named whole", err)
	}
}

func TestWriterAppendTo(t *testing.T) {
	head := make([]byte, 0, 64)
	head = append(head, "head\n"...)
	w := NewDoc()
	w.Leaf("a", "b")
	out, err := w.AppendTo(head)
	if want := "head\n" + docHeader + "<a>b</a>"; err != nil || string(out) != want {
		t.Errorf("AppendTo = %q, %v, want %q", out, err, want)
	}
	if &out[0] != &head[0] {
		t.Error("AppendTo left the room dst had unused")
	}
	w = NewDoc()
	w.Open("a")
	if out, err := w.AppendTo(head); err == nil || string(out) != "head\n" {
		t.Errorf("AppendTo of an unfinished document = %q, %v, want dst back and an error", out, err)
	}
}

package xmlenc

import (
	"errors"
	"strings"
	"testing"

	"starlink/internal/mdl"
	"starlink/internal/message"
)

const xmlrpcDoc = `
<MDL:XMLRPC:xml>
<Message:MethodCall>
<Rule:root=methodCall>
<End:Message>
<Message:MethodResponse>
<Rule:root=methodResponse>
<End:Message>
`

func mustCodec(t *testing.T, doc string) mdl.Codec {
	t.Helper()
	spec, err := mdl.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return c
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
	c := mustCodec(t, xmlrpcDoc)
	msg, err := c.Parse([]byte(sampleCall))
	if err != nil {
		t.Fatal(err)
	}
	if msg.Name != "MethodCall" {
		t.Fatalf("parsed as %q", msg.Name)
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

func TestDispatchOnRoot(t *testing.T) {
	c := mustCodec(t, xmlrpcDoc)
	msg, err := c.Parse([]byte(`<methodResponse><params/></methodResponse>`))
	if err != nil {
		t.Fatal(err)
	}
	if msg.Name != "MethodResponse" {
		t.Errorf("parsed as %q", msg.Name)
	}
	if _, err := c.Parse([]byte(`<other/>`)); !errors.Is(err, mdl.ErrNoMessageMatch) {
		t.Errorf("unknown root err = %v", err)
	}
}

func TestComposeRoundTrip(t *testing.T) {
	c := mustCodec(t, xmlrpcDoc)
	in := message.New("MethodCall",
		message.NewPrimitive("methodName", message.TypeString, "flickr.photos.getInfo"),
		message.NewStruct("params",
			message.NewStruct("param",
				message.NewStruct("value",
					message.NewPrimitive("string", message.TypeString, "id<&>1"),
				),
			),
		),
	)
	wire, err := c.Compose(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(wire), "id&lt;&amp;&gt;1") {
		t.Errorf("escaping missing: %s", wire)
	}
	back, err := c.Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := back.GetString("params.param.value.string"); v != "id<&>1" {
		t.Errorf("round-trip value = %q", v)
	}
}

func TestAttributesRoundTrip(t *testing.T) {
	doc := `
<MDL:Atom:xml>
<Message:Feed>
<Rule:root=feed>
<End:Message>
`
	c := mustCodec(t, doc)
	raw := `<feed><entry etag="W/1"><id>p1</id><content type="image/jpeg" src="http://x/1.jpg"/></entry></feed>`
	msg, err := c.Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := msg.GetString("entry.@etag"); v != "W/1" {
		t.Errorf("@etag = %q", v)
	}
	if v, _ := msg.GetString("entry.content.@src"); v != "http://x/1.jpg" {
		t.Errorf("@src = %q", v)
	}
	wire, err := c.Compose(msg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := c.Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !msg.Equal(back) {
		t.Errorf("attribute round-trip mismatch:\n%s\n%s", msg, back)
	}
}

func TestMixedContent(t *testing.T) {
	c := mustCodec(t, xmlrpcDoc)
	raw := `<methodCall><methodName>m</methodName><note lang="en">hello <b>world</b></note></methodCall>`
	msg, err := c.Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
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
	c := mustCodec(t, xmlrpcDoc)
	msg, err := c.Parse([]byte(`<methodCall><params/></methodCall>`))
	if err != nil {
		t.Fatal(err)
	}
	f, err := msg.Lookup("params")
	if err != nil {
		t.Fatal(err)
	}
	if !f.Type.Primitive() || f.ValueString() != "" {
		t.Errorf("empty element = %v %q", f.Type, f.ValueString())
	}
}

func TestValueRuleDispatch(t *testing.T) {
	doc := `
<MDL:SOAP:xml>
<Message:AddRequest>
<Rule:root=Envelope>
<Rule:Body.Add.op=add>
<End:Message>
<Message:SubRequest>
<Rule:root=Envelope>
<Rule:Body.Sub.op=sub>
<End:Message>
`
	c := mustCodec(t, doc)
	msg, err := c.Parse([]byte(`<Envelope><Body><Sub><op>sub</op></Sub></Body></Envelope>`))
	if err != nil {
		t.Fatal(err)
	}
	if msg.Name != "SubRequest" {
		t.Errorf("dispatched to %q", msg.Name)
	}
}

func TestRootAttrsEmitted(t *testing.T) {
	doc := `
<MDL:SOAP:xml>
<Message:Envelope>
<Rule:root=Envelope>
<xmlns:attr:http://schemas.xmlsoap.org/soap/envelope/>
<End:Message>
`
	c := mustCodec(t, doc)
	wire, err := c.Compose(message.New("Envelope", message.NewStruct("Body")))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(wire), `<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/"`) {
		t.Errorf("root attr missing: %s", wire)
	}
}

func TestBadSpecs(t *testing.T) {
	noRoot := "<MDL:X:xml>\n<Message:M><End:Message>"
	spec, err := mdl.ParseString(noRoot)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(spec); !errors.Is(err, ErrBadSpec) {
		t.Errorf("missing root rule: err = %v", err)
	}
	badItem := "<MDL:X:xml>\n<Message:M><Rule:root=m><A:8><End:Message>"
	spec, err = mdl.ParseString(badItem)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(spec); !errors.Is(err, ErrBadSpec) {
		t.Errorf("bad item: err = %v", err)
	}
}

func TestMalformedDocuments(t *testing.T) {
	c := mustCodec(t, xmlrpcDoc)
	for _, raw := range []string{"", "not xml", "<methodCall>", "<a><b></a></b>"} {
		if _, err := c.Parse([]byte(raw)); err == nil {
			t.Errorf("Parse(%q) accepted", raw)
		}
	}
}

func TestComposeUnknownMessage(t *testing.T) {
	c := mustCodec(t, xmlrpcDoc)
	if _, err := c.Compose(message.New("Nope")); !errors.Is(err, mdl.ErrUnknownMessage) {
		t.Errorf("err = %v", err)
	}
}

func TestComposeTopLevelAttrBecomesRootAttr(t *testing.T) {
	c := mustCodec(t, xmlrpcDoc)
	in := message.New("MethodCall", message.NewPrimitive("@v", message.TypeString, "1"))
	wire, err := c.Compose(in)
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
	spec, _ := mdl.ParseString(xmlrpcDoc)
	c, _ := New(spec)
	raw := []byte(sampleCall)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Parse(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXMLCompose(b *testing.B) {
	spec, _ := mdl.ParseString(xmlrpcDoc)
	c, _ := New(spec)
	msg, err := c.Parse([]byte(sampleCall))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compose(msg); err != nil {
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

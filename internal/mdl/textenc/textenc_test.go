package textenc

import (
	"errors"
	"strings"
	"testing"

	"starlink/internal/mdl"
	"starlink/internal/message"
)

// httpDoc is the HTTP.mdl used throughout the case study.
const httpDoc = `
<MDL:HTTP:text>
<Message:HTTPRequest>
<Rule:Version=HTTP/*>
<Method:tok:sp>
<Target:tok:sp>
<Version:tok:crlf>
<Headers:headers>
<Body:body>
<Path:path:Target>
<Query:query:Target>
<End:Message>

<Message:HTTPResponse>
<Rule:Version=HTTP/*>
<Version:tok:sp>
<Status:tok:sp>
<Reason:tok:crlf>
<Headers:headers>
<Body:body>
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

func TestParseRequestWithQuery(t *testing.T) {
	c := mustCodec(t, httpDoc)
	raw := "GET /data/feed/api/all?q=tree&max-results=3 HTTP/1.1\r\n" +
		"Host: picasaweb.google.com\r\nAccept: */*\r\n\r\n"
	msg, err := c.Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if msg.Name != "HTTPRequest" {
		t.Fatalf("parsed as %q", msg.Name)
	}
	checks := map[string]string{
		"Method":            "GET",
		"Target":            "/data/feed/api/all?q=tree&max-results=3",
		"Version":           "HTTP/1.1",
		"Path":              "/data/feed/api/all",
		"Query.q":           "tree",
		"Query.max-results": "3",
		"Headers.Host":      "picasaweb.google.com",
		"Body":              "",
	}
	for path, want := range checks {
		got, err := msg.GetString(path)
		if err != nil {
			t.Errorf("GetString(%q): %v", path, err)
			continue
		}
		if got != want {
			t.Errorf("%s = %q, want %q", path, got, want)
		}
	}
}

func TestParseResponse(t *testing.T) {
	c := mustCodec(t, httpDoc)
	raw := "HTTP/1.1 200 OK\r\nContent-Type: application/atom+xml\r\nContent-Length: 5\r\n\r\nhello"
	msg, err := c.Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if msg.Name != "HTTPResponse" {
		t.Fatalf("parsed as %q", msg.Name)
	}
	if s, _ := msg.GetString("Status"); s != "200" {
		t.Errorf("Status = %q", s)
	}
	if b, _ := msg.GetString("Body"); b != "hello" {
		t.Errorf("Body = %q", b)
	}
}

func TestComposeRequestRoundTrip(t *testing.T) {
	c := mustCodec(t, httpDoc)
	in := message.New("HTTPRequest",
		message.NewPrimitive("Method", message.TypeString, "POST"),
		message.NewPrimitive("Target", message.TypeString, "/xml-rpc"),
		message.NewPrimitive("Version", message.TypeString, "HTTP/1.1"),
		message.NewStruct("Headers",
			message.NewPrimitive("Host", message.TypeString, "flickr.example"),
			message.NewPrimitive("Content-Type", message.TypeString, "text/xml"),
		),
		message.NewPrimitive("Body", message.TypeString, "<methodCall/>"),
	)
	wire, err := c.Compose(in)
	if err != nil {
		t.Fatal(err)
	}
	s := string(wire)
	if !strings.HasPrefix(s, "POST /xml-rpc HTTP/1.1\r\n") {
		t.Errorf("request line wrong: %q", s)
	}
	if !strings.Contains(s, "Content-Length: 13\r\n") {
		t.Errorf("Content-Length not derived: %q", s)
	}
	back, err := c.Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := back.GetString("Body"); b != "<methodCall/>" {
		t.Errorf("Body = %q", b)
	}
	if ct, _ := back.GetString("Headers.Content-Type"); ct != "text/xml" {
		t.Errorf("Content-Type = %q", ct)
	}
	// The body that comes back is bytes, and the packet's own: its tail,
	// not a copy. What was parsed composes to the packet it was parsed from.
	body := back.Field("Body")
	if body.Type != message.TypeBytes || &body.Bytes()[0] != &wire[len(wire)-len("<methodCall/>")] {
		t.Errorf("parsed Body is %v %q, want the packet's tail", body.Type, body.Bytes())
	}
	if again, err := c.Compose(back); err != nil || string(again) != s {
		t.Errorf("compose∘parse gives %q, %v; want %q", again, err, s)
	}

	// A body held as bytes composes to the same packet, and a length the
	// caller set is replaced where it stands — here last, where a derived
	// one goes.
	in.Field("Body").SetBytes([]byte("<methodCall/>"))
	in.Field("Headers").Add(message.NewPrimitive("content-length", message.TypeString, "99"))
	if again, err := c.Compose(in); err != nil || string(again) != s {
		t.Errorf("bytes body composes to %q, %v; want %q", again, err, s)
	}
}

func TestComposeTargetFromDerivedQuery(t *testing.T) {
	// The Fig. 9 translation sets Path and Query, not Target; the composer
	// must rebuild the request target.
	c := mustCodec(t, httpDoc)
	in := message.New("HTTPRequest",
		message.NewPrimitive("Method", message.TypeString, "GET"),
		message.NewPrimitive("Version", message.TypeString, "HTTP/1.1"),
		message.NewPrimitive("Path", message.TypeString, "/data/feed/api/all"),
		message.NewStruct("Query",
			message.NewPrimitive("q", message.TypeString, "tall tree"),
			message.NewPrimitive("max-results", message.TypeString, "3"),
		),
		message.NewStruct("Headers",
			message.NewPrimitive("Host", message.TypeString, "picasaweb.google.com"),
		),
		message.NewPrimitive("Body", message.TypeString, ""),
	)
	wire, err := c.Compose(in)
	if err != nil {
		t.Fatal(err)
	}
	line, _, _ := strings.Cut(string(wire), "\r\n")
	if line != "GET /data/feed/api/all?max-results=3&q=tall+tree HTTP/1.1" {
		t.Errorf("request line = %q", line)
	}
	back, err := c.Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if q, _ := back.GetString("Query.q"); q != "tall tree" {
		t.Errorf("round-trip query q = %q", q)
	}
}

func TestComposeMissingTokenError(t *testing.T) {
	c := mustCodec(t, httpDoc)
	in := message.New("HTTPRequest",
		message.NewPrimitive("Method", message.TypeString, "GET"),
	)
	if _, err := c.Compose(in); err == nil {
		t.Error("compose with missing Target accepted")
	}
}

func TestComposeUnknownMessage(t *testing.T) {
	c := mustCodec(t, httpDoc)
	if _, err := c.Compose(message.New("Nope")); !errors.Is(err, mdl.ErrUnknownMessage) {
		t.Errorf("err = %v", err)
	}
}

func TestParseTruncated(t *testing.T) {
	c := mustCodec(t, httpDoc)
	for _, raw := range []string{"", "GET", "GET /x", "GET /x HTTP/1.1", "GET /x HTTP/1.1\r\nHost: a"} {
		if _, err := c.Parse([]byte(raw)); !errors.Is(err, mdl.ErrNoMessageMatch) {
			t.Errorf("Parse(%q) err = %v, want ErrNoMessageMatch", raw, err)
		}
	}
}

func TestParseMalformedHeader(t *testing.T) {
	c := mustCodec(t, httpDoc)
	raw := "GET /x HTTP/1.1\r\nbadheader\r\n\r\n"
	if _, err := c.Parse([]byte(raw)); err == nil {
		t.Error("malformed header accepted")
	}
}

func TestRuleRejectsNonHTTP(t *testing.T) {
	c := mustCodec(t, httpDoc)
	raw := "HELLO WORLD FOO/9\r\nA: b\r\n\r\n"
	if _, err := c.Parse([]byte(raw)); !errors.Is(err, mdl.ErrNoMessageMatch) {
		t.Errorf("non-HTTP accepted: %v", err)
	}
}

func TestBadSpecs(t *testing.T) {
	tests := []struct {
		name string
		doc  string
	}{
		{"bad delim", "<MDL:T:text>\n<Message:M><A:tok:pipe><End:Message>"},
		{"unknown kind", "<MDL:T:text>\n<Message:M><A:wat><End:Message>"},
		{"derived missing source", "<MDL:T:text>\n<Message:M><P:path:T><End:Message>"},
		{"derived forward source", "<MDL:T:text>\n<Message:M><P:query:T><T:tok:sp><End:Message>"},
		{"derived from a header block", "<MDL:T:text>\n<Message:M><H:headers><P:path:H><End:Message>"},
		{"derived from a view", "<MDL:T:text>\n<Message:M><T:tok:sp><P:path:T><Q:query:P><End:Message>"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spec, err := mdl.ParseString(tt.doc)
			if err != nil {
				t.Fatalf("doc did not parse: %v", err)
			}
			if _, err := New(spec); !errors.Is(err, ErrBadSpec) {
				t.Errorf("New err = %v, want ErrBadSpec", err)
			}
		})
	}
}

func TestRepeatedQueryParams(t *testing.T) {
	c := mustCodec(t, httpDoc)
	raw := "GET /p?tag=a&tag=b HTTP/1.1\r\n\r\n"
	msg, err := c.Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	q, err := msg.Lookup("Query")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Children) != 2 {
		t.Fatalf("query children = %d", len(q.Children))
	}
	v0, _ := msg.GetString("Query.tag[0]")
	v1, _ := msg.GetString("Query.tag[1]")
	if v0 != "a" || v1 != "b" {
		t.Errorf("tags = %q, %q", v0, v1)
	}
}

func TestExplicitContentLengthPreservedWithoutBody(t *testing.T) {
	doc := "<MDL:T:text>\n<Message:M><A:tok:crlf><H:headers><End:Message>"
	c := mustCodec(t, doc)
	in := message.New("M",
		message.NewPrimitive("A", message.TypeString, "line"),
		message.NewStruct("H", message.NewPrimitive("Content-Length", message.TypeString, "99")),
	)
	wire, err := c.Compose(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(wire), "Content-Length: 99") {
		t.Errorf("explicit Content-Length lost: %q", wire)
	}
}

func BenchmarkHTTPParse(b *testing.B) {
	spec, _ := mdl.ParseString(httpDoc)
	c, _ := New(spec)
	raw := []byte("GET /data/feed/api/all?q=tree&max-results=3 HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Parse(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHTTPCompose(b *testing.B) {
	spec, _ := mdl.ParseString(httpDoc)
	c, _ := New(spec)
	msg := message.New("HTTPRequest",
		message.NewPrimitive("Method", message.TypeString, "GET"),
		message.NewPrimitive("Target", message.TypeString, "/data/feed/api/all?q=tree"),
		message.NewPrimitive("Version", message.TypeString, "HTTP/1.1"),
		message.NewStruct("Headers", message.NewPrimitive("Host", message.TypeString, "x")),
		message.NewPrimitive("Body", message.TypeString, ""),
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compose(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseReadsPastTheHead: Parse makes a string of the packet up to the
// first blank line only, and a layout that reads text beyond it still gets
// all of it; a body is the packet from where the layout stands, blank
// lines and all.
func TestParseReadsPastTheHead(t *testing.T) {
	c := mustCodec(t, oddDoc)
	for _, tc := range []struct {
		raw, name string
		want      map[string]string
	}{
		{"tail head line\r\n\r\nand the rest\r\n\r\nof it", "Tail",
			map[string]string{"Head": "head line", "Rest": "\r\nand the rest\r\n\r\nof it"}},
		{"twice\r\nA: b\r\n\r\nmiddle\r\nC: d\r\n\r\nbody\r\n\r\nbody", "Twice",
			map[string]string{"First.A": "b", "Middle": "middle", "Second.C": "d", "Body": "body\r\n\r\nbody"}},
		{"bare\r\nbody\r\n\r\nmore", "Bare", map[string]string{"Body": "body\r\n\r\nmore"}},
	} {
		msg, err := c.Parse([]byte(tc.raw))
		if err != nil || msg.Name != tc.name {
			t.Errorf("Parse(%q) = %v, %v; want a %s", tc.raw, msg, err, tc.name)
			continue
		}
		for path, want := range tc.want {
			if got, err := msg.GetString(path); err != nil || got != want {
				t.Errorf("%s: %s = %q, %v; want %q", tc.name, path, got, err, want)
			}
		}
	}
	// A packet that fits no layout is reported as before: the first layout
	// that failed to parse, not the ones a rule turned away.
	_, err := c.Parse([]byte("twice A"))
	if !errors.Is(err, mdl.ErrNoMessageMatch) || !strings.Contains(err.Error(), "Twice: ") || !strings.Contains(err.Error(), ErrTruncated.Error()) {
		t.Errorf("err = %v", err)
	}
}

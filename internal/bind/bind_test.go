package bind

import (
	"errors"
	"strings"
	"testing"

	"starlink/internal/automata"
	"starlink/internal/casestudy"
	"starlink/internal/message"
	"starlink/internal/protocol/giop"
	"starlink/internal/protocol/httpwire"
	"starlink/internal/protocol/jsonrpc"
)

func TestXMLRPCRequestRoundTrip(t *testing.T) {
	b := &XMLRPCBinder{Path: "/xml-rpc", Defs: casestudy.FlickrUsage().Messages}
	abs := message.New(casestudy.FlickrSearch,
		message.NewPrimitive("api_key", message.TypeString, "k"),
		message.NewPrimitive("text", message.TypeString, "tree"),
		message.NewPrimitive("per_page", message.TypeInt64, 3),
	)
	packet, err := b.BuildRequest(casestudy.FlickrSearch, abs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(packet), "POST /xml-rpc HTTP/1.1\r\n") {
		t.Errorf("packet start: %q", packet[:40])
	}
	action, back, err := b.ParseRequest(packet)
	if err != nil {
		t.Fatal(err)
	}
	if action != casestudy.FlickrSearch {
		t.Errorf("action = %q", action)
	}
	if v, _ := back.GetString("text"); v != "tree" {
		t.Errorf("text = %q", v)
	}
	if v, _ := back.GetInt("per_page"); v != 3 {
		t.Errorf("per_page = %d", v)
	}
}

func TestXMLRPCPositionalParamsNamedFromDefs(t *testing.T) {
	defs := map[string]automata.MsgDef{
		"op": {Name: "op", Fields: []string{"alpha", "beta"}},
	}
	b := &XMLRPCBinder{Path: "/x", Defs: defs}
	// Hand-build a positional call (two scalar params).
	other := &XMLRPCBinder{Path: "/x"}
	_ = other
	packet := buildRawXMLRPC(t, "op", `<param><value><string>a</string></value></param><param><value><int>2</int></value></param>`)
	action, abs, err := b.ParseRequest(packet)
	if err != nil {
		t.Fatal(err)
	}
	if action != "op" {
		t.Errorf("action = %q", action)
	}
	if v, _ := abs.GetString("alpha"); v != "a" {
		t.Errorf("alpha = %q", v)
	}
	if v, _ := abs.GetInt("beta"); v != 2 {
		t.Errorf("beta = %d", v)
	}
	// Extra params beyond the def get positional names.
	packet2 := buildRawXMLRPC(t, "op", `<param><value><string>a</string></value></param><param><value><string>b</string></value></param><param><value><string>c</string></value></param>`)
	_, abs2, err := b.ParseRequest(packet2)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := abs2.GetString("param3"); v != "c" {
		t.Errorf("param3 = %q", v)
	}
}

func buildRawXMLRPC(t *testing.T, method, paramsXML string) []byte {
	t.Helper()
	body := `<?xml version="1.0"?><methodCall><methodName>` + method +
		`</methodName><params>` + paramsXML + `</params></methodCall>`
	raw := "POST /x HTTP/1.1\r\nContent-Type: text/xml\r\nContent-Length: " +
		itoa(len(body)) + "\r\n\r\n" + body
	return []byte(raw)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

func TestXMLRPCReplyRoundTrip(t *testing.T) {
	b := &XMLRPCBinder{Path: "/x"}
	abs := message.New(casestudy.FlickrSearchReply,
		message.NewArray("photos",
			message.NewStruct("item",
				message.NewPrimitive("id", message.TypeString, "p1"),
				message.NewPrimitive("title", message.TypeString, "tree"),
			),
			message.NewStruct("item",
				message.NewPrimitive("id", message.TypeString, "p2"),
				message.NewPrimitive("title", message.TypeString, "oak"),
			),
		),
		message.NewPrimitive("total", message.TypeInt64, 2),
	)
	packet, err := b.BuildReply(casestudy.FlickrSearch, abs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := b.ParseReply(casestudy.FlickrSearch, packet)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := back.GetInt("total"); v != 2 {
		t.Errorf("total = %d", v)
	}
	if v, _ := back.GetString("photos.item[1].id"); v != "p2" {
		t.Errorf("photos.item[1].id = %q", v)
	}
}

func TestXMLRPCScalarReply(t *testing.T) {
	b := &XMLRPCBinder{Path: "/x"}
	abs := message.New("add.reply", message.NewPrimitive("result", message.TypeInt64, 42))
	packet, err := b.BuildReply("add", abs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := b.ParseReply("add", packet)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := back.GetInt("result"); v != 42 {
		t.Errorf("result = %d", v)
	}
}

func TestSOAPRoundTrips(t *testing.T) {
	b := &SOAPBinder{Path: "/soap"}
	abs := message.New("Plus",
		message.NewPrimitive("x", message.TypeString, "20"),
		message.NewPrimitive("y", message.TypeString, "22"),
	)
	packet, err := b.BuildRequest("Plus", abs)
	if err != nil {
		t.Fatal(err)
	}
	action, back, err := b.ParseRequest(packet)
	if err != nil {
		t.Fatal(err)
	}
	if action != "Plus" {
		t.Errorf("action = %q", action)
	}
	if v, _ := back.GetString("y"); v != "22" {
		t.Errorf("y = %q", v)
	}

	replyAbs := message.New("Plus.reply", message.NewPrimitive("result", message.TypeString, "42"))
	rp, err := b.BuildReply("Plus", replyAbs)
	if err != nil {
		t.Fatal(err)
	}
	rback, err := b.ParseReply("Plus", rp)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := rback.GetString("result"); v != "42" {
		t.Errorf("result = %q", v)
	}
	if rback.Name != "Plus.reply" {
		t.Errorf("reply name = %q", rback.Name)
	}
}

func TestSOAPRepeatedReplyParams(t *testing.T) {
	b := &SOAPBinder{Path: "/soap"}
	abs := message.New("search.reply",
		message.NewPrimitive("photo_id", message.TypeString, "p1"),
		message.NewPrimitive("photo_id", message.TypeString, "p2"),
	)
	packet, err := b.BuildReply("search", abs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := b.ParseReply("search", packet)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, f := range back.Fields {
		if f.Label == "photo_id" {
			ids = append(ids, f.ValueString())
		}
	}
	if len(ids) != 2 || ids[1] != "p2" {
		t.Errorf("ids = %v", ids)
	}
}

const picasaRoutesDoc = `
# Picasa GData routes (Fig. 1)
route picasa.photos.search GET /data/feed/api/all q=q max-results=max-results -> feed
route picasa.getComments GET /data/feed/api/photoid/{photo_id} kind=kind -> feed
route picasa.addComment POST /data/feed/api/photoid/{photo_id} body=entry -> entry
`

func TestParseRoutes(t *testing.T) {
	routes, err := ParseRoutes(picasaRoutesDoc)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 3 {
		t.Fatalf("routes = %d", len(routes))
	}
	if routes[0].Query["q"] != "q" || routes[0].ReplyKind != "feed" {
		t.Errorf("route0 = %+v", routes[0])
	}
	if routes[2].BodyField != "entry" || routes[2].Method != "POST" {
		t.Errorf("route2 = %+v", routes[2])
	}
}

func TestParseRoutesErrors(t *testing.T) {
	bad := []string{
		"route a GET /x",
		"r a GET /x -> feed",
		"route a GET /x -> banana",
		"route a GET /x q -> feed",
		"route a GET /x body= -> feed",
		"",
		"# only comments",
	}
	for _, doc := range bad {
		if _, err := ParseRoutes(doc); err == nil {
			t.Errorf("ParseRoutes(%q) accepted", doc)
		}
	}
}

// TestParseRoutesRefusesRoutesThatCannotWork: each table below was accepted
// and then failed on every request, or did something silently. Each is
// refused now, naming the line and what is wrong with it.
func TestParseRoutesRefusesRoutesThatCannotWork(t *testing.T) {
	for _, tc := range []struct {
		name, doc, want string
	}{
		{"unclosed placeholder", "route a GET /x/{a -> feed",
			`line 1: placeholder in "{a" is not closed`},
		{"empty placeholder", "# one\n\nroute a GET /x/{}/y -> feed",
			`line 3: placeholder in "{}" is empty`},
		// BuildRequest filled it, matchTemplate never matched it.
		{"placeholder inside a segment", "route a GET /x/p{id} -> feed",
			`line 1: placeholder in "p{id}" is not a whole path segment`},
		{"two placeholders in a segment", "route a GET /x/{a}{b} -> feed",
			`line 1: placeholder in "{a}{b}" is not a whole path segment`},
		{"a query part in the template", "route a GET /x?k=v -> feed",
			`line 1: path template "/x?k=v" has a query part`},
		// A placeholder filled with "" left no request target at all.
		{"a relative path", "route a GET {a} -> feed",
			`line 1: path template "{a}" does not start with /`},
		// The last one won.
		{"repeated query key", "route a GET /x q=one q=two -> feed",
			`line 1: query key "q" given twice`},
		{"second body", "route a POST /x body=one body=two -> entry",
			`line 1: a second body=`},
		// BuildRequest could only ever use the first.
		{"second route for an action", "route a GET /x -> feed\nroute a GET /y -> feed",
			`line 2: a second route for a (the first is on line 1)`},
		// ParseRequest took the first for every request of the second.
		{"shadowed route", "route a GET /x/{id} -> feed\nroute b POST /x/y -> feed\nroute c GET /x/y -> feed",
			`line 3: GET /x/y can be taken for a on line 1`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseRoutes(tc.doc)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("ParseRoutes(%q) = %v, want an error with %q", tc.doc, err, tc.want)
			}
		})
	}
}

// FuzzParseRoutes: a route table does not panic the reader, and every route
// of a table it accepts builds a request from a message that has all of
// its fields, each holding value, which ParseRequest takes back to the
// route's own action.
func FuzzParseRoutes(f *testing.F) {
	f.Add(picasaRoutesDoc, "tree")
	f.Add("route a GET /x/{id} -> feed\nroute b GET /x/y/{id} k=id -> entry\nroute c POST /x/{id} body=e -> entry", "y")
	f.Add("route a GET /{a}/{b} =q q=a -> feed\nroute b GET /{a}/c/{b} -> feed", "")
	f.Add("route a GET /x/{ -> feed\nroute a GET / -> feed", "a/b?c d")
	f.Fuzz(func(t *testing.T, doc, value string) {
		routes, err := ParseRoutes(doc)
		if err != nil {
			return
		}
		b, err := NewRESTBinder(routes)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range routes {
			abs := message.New(r.Action)
			if r.BodyField != "" {
				abs.Add(message.NewStruct(r.BodyField, message.NewString("summary", "s")))
			}
			for rest, more := r.PathTemplate, true; more; {
				var seg string
				seg, rest, more = strings.Cut(rest, "/")
				if name, ok := placeholder(seg); ok {
					abs.Add(message.NewString(name, value))
				}
			}
			for _, field := range r.Query {
				abs.Add(message.NewString(field, value))
			}
			packet, err := b.BuildRequest(r.Action, abs)
			if err != nil {
				t.Fatalf("%+v does not build from %v: %v", r, abs, err)
			}
			action, _, err := b.ParseRequest(packet)
			if err != nil || action != r.Action {
				t.Fatalf("%+v: %q parses as %q, %v", r, packet, action, err)
			}
		}
	})
}

// TestRESTPathVariablesInTemplateOrder: the variables of a path come out in
// the order the template names them, every time. From a map they came out
// in its order, and message.Equal and rcache.Key both depend on field order.
func TestRESTPathVariablesInTemplateOrder(t *testing.T) {
	routes, err := ParseRoutes("route get GET /u/{user}/p/{photo} -> entry")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRESTBinder(routes)
	if err != nil {
		t.Fatal(err)
	}
	packet := []byte("GET /u/al/p/9 HTTP/1.1\r\n\r\n")
	for i := 0; i < 200; i++ {
		action, abs, err := b.ParseRequest(packet)
		if err != nil || action != "get" || len(abs.Fields) != 2 || abs.Fields[0].Label != "user" || abs.Fields[1].Label != "photo" {
			t.Fatalf("parse %d: %s %v, %v; want user, then photo", i, action, abs, err)
		}
	}
}

func newRESTBinder(t *testing.T) *RESTBinder {
	t.Helper()
	routes, err := ParseRoutes(picasaRoutesDoc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRESTBinder(routes)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRESTBuildRequestFig9(t *testing.T) {
	b := newRESTBinder(t)
	abs := message.New(casestudy.PicasaSearch,
		message.NewPrimitive("q", message.TypeString, "tree"),
		message.NewPrimitive("max-results", message.TypeString, "3"),
	)
	packet, err := b.BuildRequest(casestudy.PicasaSearch, abs)
	if err != nil {
		t.Fatal(err)
	}
	line, _, _ := strings.Cut(string(packet), "\r\n")
	if line != "GET /data/feed/api/all?max-results=3&q=tree HTTP/1.1" {
		t.Errorf("request line = %q", line)
	}
}

// TestRESTRequestBytesUnchanged pins the requests of the three Picasa routes
// to the bytes composed before the binder carved them from a slab and the
// text codec rebuilt the target without url.Values: a value to escape in
// the query and in the path, and an Atom body with markup to escape.
func TestRESTRequestBytesUnchanged(t *testing.T) {
	b := newRESTBinder(t)
	for _, tc := range []struct {
		action string
		abs    *message.Message
		want   string
	}{
		{casestudy.PicasaSearch,
			message.New(casestudy.PicasaSearch, message.NewString("q", "tall tree"), message.NewString("max-results", "3")),
			"GET /data/feed/api/all?max-results=3&q=tall+tree HTTP/1.1\r\nAccept: application/atom+xml\r\nContent-Length: 0\r\n\r\n"},
		{casestudy.PicasaGetComments,
			message.New(casestudy.PicasaGetComments, message.NewString("photo_id", "photo 1/x"), message.NewString("kind", "comment")),
			"GET /data/feed/api/photoid/photo%201%2Fx?kind=comment HTTP/1.1\r\nAccept: application/atom+xml\r\nContent-Length: 0\r\n\r\n"},
		{casestudy.PicasaAddComment,
			message.New(casestudy.PicasaAddComment, message.NewString("photo_id", "p1"),
				message.NewStruct("entry", message.NewString("summary", "nice & <good>"), message.NewString("author", "bob"))),
			"POST /data/feed/api/photoid/p1 HTTP/1.1\r\nAccept: application/atom+xml\r\nContent-Length: 136\r\n\r\n" +
				"<?xml version=\"1.0\"?>\n<entry><id></id><title></title><summary>nice &amp; &lt;good&gt;</summary><author><name>bob</name></author></entry>"},
	} {
		wire, err := b.BuildRequest(tc.action, tc.abs)
		if err != nil || string(wire) != tc.want {
			t.Errorf("%s composes\n%q, %v\nwant\n%q", tc.action, wire, err, tc.want)
		}
	}
}

func TestRESTRequestRoundTripWithPathVarAndBody(t *testing.T) {
	b := newRESTBinder(t)
	abs := message.New(casestudy.PicasaAddComment,
		message.NewPrimitive("photo_id", message.TypeString, "photo 1"),
		message.NewStruct("entry",
			message.NewPrimitive("summary", message.TypeString, "nice"),
			message.NewPrimitive("author", message.TypeString, "bob"),
		),
	)
	packet, err := b.BuildRequest(casestudy.PicasaAddComment, abs)
	if err != nil {
		t.Fatal(err)
	}
	action, back, err := b.ParseRequest(packet)
	if err != nil {
		t.Fatal(err)
	}
	if action != casestudy.PicasaAddComment {
		t.Errorf("action = %q", action)
	}
	if v, _ := back.GetString("photo_id"); v != "photo 1" {
		t.Errorf("photo_id = %q", v)
	}
	if v, _ := back.GetString("entry.summary"); v != "nice" {
		t.Errorf("summary = %q", v)
	}
}

func TestRESTReplyFeed(t *testing.T) {
	b := newRESTBinder(t)
	replyAbs := message.New(casestudy.PicasaSearchReply,
		message.NewStruct("entry",
			message.NewPrimitive("id", message.TypeString, "p1"),
			message.NewPrimitive("title", message.TypeString, "tree"),
			message.NewPrimitive("src", message.TypeString, "http://x/1.jpg"),
		),
		message.NewStruct("entry",
			message.NewPrimitive("id", message.TypeString, "p2"),
			message.NewPrimitive("title", message.TypeString, "oak"),
		),
	)
	packet, err := b.BuildReply(casestudy.PicasaSearch, replyAbs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := b.ParseReply(casestudy.PicasaSearch, packet)
	if err != nil {
		t.Fatal(err)
	}
	var entries []*message.Field
	for _, f := range back.Fields {
		if f.Label == "entry" {
			entries = append(entries, f)
		}
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %d", len(entries))
	}
	if entries[0].Child("src").ValueString() != "http://x/1.jpg" {
		t.Errorf("src = %q", entries[0].Child("src").ValueString())
	}
}

func TestRESTErrors(t *testing.T) {
	b := newRESTBinder(t)
	if _, err := b.BuildRequest("nope", message.New("nope")); !errors.Is(err, ErrUnknownAction) {
		t.Errorf("unknown action err = %v", err)
	}
	// Missing path variable.
	if _, err := b.BuildRequest(casestudy.PicasaGetComments, message.New(casestudy.PicasaGetComments)); !errors.Is(err, ErrBadMessage) {
		t.Errorf("missing path var err = %v", err)
	}
	// Missing body field.
	abs := message.New(casestudy.PicasaAddComment,
		message.NewPrimitive("photo_id", message.TypeString, "p1"))
	if _, err := b.BuildRequest(casestudy.PicasaAddComment, abs); !errors.Is(err, ErrBadMessage) {
		t.Errorf("missing body err = %v", err)
	}
	// Reply with error status.
	badReply := []byte("HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n")
	if _, err := b.ParseReply(casestudy.PicasaSearch, badReply); !errors.Is(err, ErrBadMessage) {
		t.Errorf("404 reply err = %v", err)
	}
	// Request matching no route.
	noRoute := []byte("GET /unknown HTTP/1.1\r\n\r\n")
	if _, _, err := b.ParseRequest(noRoute); !errors.Is(err, ErrBadMessage) {
		t.Errorf("no route err = %v", err)
	}
}

// TestRESTReplyHeads: a reply's head is read by httpwire's grammar, as the
// other HTTP binders read theirs, and the HTTP MDL's no longer. Where the
// two judge a reply differently, the row says what the MDL made of it.
func TestRESTReplyHeads(t *testing.T) {
	b := newRESTBinder(t)
	const feed = "<feed><entry><id>p1</id><title>t</title></entry></feed>"
	for _, tc := range []struct {
		name, head string
		ok         bool
	}{
		{"ok", "HTTP/1.1 200 OK\r\nContent-Type: application/atom+xml\r\n\r\n", true},
		{"created", "HTTP/1.0 201 Created\r\n\r\n", true},
		{"not found", "HTTP/1.1 404 Not Found\r\n\r\n", false},
		{"no blank line", "HTTP/1.1 200 OK\r\nContent-Type: x\r\n", false},
		{"header without colon", "HTTP/1.1 200 OK\r\nno colon\r\n\r\n", false},
		{"status not a number", "HTTP/1.1 abc OK\r\n\r\n", false},
		{"a request", "GET / HTTP/1.1\r\n\r\n", false},
		// The MDL cut the status at the next space, in a header line.
		{"no reason phrase", "HTTP/1.1 200\r\nContent-Type: x\r\n\r\n", true},
		// A status code is three ASCII digits (RFC 9112 §4), as the MDL,
		// which held its text to "200" and "201", had it.
		{"signed status", "HTTP/1.1 +200 OK\r\n\r\n", false},
		{"zero-padded status", "HTTP/1.1 0201 Created\r\n\r\n", false},
		// The MDL tried the request layout first, whose version is the
		// third word: this reply read as a request, with no status.
		{"reason that names a version", "HTTP/1.1 200 HTTP/1.1 OK\r\n\r\n", true},
	} {
		reply, err := b.ParseReply(casestudy.PicasaSearch, []byte(tc.head+feed))
		switch {
		case tc.ok && (err != nil || len(reply.Fields) != 1):
			t.Errorf("%s: %v, %v", tc.name, reply, err)
		case !tc.ok && !errors.Is(err, ErrBadMessage):
			t.Errorf("%s: err = %v, want ErrBadMessage", tc.name, err)
		}
	}
}

func TestGIOPBinderRoundTrips(t *testing.T) {
	defs := map[string]automata.MsgDef{
		"Add":       {Name: "Add", Fields: []string{"x", "y"}},
		"Add.reply": {Name: "Add.reply", Fields: []string{"z"}},
	}
	b, err := NewGIOPBinder("calc", defs)
	if err != nil {
		t.Fatal(err)
	}
	abs := message.New("Add",
		message.NewPrimitive("x", message.TypeInt64, 20),
		message.NewPrimitive("y", message.TypeInt64, 22),
	)
	packet, err := b.BuildRequest("Add", abs)
	if err != nil {
		t.Fatal(err)
	}
	action, back, err := b.ParseRequest(packet)
	if err != nil {
		t.Fatal(err)
	}
	if action != "Add" {
		t.Errorf("action = %q", action)
	}
	if v, _ := back.GetInt("x"); v != 20 {
		t.Errorf("x = %d", v)
	}
	if back.ID != 1 || len(back.Fields) != 2 {
		t.Errorf("parsed %v with ID %d, want x and y with the binder's first request id, 1", back, back.ID)
	}

	// Reply: correlated by the ID of the request it answers.
	replyAbs := message.New("Add.reply",
		message.NewPrimitive("z", message.TypeInt64, 42),
	)
	replyAbs.ID = back.ID
	rPacket, err := b.BuildReply("Add", replyAbs)
	if err != nil {
		t.Fatal(err)
	}
	rBack, err := b.ParseReply("Add", rPacket)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := rBack.GetInt("z"); v != 42 {
		t.Errorf("z = %d", v)
	}
	if id := giopRequestID(t, rPacket); id != back.ID {
		t.Errorf("reply RequestID = %d, want the request's %d", id, back.ID)
	}
}

// giopRequestID reads the RequestID of a GIOP packet.
func giopRequestID(t *testing.T, packet []byte) uint64 {
	t.Helper()
	codec, err := giop.NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	concrete, err := codec.Parse(packet)
	if err != nil {
		t.Fatal(err)
	}
	id, err := concrete.GetInt("RequestID")
	if err != nil {
		t.Fatal(err)
	}
	return uint64(id)
}

// jsonrpcID reads the id of a JSON-RPC response packet, and whether it is
// an error.
func jsonrpcID(t *testing.T, packet []byte) (uint64, bool) {
	t.Helper()
	resp, err := httpwire.ParseResponse(packet)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := jsonrpc.ParseResponse(resp.Body)
	var remote *jsonrpc.RemoteError
	if err != nil && !errors.As(err, &remote) {
		t.Fatal(err)
	}
	return id, err != nil
}

// TestErrorRepliesEchoRequestID: a fault answers the request it reports
// on, so it carries the request's ID — the GIOP RequestID, the JSON-RPC id
// — and a fault for no request carries 0.
func TestErrorRepliesEchoRequestID(t *testing.T) {
	giopBinder, err := NewGIOPBinder("calc", casestudy.AddUsage().Messages)
	if err != nil {
		t.Fatal(err)
	}
	codec, err := giop.NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	giopRequest, err := codec.Compose(giop.NewRequest(41, "calc", "Add", []*message.Field{giop.IntParam(1), giop.IntParam(2)}))
	if err != nil {
		t.Fatal(err)
	}
	_, req, err := giopBinder.ParseRequest(giopRequest)
	if err != nil {
		t.Fatal(err)
	}
	for want, req := range map[uint64]*message.Message{41: req, 0: nil} {
		fault, err := giopBinder.BuildErrorReply("Add", req, "down")
		if err != nil {
			t.Fatal(err)
		}
		if id := giopRequestID(t, fault); id != want {
			t.Errorf("GIOP fault RequestID = %d, want %d", id, want)
		}
	}

	jsonBinder := &JSONRPCBinder{Path: "/j"}
	body := `{"method":"op","params":[{"a":1}],"id":43}`
	_, req, err = jsonBinder.ParseRequest([]byte("POST /j HTTP/1.1\r\nContent-Length: " + itoa(len(body)) + "\r\n\r\n" + body))
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Fields) != 1 {
		t.Errorf("parsed %v, want a only", req)
	}
	for want, req := range map[uint64]*message.Message{43: req, 0: nil} {
		fault, err := jsonBinder.BuildErrorReply("op", req, "down")
		if err != nil {
			t.Fatal(err)
		}
		if id, isErr := jsonrpcID(t, fault); id != want || !isErr {
			t.Errorf("JSON-RPC fault id = %d (error %v), want %d", id, isErr, want)
		}
	}
}

func TestGIOPBinderErrors(t *testing.T) {
	b, err := NewGIOPBinder("calc", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.ParseRequest([]byte("garbage")); !errors.Is(err, ErrBadMessage) {
		t.Errorf("garbage err = %v", err)
	}
	if _, err := b.ParseReply("Add", []byte("junk")); !errors.Is(err, ErrBadMessage) {
		t.Errorf("junk reply err = %v", err)
	}
}

func TestFillAndMatchTemplate(t *testing.T) {
	abs := message.New("m", message.NewPrimitive("id", message.TypeString, "a/b"))
	got, err := appendTemplate(nil, "/photoid/{id}", abs)
	if err != nil {
		t.Fatal(err)
	}
	vars, ok := matchTemplate("/photoid/{id}", string(got))
	if !ok || len(vars) != 1 || vars[0].Label != "id" || vars[0].Text() != "a/b" {
		t.Errorf("match = %v, %v", message.New("vars", vars...), ok)
	}
	if _, ok := matchTemplate("/a/{x}", "/b/c"); ok {
		t.Error("mismatched literal accepted")
	}
	if _, ok := matchTemplate("/a/{x}", "/a"); ok {
		t.Error("length mismatch accepted")
	}
	if _, err := appendTemplate(nil, "/p/{missing}", message.New("m")); err == nil {
		t.Error("missing variable accepted")
	}
}

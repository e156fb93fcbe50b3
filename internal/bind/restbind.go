package bind

import (
	"fmt"
	"net/url"
	"slices"
	"strings"

	"starlink/internal/mdl"
	"starlink/internal/mdl/textenc"
	"starlink/internal/message"
	"starlink/internal/network"
	"starlink/internal/protocol/httpwire"
	"starlink/internal/protocol/rest"
	"starlink/models"
)

// Route is one entry of the REST binding table: how an abstract action
// maps onto an HTTP resource (the GET/POST syntax column of Fig. 1).
type Route struct {
	// Action is the abstract action label.
	Action string
	// Method is the HTTP verb.
	Method string
	// PathTemplate is the resource path, with {field} placeholders, each a
	// whole segment, filled from abstract request fields.
	PathTemplate string
	// Query maps query-parameter names to abstract field labels.
	Query map[string]string
	// BodyField names the abstract field marshalled as an Atom <entry>
	// request body ("" for none).
	BodyField string
	// ReplyKind is "feed" or "entry".
	ReplyKind string
}

// ParseRoutes reads a route table document, one route per line:
//
//	# comments allowed
//	route <action> <METHOD> <path-template> [q=field ...] [body=field] -> feed|entry
//
// A path starts with "/", and a placeholder {field} is a whole segment of
// it. ParseRoutes refuses, naming the line, a route that could never be
// built or never be told from another: a placeholder that is unclosed,
// empty or part of a segment; a query part in the template; a query key or
// a body given twice; a second route for one action; and a route whose
// requests an earlier route of the same method can match.
func ParseRoutes(doc string) ([]Route, error) {
	var out []Route
	var lines []int
	for i, line := range strings.Split(doc, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lineNo := i + 1
		bad := func(format string, args ...any) error {
			return fmt.Errorf("bind: routes line %d: "+format, append([]any{lineNo}, args...)...)
		}
		head, kind, ok := strings.Cut(line, "->")
		if !ok {
			return nil, bad("missing \"->\"")
		}
		fields := strings.Fields(head)
		if len(fields) < 4 || fields[0] != "route" {
			return nil, bad("want \"route <action> <METHOD> <path>\"")
		}
		r := Route{
			Action:       fields[1],
			Method:       fields[2],
			PathTemplate: fields[3],
			Query:        map[string]string{},
			ReplyKind:    strings.TrimSpace(kind),
		}
		if r.ReplyKind != "feed" && r.ReplyKind != "entry" {
			return nil, bad("reply kind %q", r.ReplyKind)
		}
		for _, kv := range fields[4:] {
			k, v, ok := strings.Cut(kv, "=")
			switch _, dup := r.Query[k]; {
			case !ok || k == "body" && v == "":
				return nil, bad("bad mapping %q", kv)
			case k == "body" && r.BodyField != "":
				return nil, bad("a second body=")
			case k == "body":
				r.BodyField = v
			case dup:
				return nil, bad("query key %q given twice", k)
			default:
				r.Query[k] = v
			}
		}
		if err := checkTemplate(r.PathTemplate); err != nil {
			return nil, bad("%v", err)
		}
		for j, prev := range out {
			if prev.Action == r.Action {
				return nil, bad("a second route for %s (the first is on line %d)", r.Action, lines[j])
			}
			if prev.Method == r.Method && overlap(prev.PathTemplate, r.PathTemplate) {
				return nil, bad("%s %s can be taken for %s on line %d", r.Method, r.PathTemplate, prev.Action, lines[j])
			}
		}
		out = append(out, r)
		lines = append(lines, lineNo)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bind: route table is empty")
	}
	return out, nil
}

// checkTemplate refuses a path template a request cannot be built from and
// matched against: one that does not start with "/", has a query part, or
// has a placeholder that is unclosed, empty or not a whole segment.
func checkTemplate(tmpl string) error {
	if !strings.HasPrefix(tmpl, "/") {
		return fmt.Errorf("path template %q does not start with /", tmpl)
	}
	if strings.Contains(tmpl, "?") {
		return fmt.Errorf("path template %q has a query part; map parameters as key=field", tmpl)
	}
	for rest, more := tmpl, true; more; {
		var seg string
		seg, rest, more = strings.Cut(rest, "/")
		i := strings.IndexByte(seg, '{')
		if i < 0 {
			continue
		}
		j := strings.IndexByte(seg[i:], '}')
		switch {
		case j < 0:
			return fmt.Errorf("placeholder in %q is not closed", seg)
		case j == 1:
			return fmt.Errorf("placeholder in %q is empty", seg)
		case i != 0 || j != len(seg)-1 || strings.ContainsAny(seg[1:j], "{}"):
			return fmt.Errorf("placeholder in %q is not a whole path segment", seg)
		}
	}
	return nil
}

// overlap reports whether one path matches both templates: they have as
// many segments, and where both are literal they are the same.
func overlap(a, b string) bool {
	as, bs := strings.Split(a, "/"), strings.Split(b, "/")
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		_, va := placeholder(as[i])
		_, vb := placeholder(bs[i])
		if !va && !vb && as[i] != bs[i] {
			return false
		}
	}
	return true
}

// placeholder returns the field a template segment {field} names.
func placeholder(seg string) (string, bool) {
	if len(seg) >= 2 && seg[0] == '{' && seg[len(seg)-1] == '}' {
		return seg[1 : len(seg)-1], true
	}
	return "", false
}

// RESTBinder binds abstract actions to a GData-style REST API through a
// route table and the HTTP text-MDL codec.
type RESTBinder struct {
	routes []restRoute
	codec  mdl.Codec
}

var (
	_ Binder    = (*RESTBinder)(nil)
	_ Projector = (*RESTBinder)(nil)
)

// restRoute is a Route with what every call of it needs worked out once.
type restRoute struct {
	Route
	// params are the query parameters, by key.
	params []param
	// reply names the abstract reply, and keep is what of each of its
	// entries a reply parse makes (Project).
	reply string
	keep  rest.Keep
}

// param maps a query key to the abstract field that fills it.
type param struct{ key, field string }

// NewRESTBinder compiles the HTTP MDL, models/http.mdl, and installs the
// route table. The binder composes every packet and parses requests
// through the text engine, so the DSL-generated parser/composer sits in
// the mediation hot path (the paper's Fig. 9 message flow); a reply's head
// it checks in place, as the other HTTP binders do.
func NewRESTBinder(routes []Route) (*RESTBinder, error) {
	doc, err := models.FS.ReadFile("http.mdl")
	if err != nil {
		return nil, fmt.Errorf("bind: %w", err)
	}
	spec, err := mdl.ParseString(string(doc))
	if err != nil {
		return nil, fmt.Errorf("bind: parse HTTP MDL: %w", err)
	}
	codec, err := textenc.New(spec)
	if err != nil {
		return nil, fmt.Errorf("bind: compile HTTP MDL: %w", err)
	}
	if len(routes) == 0 {
		return nil, fmt.Errorf("bind: REST binder needs at least one route")
	}
	b := &RESTBinder{routes: make([]restRoute, len(routes)), codec: codec}
	for i, r := range routes {
		rr := &b.routes[i]
		rr.Route, rr.reply, rr.keep = r, r.Action+".reply", rest.KeepAll
		for _, k := range sortedKeys(r.Query) {
			rr.params = append(rr.params, param{k, r.Query[k]})
		}
	}
	return b, nil
}

// Framer implements Binder.
func (b *RESTBinder) Framer() network.Framer { return network.HTTPFramer{} }

// Project implements Projector: a reply's entries keep the children the
// action's paths name below "entry", and all of them when a path names an
// entry or the message whole.
func (b *RESTBinder) Project(keep map[string][]string) Binder {
	cp := &RESTBinder{routes: slices.Clone(b.routes), codec: b.codec}
	for i := range cp.routes {
		r := &cp.routes[i]
		if paths, ok := keep[r.Action]; ok {
			r.keep = keepOf(paths)
		}
	}
	return cp
}

// keepOf is what of an entry the paths of a reply name.
func keepOf(paths []string) rest.Keep {
	var k rest.Keep
	for _, p := range paths {
		top, below, _ := strings.Cut(p, ".")
		switch {
		case p == "" || p == "entry":
			return rest.KeepAll
		case top == "entry":
			child, _, _ := strings.Cut(below, ".")
			k |= rest.KeepLabel(child)
		}
	}
	return k
}

func (b *RESTBinder) route(action string) (*restRoute, error) {
	for i := range b.routes {
		if r := &b.routes[i]; r.Action == action {
			return r, nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownAction, action)
}

// BuildRequest implements Binder.
func (b *RESTBinder) BuildRequest(action string, abs *message.Message) ([]byte, error) {
	return b.AppendRequest(nil, action, abs)
}

// AppendRequest implements Binder: fills the route's path template and
// query parameters from the abstract fields and composes the HTTP request
// through the text-MDL codec.
func (b *RESTBinder) AppendRequest(dst []byte, action string, abs *message.Message) ([]byte, error) {
	r, err := b.route(action)
	if err != nil {
		return dst, err
	}
	// A filled path is bytes in a pooled buffer, which the request's Path
	// field holds until the packet is composed; nil is the template as it is.
	var path []byte
	if strings.Contains(r.PathTemplate, "{") {
		buf := getBody()
		defer putBody(buf)
		if *buf, err = appendTemplate(*buf, r.PathTemplate, abs); err != nil {
			return dst, fmt.Errorf("action %s: %w", action, err)
		}
		path = *buf
	}
	// The concrete request is a scaffold: made in a scratch store, given
	// back once the packet is composed.
	st := message.Scratch()
	defer st.Release()
	if r.BodyField == "" {
		return b.codec.AppendCompose(dst, r.request(st, path, abs, nil))
	}
	f := abs.Field(r.BodyField)
	if f == nil {
		return dst, fmt.Errorf("%w: action %s: body field %q missing", ErrBadMessage, action, r.BodyField)
	}
	body := getBody()
	defer putBody(body)
	if *body, err = rest.AppendEntry(*body, entryFromAbstract(f)); err != nil {
		return dst, err
	}
	return b.codec.AppendCompose(dst, r.request(st, path, abs, *body))
}

// request carves the concrete HTTPRequest of a call from one slab of st's
// nodes and one of its lists, as giop.newMessage carves a GIOP message:
// Method, Version, Path, Headers, Query and Body, then the Accept header,
// then the query parameters abs has a field for. A nil path is the route's
// template, and a nil body none.
func (r *restRoute) request(st *message.Store, path []byte, abs *message.Message, body []byte) *message.Message {
	n := 0
	for _, p := range r.params {
		if abs.Field(p.field) != nil {
			n++
		}
	}
	nodes := st.Nodes(7 + n)
	links := st.Links(len(nodes))
	for i := range nodes {
		links[i] = &nodes[i]
	}
	nodes[0].Label, nodes[1].Label, nodes[2].Label = "Method", "Version", "Path"
	nodes[0].SetText(r.Method)
	nodes[1].SetText("HTTP/1.1")
	if path == nil {
		nodes[2].SetText(r.PathTemplate)
	} else {
		st.SetBytes(&nodes[2], path)
	}
	nodes[3].Label, nodes[3].Type, nodes[3].Children = "Headers", message.TypeStruct, links[6:7:7]
	nodes[4].Label, nodes[4].Type, nodes[4].Children = "Query", message.TypeStruct, links[7:]
	nodes[5].Label = "Body"
	if body == nil {
		nodes[5].SetText("")
	} else {
		st.SetBytes(&nodes[5], body)
	}
	nodes[6].Label = "Accept"
	nodes[6].SetText("application/atom+xml")
	q := nodes[7:]
	for _, p := range r.params {
		if f := abs.Field(p.field); f != nil {
			q[0].Label = p.key
			q[0].SetText(f.ValueString())
			q = q[1:]
		}
	}
	msg := st.Message("HTTPRequest")
	msg.Fields = links[:6:6]
	return msg
}

// ParseReply implements Binder: reads the HTTP response's status and body
// where they stand, as the other HTTP binders do, and decodes the Atom
// payload straight into abstract fields, each entry with the children the
// route keeps.
func (b *RESTBinder) ParseReply(action string, packet []byte) (*message.Message, error) {
	return b.ParseReplyIn(nil, action, packet)
}

// ParseReplyIn implements Binder, as ParseReply says, in st.
func (b *RESTBinder) ParseReplyIn(st *message.Store, action string, packet []byte) (*message.Message, error) {
	r, err := b.route(action)
	if err != nil {
		return nil, err
	}
	status, body, err := httpwire.ResponseBody(packet)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	if status != 200 && status != 201 {
		return nil, fmt.Errorf("%w: action %s: HTTP status %d", ErrBadMessage, action, status)
	}
	abs := st.Message(r.reply)
	if r.ReplyKind == "feed" {
		abs.Fields, err = rest.ParseFeedFields(st, body, r.keep)
	} else {
		var e *message.Field
		if e, err = rest.ParseEntryFields(st, body, r.keep); err == nil {
			abs.Fields = st.Links(1)
			abs.Fields[0] = e
		}
	}
	if err != nil {
		return nil, err
	}
	return abs, nil
}

// bodyOf returns the Body the text-MDL codec found in a request: a
// <Name:body> item is the packet's own tail, so the XML decoder reads it
// where it is.
func bodyOf(concrete *message.Message) []byte {
	if f := concrete.Field("Body"); f != nil {
		return f.Bytes()
	}
	return nil
}

// ParseRequest implements Binder: matches the request against the route
// table (for mediators whose *client-facing* side is REST).
func (b *RESTBinder) ParseRequest(packet []byte) (string, *message.Message, error) {
	return b.ParseRequestIn(nil, packet)
}

// ParseRequestIn implements Binder, as ParseRequest says: the concrete
// request, the message and a body entry are made in st, the path and query
// fields on the heap.
func (b *RESTBinder) ParseRequestIn(st *message.Store, packet []byte) (string, *message.Message, error) {
	concrete, err := b.codec.ParseIn(st, packet)
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	method, _ := concrete.GetString("Method")
	path, _ := concrete.GetString("Path")
	for i := range b.routes {
		r := &b.routes[i]
		if r.Method != method {
			continue
		}
		vars, ok := matchTemplate(r.PathTemplate, path)
		if !ok {
			continue
		}
		// Query mappings present in the request must match route fields.
		abs := st.Message(r.Action)
		abs.Fields = vars
		if qf, err := concrete.Lookup("Query"); err == nil {
			for _, qp := range qf.Children {
				label, ok := r.Query[qp.Label]
				if !ok {
					label = qp.Label
				}
				abs.Add(message.NewString(label, qp.ValueString()))
			}
		}
		if r.BodyField != "" {
			e, err := rest.ParseEntryFields(st, bodyOf(concrete), rest.KeepAll)
			if err != nil {
				return "", nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
			}
			e.Label = r.BodyField
			abs.Add(e)
		}
		return r.Action, abs, nil
	}
	return "", nil, fmt.Errorf("%w: %s %s matches no route", ErrBadMessage, method, path)
}

// BuildReply implements Binder.
func (b *RESTBinder) BuildReply(action string, abs *message.Message) ([]byte, error) {
	return b.AppendReply(nil, action, abs)
}

// AppendReply implements Binder: renders abstract entry fields as an Atom
// feed (or single entry) response.
func (b *RESTBinder) AppendReply(dst []byte, action string, abs *message.Message) ([]byte, error) {
	r, err := b.route(action)
	if err != nil {
		return dst, err
	}
	body := getBody()
	defer putBody(body)
	status := "200"
	if r.ReplyKind == "feed" {
		feed := rest.Feed{Title: action}
		for _, f := range abs.Fields {
			if f.Label == "entry" {
				feed.Entries = append(feed.Entries, entryFromAbstract(f))
			}
		}
		*body, err = rest.AppendFeed(*body, feed)
	} else {
		status = "201"
		var src *message.Field
		for _, f := range abs.Fields {
			if f.Label == "entry" {
				src = f
				break
			}
		}
		if src == nil {
			src = message.NewStruct("entry", abs.Fields...)
		}
		*body, err = rest.AppendEntry(*body, entryFromAbstract(src))
	}
	if err != nil {
		return dst, err
	}
	concrete := message.New("HTTPResponse",
		message.NewString("Version", "HTTP/1.1"),
		message.NewString("Status", status),
		message.NewString("Reason", "OK"),
		message.NewStruct("Headers",
			message.NewString("Content-Type", "application/atom+xml"),
		),
		message.NewBytes("Body", *body),
	)
	return b.codec.AppendCompose(dst, concrete)
}

// BuildErrorReply implements ErrorReplier with an HTTP 500.
func (b *RESTBinder) BuildErrorReply(action string, _ *message.Message, errMsg string) ([]byte, error) {
	concrete := message.New("HTTPResponse",
		message.NewString("Version", "HTTP/1.1"),
		message.NewString("Status", "500"),
		message.NewString("Reason", "Mediation Failed"),
		message.NewStruct("Headers",
			message.NewString("Content-Type", "text/plain"),
		),
		message.NewString("Body", "mediation failed: "+errMsg),
	)
	return b.codec.Compose(concrete)
}

var _ ErrorReplier = (*RESTBinder)(nil)

// entryFromAbstract reads the abstract entry convention (id, title,
// summary, author, src, type children) into a rest.Entry.
func entryFromAbstract(f *message.Field) rest.Entry {
	get := func(label string) string {
		if c := f.Child(label); c != nil {
			return c.ValueString()
		}
		return ""
	}
	return rest.Entry{
		ID:          get("id"),
		Title:       get("title"),
		Summary:     get("summary"),
		Author:      get("author"),
		ContentSrc:  get("src"),
		ContentType: get("type"),
	}
}

// appendTemplate appends the path a template stands for to b: each
// placeholder segment filled with its field's value, escaped.
func appendTemplate(b []byte, tmpl string, abs *message.Message) ([]byte, error) {
	for rest, more := tmpl, true; more; {
		var seg string
		seg, rest, more = strings.Cut(rest, "/")
		if name, ok := placeholder(seg); ok {
			f := abs.Field(name)
			if f == nil {
				return b, fmt.Errorf("%w: path variable %q missing", ErrBadMessage, name)
			}
			seg = url.PathEscape(f.ValueString())
		}
		b = append(b, seg...)
		if more {
			b = append(b, '/')
		}
	}
	return b, nil
}

// matchTemplate matches a path against a template segment by segment, and
// returns a field for each placeholder, in the template's order.
func matchTemplate(tmpl, path string) ([]*message.Field, bool) {
	var vars []*message.Field
	for {
		t, tRest, tMore := strings.Cut(tmpl, "/")
		p, pRest, pMore := strings.Cut(path, "/")
		if name, ok := placeholder(t); ok {
			val, err := url.PathUnescape(p)
			if err != nil {
				return nil, false
			}
			vars = append(vars, message.NewString(name, val))
		} else if t != p {
			return nil, false
		}
		if tMore != pMore {
			return nil, false
		}
		if !tMore {
			return vars, true
		}
		tmpl, path = tRest, pRest
	}
}

// sortedKeys returns the keys of m, in order.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

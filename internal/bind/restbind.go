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
	// PathTemplate is the resource path, with {field} placeholders filled
	// from abstract request fields.
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
func ParseRoutes(doc string) ([]Route, error) {
	var out []Route
	for lineNo, line := range strings.Split(doc, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		head, kind, ok := strings.Cut(line, "->")
		if !ok {
			return nil, fmt.Errorf("bind: routes line %d: missing \"->\"", lineNo+1)
		}
		fields := strings.Fields(head)
		if len(fields) < 4 || fields[0] != "route" {
			return nil, fmt.Errorf("bind: routes line %d: want \"route <action> <METHOD> <path>\"", lineNo+1)
		}
		r := Route{
			Action:       fields[1],
			Method:       fields[2],
			PathTemplate: fields[3],
			Query:        map[string]string{},
			ReplyKind:    strings.TrimSpace(kind),
		}
		if r.ReplyKind != "feed" && r.ReplyKind != "entry" {
			return nil, fmt.Errorf("bind: routes line %d: reply kind %q", lineNo+1, r.ReplyKind)
		}
		for _, kv := range fields[4:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("bind: routes line %d: bad mapping %q", lineNo+1, kv)
			}
			if k == "body" {
				r.BodyField = v
			} else {
				r.Query[k] = v
			}
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bind: route table is empty")
	}
	return out, nil
}

// RESTBinder binds abstract actions to a GData-style REST API through a
// route table and the HTTP text-MDL codec.
type RESTBinder struct {
	routes []Route
	codec  mdl.Codec
}

var _ Binder = (*RESTBinder)(nil)

// NewRESTBinder compiles the HTTP MDL, models/http.mdl, and installs the
// route table. The binder interprets the document through the text engine,
// so the DSL-generated parser/composer sits in the mediation hot path (the
// paper's Fig. 9 message flow).
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
	return &RESTBinder{routes: routes, codec: codec}, nil
}

// Framer implements Binder.
func (b *RESTBinder) Framer() network.Framer { return network.HTTPFramer{} }

func (b *RESTBinder) route(action string) (Route, error) {
	for _, r := range b.routes {
		if r.Action == action {
			return r, nil
		}
	}
	return Route{}, fmt.Errorf("%w: %q", ErrUnknownAction, action)
}

// BuildRequest implements Binder: fills the route's path template and
// query parameters from the abstract fields and composes the HTTP request
// through the text-MDL codec.
func (b *RESTBinder) BuildRequest(action string, abs *message.Message) ([]byte, error) {
	r, err := b.route(action)
	if err != nil {
		return nil, err
	}
	path, err := fillTemplate(r.PathTemplate, abs)
	if err != nil {
		return nil, fmt.Errorf("action %s: %w", action, err)
	}
	concrete := message.New("HTTPRequest",
		message.NewString("Method", r.Method),
		message.NewString("Version", "HTTP/1.1"),
		message.NewString("Path", path),
		message.NewStruct("Headers",
			message.NewString("Accept", "application/atom+xml"),
		),
	)
	q := message.NewStruct("Query")
	var buf [8]string
	for _, qp := range sortedKeys(buf[:0], r.Query) {
		f := abs.Field(r.Query[qp])
		if f == nil {
			continue // optional parameter absent
		}
		q.Add(message.NewString(qp, f.ValueString()))
	}
	concrete.Add(q)
	if r.BodyField == "" {
		concrete.Add(message.NewString("Body", ""))
		return b.codec.Compose(concrete)
	}
	f := abs.Field(r.BodyField)
	if f == nil {
		return nil, fmt.Errorf("%w: action %s: body field %q missing", ErrBadMessage, action, r.BodyField)
	}
	body := getBody()
	defer putBody(body)
	if *body, err = rest.AppendEntry(*body, entryFromAbstract(f)); err != nil {
		return nil, err
	}
	concrete.Add(message.NewBytes("Body", *body))
	return b.codec.Compose(concrete)
}

// ParseReply implements Binder: decodes the HTTP response through the
// text-MDL codec and maps the Atom payload onto abstract fields.
func (b *RESTBinder) ParseReply(action string, packet []byte) (*message.Message, error) {
	r, err := b.route(action)
	if err != nil {
		return nil, err
	}
	concrete, err := b.codec.Parse(packet)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	status, _ := concrete.GetString("Status")
	if status != "200" && status != "201" {
		return nil, fmt.Errorf("%w: action %s: HTTP status %s", ErrBadMessage, action, status)
	}
	body := bodyOf(concrete)
	abs := message.New(action + ".reply")
	switch r.ReplyKind {
	case "feed":
		feed, err := rest.ParseFeed(body)
		if err != nil {
			return nil, err
		}
		abs.Fields = fieldsFromEntries(feed.Entries)
	default:
		e, err := rest.ParseEntry(body)
		if err != nil {
			return nil, err
		}
		abs.Fields = fieldsFromEntries([]rest.Entry{e})
	}
	return abs, nil
}

// bodyOf returns the Body the text-MDL codec found in a packet: a
// <Name:body> item is the packet's own tail, so the XML decoders read it
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
	concrete, err := b.codec.Parse(packet)
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	method, _ := concrete.GetString("Method")
	path, _ := concrete.GetString("Path")
	for _, r := range b.routes {
		vars, ok := matchTemplate(r.PathTemplate, path)
		if !ok || r.Method != method {
			continue
		}
		// Query mappings present in the request must match route fields.
		abs := message.New(r.Action)
		for k, v := range vars {
			abs.Add(message.NewString(k, v))
		}
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
			e, err := rest.ParseEntry(bodyOf(concrete))
			if err != nil {
				return "", nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
			}
			ef := fieldsFromEntries([]rest.Entry{e})[0]
			ef.Label = r.BodyField
			abs.Add(ef)
		}
		return r.Action, abs, nil
	}
	return "", nil, fmt.Errorf("%w: %s %s matches no route", ErrBadMessage, method, path)
}

// BuildReply implements Binder: renders abstract entry fields as an Atom
// feed (or single entry) response.
func (b *RESTBinder) BuildReply(action string, abs *message.Message) ([]byte, error) {
	r, err := b.route(action)
	if err != nil {
		return nil, err
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
		return nil, err
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
	return b.codec.Compose(concrete)
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

// fieldsFromEntries is the inverse mapping, for a whole reply at once:
// one "entry" field per entry, with a child for its id, its title and each
// of the others it has. All of them are carved out of one []Field and one
// []*Field of exactly the size they need, as message.Field.Clone carves a
// copy; every node is on exactly one list, so the two are equally long.
func fieldsFromEntries(entries []rest.Entry) []*message.Field {
	size := len(entries)
	for i := range entries {
		size += 2
		for _, o := range optionalChildren(&entries[i]) {
			if o.value != "" {
				size++
			}
		}
	}
	nodes, links := make([]message.Field, size), make([]*message.Field, size)
	node := func(label string) *message.Field {
		f := &nodes[0]
		nodes = nodes[1:]
		f.Label = label
		return f
	}
	text := func(label, s string) *message.Field {
		f := node(label)
		f.SetText(s)
		return f
	}
	fields, links := links[:0:len(entries)], links[len(entries):]
	for i := range entries {
		e := &entries[i]
		f := node("entry")
		f.Type = message.TypeStruct
		children := append(links[:0], text("id", e.ID), text("title", e.Title))
		for _, o := range optionalChildren(e) {
			if o.value != "" {
				children = append(children, text(o.label, o.value))
			}
		}
		// The list is cut to its length: what is added to it later goes to
		// a list of its own, not over the one carved next.
		n := len(children)
		f.Children, links = children[:n:n], links[n:]
		fields = append(fields, f)
	}
	return fields
}

// optionalChildren are the children an entry's field has only when they
// are set, in their order.
func optionalChildren(e *rest.Entry) [4]struct{ label, value string } {
	return [4]struct{ label, value string }{
		{"summary", e.Summary}, {"author", e.Author}, {"src", e.ContentSrc}, {"type", e.ContentType},
	}
}

func fillTemplate(tmpl string, abs *message.Message) (string, error) {
	var b strings.Builder
	for {
		i := strings.IndexByte(tmpl, '{')
		if i < 0 {
			b.WriteString(tmpl)
			return b.String(), nil
		}
		j := strings.IndexByte(tmpl, '}')
		if j < i {
			return "", fmt.Errorf("malformed path template")
		}
		b.WriteString(tmpl[:i])
		name := tmpl[i+1 : j]
		f := abs.Field(name)
		if f == nil {
			return "", fmt.Errorf("%w: path variable %q missing", ErrBadMessage, name)
		}
		b.WriteString(url.PathEscape(f.ValueString()))
		tmpl = tmpl[j+1:]
	}
}

func matchTemplate(tmpl, path string) (map[string]string, bool) {
	tParts := strings.Split(tmpl, "/")
	pParts := strings.Split(path, "/")
	if len(tParts) != len(pParts) {
		return nil, false
	}
	vars := map[string]string{}
	for i := range tParts {
		t := tParts[i]
		if strings.HasPrefix(t, "{") && strings.HasSuffix(t, "}") {
			val, err := url.PathUnescape(pParts[i])
			if err != nil {
				return nil, false
			}
			vars[t[1:len(t)-1]] = val
			continue
		}
		if t != pParts[i] {
			return nil, false
		}
	}
	return vars, true
}

// sortedKeys appends the keys of m to buf, in order.
func sortedKeys[V any](buf []string, m map[string]V) []string {
	for k := range m {
		buf = append(buf, k)
	}
	slices.Sort(buf)
	return buf
}

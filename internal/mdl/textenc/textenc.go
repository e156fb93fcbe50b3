// Package textenc is the MDL engine for line-structured text protocols
// such as HTTP.
//
// Layout items:
//
//	<Name:tok:sp>        token up to (and consuming) a space
//	<Name:tok:crlf>      token up to (and consuming) CR-LF
//	<Name:tok:eof>       token to the end of the packet
//	<Name:headers>       RFC-822 header block up to the blank line; parsed
//	                     into a structured field with one child per header
//	<Name:body>          the remainder of the packet (message framing, e.g.
//	                     Content-Length, is the transport codec's concern),
//	                     handed over as the packet's own bytes: read-only,
//	                     like the packet a network.Framer returns
//	<Name:path:From>     derived view: the path part of earlier token From
//	<Name:query:From>    derived view: the query parameters of earlier token
//	                     From, one child per parameter
//
// Derived items consume no input. When composing, a missing source token
// (e.g. an HTTP Target) is reconstructed from its derived path and query
// fields, so translation logic can manipulate the query parameters
// directly — exactly what the Fig. 9 Picasa binding needs. When a headers
// item and a body item are both present, Content-Length is set from the
// body automatically.
//
// New resolves what the document decides — the token each derived view
// reads, the views each token is rebuilt from, the rule each token is held
// to as it is read — so that Parse reads and checks a whole layout before it
// builds anything, and then carves every field from one slab (DESIGN.md §17,
// "The text engine's plan").
package textenc

import (
	"bytes"
	"errors"
	"fmt"
	"net/url"
	"slices"
	"strconv"
	"strings"

	"starlink/internal/mdl"
	"starlink/internal/message"
)

// Errors reported by the text engine.
var (
	// ErrBadSpec is wrapped by all layout validation errors.
	ErrBadSpec = errors.New("textenc: invalid layout")
	// ErrTruncated is returned when a packet ends inside a token.
	ErrTruncated = errors.New("textenc: truncated message")
)

// How a layout is left without a message and without a report: the packet
// has just broken one of the layout's rules (the next layout is tried), or
// the layout reads text beyond the head Parse made a string of (the same
// layout is tried again on a string of the whole packet).
var (
	errRule      = errors.New("textenc: a rule of the layout does not hold")
	errShortHead = errors.New("textenc: the layout reads text past the first blank line")
)

// errSemicolon is url.ParseQuery's refusal of a ';' in a query.
var errSemicolon = errors.New("invalid semicolon separator in query")

type itemKind int

const (
	kindTok itemKind = iota + 1
	kindHeaders
	kindBody
	kindPath
	kindQuery
)

type delim int

const (
	delimSP delim = iota + 1
	delimCRLF
	delimEOF
)

// item is one layout item with everything New could resolve about it.
type item struct {
	kind  itemKind
	label string
	delim delim
	// src is, for a derived view, the index of the token it reads: the first
	// item of its From label, which New requires to be a token.
	src int
	// views are, for a token, the indexes of the derived views of its label,
	// which Compose rebuilds it from when the message does not hold it.
	views []int
	// rule is the value a <Rule> of the message asks of this token (ruled
	// says there is one), checked as soon as the token is read. The first
	// item of a label only: the field a rule is looked up by.
	rule  string
	ruled bool
}

// layout is the plan of one message.
type layout struct {
	spec  *mdl.MessageSpec
	items []item
	// late are the rules no token decides as it is read, held against the
	// built message: a rule on a field of another kind, on a label no item
	// has, or a second rule on one token.
	late    []mdl.Rule
	hasBody bool
}

// Codec parses and composes the messages of a text MDL spec.
type Codec struct {
	layouts []*layout
	byName  map[string]*layout
}

var _ mdl.Codec = (*Codec)(nil)

// New compiles a text MDL spec into a codec.
func New(spec *mdl.Spec) (mdl.Codec, error) {
	c := &Codec{byName: make(map[string]*layout, len(spec.Messages))}
	for _, ms := range spec.Messages {
		lay, err := compile(ms)
		if err != nil {
			return nil, err
		}
		c.layouts = append(c.layouts, lay)
		c.byName[ms.Name] = lay
	}
	return c, nil
}

func compile(ms *mdl.MessageSpec) (*layout, error) {
	lay := &layout{spec: ms}
	first := map[string]int{} // a label's first item
	for _, it := range ms.Items {
		label := it.Label()
		x := item{label: label, src: -1}
		switch it.Arg(1) {
		case "tok":
			x.kind = kindTok
			switch it.Arg(2) {
			case "sp":
				x.delim = delimSP
			case "crlf":
				x.delim = delimCRLF
			case "eof":
				x.delim = delimEOF
			default:
				return nil, fmt.Errorf("%w: line %d: token %q delimiter %q", ErrBadSpec, it.Line, label, it.Arg(2))
			}
		case "headers":
			x.kind = kindHeaders
		case "body":
			x.kind = kindBody
			lay.hasBody = true
		case "path", "query":
			from := it.Arg(2)
			src, ok := first[from]
			if from == "" || !ok {
				return nil, fmt.Errorf("%w: line %d: derived field %q needs an earlier source token", ErrBadSpec, it.Line, label)
			}
			if lay.items[src].kind != kindTok {
				return nil, fmt.Errorf("%w: line %d: derived field %q: source %q is not a token", ErrBadSpec, it.Line, label, from)
			}
			x.kind, x.src = kindPath, src
			if it.Arg(1) == "query" {
				x.kind = kindQuery
			}
		default:
			return nil, fmt.Errorf("%w: line %d: unknown text item kind %q for %q", ErrBadSpec, it.Line, it.Arg(1), label)
		}
		if _, ok := first[label]; !ok {
			first[label] = len(lay.items)
		}
		lay.items = append(lay.items, x)
	}
	for i := range lay.items {
		tok := &lay.items[i]
		if tok.kind != kindTok {
			continue
		}
		for j, v := range lay.items {
			if v.src >= 0 && lay.items[v.src].label == tok.label {
				tok.views = append(tok.views, j)
			}
		}
	}
	for _, r := range ms.Rules {
		if i, ok := first[r.Field]; ok && lay.items[i].kind == kindTok && !lay.items[i].ruled {
			lay.items[i].rule, lay.items[i].ruled = r.Value, true
			continue
		}
		lay.late = append(lay.late, r)
	}
	return lay, nil
}

// Parse decodes a packet by trying each layout in order. A layout is read
// and checked to its end before anything is built, and left at the first
// token that breaks one of its rules, so a response costs nothing for the
// request layout it is tried against first. A body item is the packet's own
// tail, not a copy of it: the caller keeps data unchanged for as long as it
// keeps the message.
func (c *Codec) Parse(data []byte) (*message.Message, error) { return c.ParseIn(nil, data) }

// ParseIn is Parse with the message made in st (mdl.Codec).
func (c *Codec) ParseIn(st *message.Store, data []byte) (*message.Message, error) {
	var firstErr error
	var failed *layout
	// One copy, shared by every layout tried: each string of the parsed
	// message is a piece of it. It covers the head — up to the first blank
	// line, behind which a body lies — and grows to the whole packet only
	// for a layout that reads text further than that.
	head := data
	if i := bytes.Index(data, []byte("\r\n\r\n")); i >= 0 {
		head = data[:i+4]
	}
	text := string(head)
	var buf [16]piece
	for _, lay := range c.layouts {
		pieces := buf[:]
		if len(lay.items) > len(buf) {
			pieces = make([]piece, len(lay.items))
		}
		n, err := lay.scan(pieces, text, data)
		if err == errShortHead {
			text = string(data)
			n, err = lay.scan(pieces, text, data)
		}
		if err != nil {
			if firstErr == nil && err != errRule {
				firstErr, failed = err, lay
			}
			continue
		}
		if msg := lay.build(st, pieces, n, data); rulesHold(lay.late, msg) {
			return msg, nil
		}
	}
	if firstErr != nil {
		return nil, fmt.Errorf("%w (%s: %v)", mdl.ErrNoMessageMatch, failed.spec.Name, firstErr)
	}
	return nil, mdl.ErrNoMessageMatch
}

func rulesHold(rules []mdl.Rule, msg *message.Message) bool {
	for _, r := range rules {
		f := msg.Field(r.Field)
		if f == nil || !ruleMatch(f.ValueString(), r.Value) {
			return false
		}
	}
	return true
}

// ruleMatch supports a trailing * wildcard so a rule can pin a prefix,
// e.g. <Rule:Version=HTTP/*>.
func ruleMatch(got, want string) bool {
	if strings.HasSuffix(want, "*") {
		return strings.HasPrefix(got, strings.TrimSuffix(want, "*"))
	}
	return got == want
}

// piece is what scan found of one item.
type piece struct {
	// text is a token, a path, the lines of a header block or the query
	// string a derived query reads.
	text string
	// at is where a body starts in the packet.
	at int
	// n is how many children a header block or a query has.
	n int
}

// scan reads data as the layout says, into one piece per item, and builds
// nothing. It makes every check the interpreter makes, in the same order
// and with the same error, and returns how many fields the message has.
// text is a string of data, or of a prefix of it: where the layout looks
// for text the prefix does not hold, scan gives up with errShortHead.
func (lay *layout) scan(pieces []piece, text string, data []byte) (int, error) {
	rest := text
	short := len(text) < len(data)
	n := len(lay.items)
	for i := range lay.items {
		it, p := &lay.items[i], &pieces[i]
		*p = piece{}
		switch it.kind {
		case kindTok:
			tok, remain, err := cutToken(rest, it.delim)
			if short && (err != nil || it.delim == delimEOF) {
				return 0, errShortHead
			}
			if err != nil {
				return 0, fmt.Errorf("%w: token %q", err, it.label)
			}
			if it.ruled && !ruleMatch(tok, it.rule) {
				return 0, errRule
			}
			p.text, rest = tok, remain
		case kindHeaders:
			lines, count, remain, err := scanHeaders(rest)
			if short && errors.Is(err, ErrTruncated) {
				return 0, errShortHead
			}
			if err != nil {
				return 0, err
			}
			p.text, p.n, rest = lines, count, remain
		case kindBody:
			p.at = len(text) - len(rest)
			rest, short = "", false
		case kindPath:
			path := pieces[it.src].text
			if i := strings.IndexByte(path, '?'); i >= 0 {
				path = path[:i]
			}
			p.text = path
		case kindQuery:
			if _, q, ok := strings.Cut(pieces[it.src].text, "?"); ok {
				count, err := scanQuery(q)
				if err != nil {
					return 0, fmt.Errorf("textenc: derived %q: %v", it.label, err)
				}
				p.text, p.n = q, count
			}
		}
		n += p.n
	}
	return n, nil
}

func cutToken(s string, d delim) (tok, rest string, err error) {
	switch d {
	case delimSP:
		i := strings.IndexByte(s, ' ')
		if i < 0 {
			return "", s, ErrTruncated
		}
		return s[:i], s[i+1:], nil
	case delimCRLF:
		i := strings.Index(s, "\r\n")
		if i < 0 {
			return "", s, ErrTruncated
		}
		return s[:i], s[i+2:], nil
	default:
		return s, "", nil
	}
}

// scanHeaders reads the header lines up to the blank line that ends the
// block: the lines, each with its CR-LF, how many there are, and the text
// behind the blank line.
func scanHeaders(s string) (lines string, n int, rest string, err error) {
	rest = s
	for {
		line, after, found := strings.Cut(rest, "\r\n")
		if !found {
			return "", 0, rest, fmt.Errorf("%w: header block missing blank line", ErrTruncated)
		}
		if line == "" {
			return s[:len(s)-len(rest)], n, after, nil
		}
		rest = after
		if !strings.Contains(line, ":") {
			return "", 0, rest, fmt.Errorf("textenc: malformed header line %q", line)
		}
		n++
	}
}

// scanQuery counts the parameters url.ParseQuery finds in q, and refuses
// what it refuses, with its error: a ';' anywhere, else the first bad
// %xx escape. A component it decodes is decoded again when it is built.
func scanQuery(q string) (int, error) {
	n := 0
	var err error
	for q != "" {
		var pair string
		pair, q, _ = strings.Cut(q, "&")
		if strings.Contains(pair, ";") {
			err = errSemicolon
			continue
		}
		if pair == "" {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		_, bad := url.QueryUnescape(k)
		if bad == nil {
			_, bad = url.QueryUnescape(v)
		}
		if bad != nil {
			if err == nil {
				err = bad
			}
			continue
		}
		n++
	}
	return n, err
}

// build carves the message scan read: its n fields from one []Field, and
// the field list and every child list from one []*Field, each list cut to
// its length so that appending to it reallocates instead of running into
// the next.
func (lay *layout) build(st *message.Store, pieces []piece, n int, data []byte) *message.Message {
	s := slab{nodes: st.Nodes(n), links: st.Links(n)}
	fields := s.list(len(lay.items))
	for i := range lay.items {
		it, p := &lay.items[i], &pieces[i]
		if it.kind == kindTok || it.kind == kindPath {
			fields[i] = s.text(it.label, p.text)
			continue
		}
		f := s.node(it.label)
		switch it.kind {
		case kindBody:
			st.SetBytes(f, data[p.at:])
		case kindHeaders:
			f.Type, f.Children = message.TypeStruct, s.headers(p.n, p.text)
		case kindQuery:
			f.Type, f.Children = message.TypeStruct, s.query(p.n, p.text)
		}
		fields[i] = f
	}
	msg := st.Message(lay.spec.Name)
	msg.Fields = fields
	return msg
}

// slab is the unused rest of the two allocations a parse carves its fields
// from: the nodes, and the lists that point at them.
type slab struct {
	nodes []message.Field
	links []*message.Field
}

func (s *slab) node(label string) *message.Field {
	f := &s.nodes[0]
	s.nodes = s.nodes[1:]
	f.Label = label
	return f
}

// text carves a TypeString field.
func (s *slab) text(label, value string) *message.Field {
	f := s.node(label)
	f.SetText(value)
	return f
}

// list carves a list of n fields, nil when n is 0 as the interpreter's
// were.
func (s *slab) list(n int) []*message.Field {
	if n == 0 {
		return nil
	}
	l := s.links[:n:n]
	s.links = s.links[n:]
	return l
}

// headers carves a child for each of the n lines scanHeaders vouched for.
func (s *slab) headers(n int, lines string) []*message.Field {
	out := s.list(n)
	for i := range out {
		var line string
		line, lines, _ = strings.Cut(lines, "\r\n")
		k, v, _ := strings.Cut(line, ":")
		out[i] = s.text(strings.TrimSpace(k), strings.TrimSpace(v))
	}
	return out
}

// query carves a child for each of the n parameters of a query scanQuery
// vouched for, decoded as url.ParseQuery decodes them, in its order: by
// key, and the values of one key as they came.
func (s *slab) query(n int, q string) []*message.Field {
	out := s.list(n)
	for i := 0; i < n; {
		var pair string
		pair, q, _ = strings.Cut(q, "&")
		if pair == "" {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		k, _ = url.QueryUnescape(k)
		v, _ = url.QueryUnescape(v)
		out[i] = s.text(k, v)
		i++
	}
	slices.SortStableFunc(out, byLabel)
	return out
}

func byLabel(a, b *message.Field) int { return strings.Compare(a.Label, b.Label) }

// Compose encodes the abstract message using its named layout, into a
// packet of its own allocated once, at its size: AppendCompose(nil, msg).
func (c *Codec) Compose(msg *message.Message) ([]byte, error) {
	return c.AppendCompose(nil, msg)
}

// AppendCompose encodes the abstract message using its named layout and
// appends the packet to dst. Everything but the body is laid out in a
// scratch buffer first, so the packet's length is known before it is
// written: into dst's storage when it fits, else into one allocation, and
// a body held as bytes is copied from where it is. On an error dst comes
// back as it was.
func (c *Codec) AppendCompose(dst []byte, msg *message.Message) ([]byte, error) {
	lay, ok := c.byName[msg.Name]
	if !ok {
		return dst, fmt.Errorf("%w: %q", mdl.ErrUnknownMessage, msg.Name)
	}
	// The body is text or bytes, never both.
	var text string
	var raw []byte
	if lay.hasBody {
		for _, it := range lay.items {
			if it.kind == kindBody {
				if f := msg.Field(it.label); f != nil {
					if f.Type == message.TypeBytes {
						raw = f.Bytes()
					} else {
						text = f.ValueString()
					}
				}
			}
		}
	}
	bodyLen := len(text) + len(raw)
	var scratch [512]byte
	b := scratch[:0]
	bodyAt := -1
	for i := range lay.items {
		it := &lay.items[i]
		switch it.kind {
		case kindTok:
			var err error
			if b, err = lay.appendToken(b, msg, it); err != nil {
				return dst, err
			}
			switch it.delim {
			case delimSP:
				b = append(b, ' ')
			case delimCRLF:
				b = append(b, '\r', '\n')
			}
		case kindHeaders:
			b = appendHeaders(b, msg.Field(it.label), lay.hasBody, bodyLen)
		case kindBody:
			bodyAt = len(b)
		case kindPath, kindQuery:
			// Derived views are not written.
		}
	}
	if bodyAt < 0 {
		return append(dst, b...), nil
	}
	out := slices.Grow(dst, len(b)+bodyLen)
	out = append(out, b[:bodyAt]...)
	out = append(append(out, text...), raw...)
	return append(out, b[bodyAt:]...), nil
}

// appendToken writes a token's value: the message's field; else the target
// its derived path and query rebuild, the pairs sorted by key and escaped
// as url.Values.Encode escapes them; else the value a rule fixes.
func (lay *layout) appendToken(b []byte, msg *message.Message, it *item) ([]byte, error) {
	if f := msg.Field(it.label); f != nil {
		return append(b, f.ValueString()...), nil
	}
	// The path is text or bytes, never both.
	var path string
	var raw []byte
	var params []*message.Field
	for _, v := range it.views {
		view := &lay.items[v]
		f := msg.Field(view.label)
		switch {
		case f == nil:
		case view.kind == kindPath && f.Type == message.TypeBytes:
			raw = f.Bytes()
		case view.kind == kindPath:
			path = f.ValueString()
		default:
			params = f.Children
		}
	}
	if path != "" || len(raw) > 0 || len(params) > 0 {
		b = append(append(b, path...), raw...)
		if len(params) > 0 {
			b = appendQuery(append(b, '?'), params)
		}
		return b, nil
	}
	if r, ok := lay.spec.Rule(it.label); ok && !strings.HasSuffix(r.Value, "*") {
		return append(b, r.Value...), nil
	}
	return b, fmt.Errorf("textenc: compose %s: token %q has no value", lay.spec.Name, it.label)
}

// appendQuery writes the parameters as url.Values.Encode would: by key,
// the values of one key in their order.
func appendQuery(b []byte, params []*message.Field) []byte {
	var buf [16]*message.Field
	sorted := append(buf[:0], params...)
	slices.SortStableFunc(sorted, byLabel)
	for i, p := range sorted {
		if i > 0 {
			b = append(b, '&')
		}
		b = appendQueryEscape(b, p.Label)
		b = appendQueryEscape(append(b, '='), p.ValueString())
	}
	return b
}

// appendQueryEscape writes s as url.QueryEscape does: letters, digits and
// "-_.~" as they are, a space as '+', every other byte as %XX.
func appendQueryEscape(b []byte, s string) []byte {
	const upperHex = "0123456789ABCDEF"
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '-', c == '_', c == '.', c == '~':
			b = append(b, c)
		case c == ' ':
			b = append(b, '+')
		default:
			b = append(b, '%', upperHex[c>>4], upperHex[c&15])
		}
	}
	return b
}

func appendHeaders(b []byte, hdrs *message.Field, hasBody bool, bodyLen int) []byte {
	wroteCL := false
	if hdrs != nil {
		for _, h := range hdrs.Children {
			if strings.EqualFold(h.Label, "Content-Length") {
				wroteCL = true
				if hasBody {
					b = appendContentLength(b, bodyLen)
					continue
				}
			}
			b = append(append(append(append(b, h.Label...), ": "...), h.ValueString()...), '\r', '\n')
		}
	}
	if hasBody && !wroteCL {
		b = appendContentLength(b, bodyLen)
	}
	return append(b, '\r', '\n')
}

func appendContentLength(b []byte, n int) []byte {
	return append(strconv.AppendInt(append(b, "Content-Length: "...), int64(n), 10), '\r', '\n')
}

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
package textenc

import (
	"bytes"
	"errors"
	"fmt"
	"net/url"
	"sort"
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

// How parseAs leaves a layout without a message and without a report: the
// packet has just broken one of the layout's rules (the next layout is
// tried), or the layout reads text beyond the head Parse made a string of
// (the same layout is tried again on a string of the whole packet).
var (
	errRule      = errors.New("textenc: a rule of the layout does not hold")
	errShortHead = errors.New("textenc: the layout reads text past the first blank line")
)

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

type compiledItem struct {
	kind  itemKind
	label string
	delim delim
	from  string
	// rule is the value a <Rule> of the message asks of this token (ruled
	// says there is one), checked as soon as the token is read. The first
	// item of a label only: the field rulesHold looks up.
	rule  string
	ruled bool
}

type compiledMessage struct {
	spec  *mdl.MessageSpec
	items []compiledItem
	// derived maps a source token label to its derived path/query items.
	derived map[string][]compiledItem
	hasBody bool
	hasHdrs bool
}

// Codec interprets a text MDL spec.
type Codec struct {
	spec     *mdl.Spec
	messages []*compiledMessage
	byName   map[string]*compiledMessage
}

var _ mdl.Codec = (*Codec)(nil)

// New compiles a text MDL spec into a codec.
func New(spec *mdl.Spec) (mdl.Codec, error) {
	c := &Codec{spec: spec, byName: make(map[string]*compiledMessage, len(spec.Messages))}
	for _, ms := range spec.Messages {
		cm, err := compileMessage(ms)
		if err != nil {
			return nil, err
		}
		c.messages = append(c.messages, cm)
		c.byName[ms.Name] = cm
	}
	return c, nil
}

// Register installs the engine in a registry under mdl.EncodingText.
func Register(r *mdl.Registry) { r.Register(mdl.EncodingText, New) }

func compileMessage(ms *mdl.MessageSpec) (*compiledMessage, error) {
	cm := &compiledMessage{spec: ms, derived: make(map[string][]compiledItem)}
	seen := map[string]bool{}
	for _, it := range ms.Items {
		label := it.Label()
		switch it.Arg(1) {
		case "tok":
			var d delim
			switch it.Arg(2) {
			case "sp":
				d = delimSP
			case "crlf":
				d = delimCRLF
			case "eof":
				d = delimEOF
			default:
				return nil, fmt.Errorf("%w: line %d: token %q delimiter %q", ErrBadSpec, it.Line, label, it.Arg(2))
			}
			cm.items = append(cm.items, compiledItem{kind: kindTok, label: label, delim: d})
		case "headers":
			cm.items = append(cm.items, compiledItem{kind: kindHeaders, label: label})
			cm.hasHdrs = true
		case "body":
			cm.items = append(cm.items, compiledItem{kind: kindBody, label: label})
			cm.hasBody = true
		case "path", "query":
			from := it.Arg(2)
			if from == "" || !seen[from] {
				return nil, fmt.Errorf("%w: line %d: derived field %q needs an earlier source token", ErrBadSpec, it.Line, label)
			}
			kind := kindPath
			if it.Arg(1) == "query" {
				kind = kindQuery
			}
			ci := compiledItem{kind: kind, label: label, from: from}
			cm.items = append(cm.items, ci)
			cm.derived[from] = append(cm.derived[from], ci)
		default:
			return nil, fmt.Errorf("%w: line %d: unknown text item kind %q for %q", ErrBadSpec, it.Line, it.Arg(1), label)
		}
		seen[label] = true
	}
	for _, r := range ms.Rules {
		for i := range cm.items {
			if it := &cm.items[i]; it.label == r.Field {
				if it.kind == kindTok && !it.ruled {
					it.rule, it.ruled = r.Value, true
				}
				break
			}
		}
	}
	return cm, nil
}

// Parse decodes a packet by trying each layout in order. A layout is left
// at the first token that breaks one of its rules (an HTTP response is not
// parsed whole as a request first); rulesHold is the whole check, over what
// was parsed. A body item is the packet's own tail, not a copy of it: the
// caller keeps data unchanged for as long as it keeps the message.
func (c *Codec) Parse(data []byte) (*message.Message, error) {
	var firstErr error
	var failed *compiledMessage
	// One copy, shared by every layout tried: each string of the parsed
	// message is a piece of it. It covers the head — up to the first blank
	// line, behind which a body lies — and grows to the whole packet only
	// for a layout that reads text further than that.
	head := data
	if i := bytes.Index(data, []byte("\r\n\r\n")); i >= 0 {
		head = data[:i+4]
	}
	text := string(head)
	for _, cm := range c.messages {
		msg, err := parseAs(cm, text, data)
		if err == errShortHead {
			text = string(data)
			msg, err = parseAs(cm, text, data)
		}
		if err != nil {
			if firstErr == nil && err != errRule {
				firstErr, failed = err, cm
			}
			continue
		}
		if rulesHold(cm.spec, msg) {
			return msg, nil
		}
	}
	if firstErr != nil {
		return nil, fmt.Errorf("%w (%s: %v)", mdl.ErrNoMessageMatch, failed.spec.Name, firstErr)
	}
	return nil, mdl.ErrNoMessageMatch
}

func rulesHold(ms *mdl.MessageSpec, msg *message.Message) bool {
	for _, r := range ms.Rules {
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

// parseAs reads data as the layout cm. text is a string of data, or of a
// prefix of it: where the layout looks for text the prefix does not hold,
// parseAs gives up with errShortHead.
func parseAs(cm *compiledMessage, text string, data []byte) (*message.Message, error) {
	msg := message.New(cm.spec.Name)
	rest := text
	short := len(text) < len(data)
	for _, it := range cm.items {
		switch it.kind {
		case kindTok:
			var tok string
			var err error
			tok, rest, err = cutToken(rest, it.delim)
			if short && (err != nil || it.delim == delimEOF) {
				return nil, errShortHead
			}
			if err != nil {
				return nil, fmt.Errorf("%w: token %q", err, it.label)
			}
			if it.ruled && !ruleMatch(tok, it.rule) {
				return nil, errRule
			}
			msg.Add(message.NewString(it.label, tok))
		case kindHeaders:
			hdrs, remain, err := parseHeaders(rest)
			if short && errors.Is(err, ErrTruncated) {
				return nil, errShortHead
			}
			if err != nil {
				return nil, err
			}
			rest = remain
			h := message.NewStruct(it.label, hdrs...)
			msg.Add(h)
		case kindBody:
			msg.Add(message.NewBytes(it.label, data[len(text)-len(rest):]))
			rest, short = "", false
		case kindPath:
			src := msg.Field(it.from)
			if src == nil {
				return nil, fmt.Errorf("textenc: derived %q: source %q missing", it.label, it.from)
			}
			path := src.ValueString()
			if i := strings.IndexByte(path, '?'); i >= 0 {
				path = path[:i]
			}
			msg.Add(message.NewString(it.label, path))
		case kindQuery:
			src := msg.Field(it.from)
			if src == nil {
				return nil, fmt.Errorf("textenc: derived %q: source %q missing", it.label, it.from)
			}
			q := message.NewStruct(it.label)
			target := src.ValueString()
			if i := strings.IndexByte(target, '?'); i >= 0 {
				vals, err := url.ParseQuery(target[i+1:])
				if err != nil {
					return nil, fmt.Errorf("textenc: derived %q: %v", it.label, err)
				}
				keys := make([]string, 0, len(vals))
				for k := range vals {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					for _, v := range vals[k] {
						q.Add(message.NewString(k, v))
					}
				}
			}
			msg.Add(q)
		}
	}
	return msg, nil
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

func parseHeaders(s string) ([]*message.Field, string, error) {
	var out []*message.Field
	for {
		line, rest, found := strings.Cut(s, "\r\n")
		if !found {
			return nil, s, fmt.Errorf("%w: header block missing blank line", ErrTruncated)
		}
		s = rest
		if line == "" {
			return out, s, nil
		}
		k, v, found := strings.Cut(line, ":")
		if !found {
			return nil, s, fmt.Errorf("textenc: malformed header line %q", line)
		}
		out = append(out, message.NewString(strings.TrimSpace(k), strings.TrimSpace(v)))
	}
}

// Compose encodes the abstract message using its named layout. The packet
// is allocated once, at its size: everything but the body is laid out in a
// scratch buffer first, and a body held as bytes is copied from where it is.
func (c *Codec) Compose(msg *message.Message) ([]byte, error) {
	cm, ok := c.byName[msg.Name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", mdl.ErrUnknownMessage, msg.Name)
	}
	// The body is text or bytes, never both.
	var text string
	var raw []byte
	if cm.hasBody {
		for _, it := range cm.items {
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
	for _, it := range cm.items {
		switch it.kind {
		case kindTok:
			val, err := tokenValue(cm, msg, it)
			if err != nil {
				return nil, err
			}
			b = append(b, val...)
			switch it.delim {
			case delimSP:
				b = append(b, ' ')
			case delimCRLF:
				b = append(b, '\r', '\n')
			}
		case kindHeaders:
			b = appendHeaders(b, msg.Field(it.label), cm.hasBody, bodyLen)
		case kindBody:
			bodyAt = len(b)
		case kindPath, kindQuery:
			// Derived views are not written.
		}
	}
	if bodyAt < 0 {
		return append([]byte(nil), b...), nil
	}
	out := make([]byte, 0, len(b)+bodyLen)
	out = append(out, b[:bodyAt]...)
	out = append(append(out, text...), raw...)
	return append(out, b[bodyAt:]...), nil
}

func tokenValue(cm *compiledMessage, msg *message.Message, it compiledItem) (string, error) {
	if f := msg.Field(it.label); f != nil {
		return f.ValueString(), nil
	}
	// Reconstruct from derived path/query fields if present.
	if dvs := cm.derived[it.label]; len(dvs) > 0 {
		var path string
		var query url.Values
		for _, dv := range dvs {
			f := msg.Field(dv.label)
			if f == nil {
				continue
			}
			switch dv.kind {
			case kindPath:
				path = f.ValueString()
			case kindQuery:
				query = url.Values{}
				for _, p := range f.Children {
					query.Add(p.Label, p.ValueString())
				}
			}
		}
		if path != "" || len(query) > 0 {
			if len(query) > 0 {
				return path + "?" + query.Encode(), nil
			}
			return path, nil
		}
	}
	if r, ok := cm.spec.Rule(it.label); ok && !strings.HasSuffix(r.Value, "*") {
		return r.Value, nil
	}
	return "", fmt.Errorf("textenc: compose %s: token %q has no value", cm.spec.Name, it.label)
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

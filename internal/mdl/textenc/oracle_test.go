package textenc

import (
	"bytes"
	"errors"
	"fmt"
	"net/url"
	"sort"
	"strings"

	"starlink/internal/mdl"
	"starlink/internal/message"
)

// The oracle is the engine as it was before New compiled a plan: an
// interpreter that builds a message a node at a time as it reads, finds a
// derived view's source and every rule's field by label, reads a query
// through url.ParseQuery and rebuilds a target through url.Values. It is
// moved here unchanged but for its names, and the fuzzers hold Parse and
// Compose to it.

type oracleItem struct {
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

type oracleMessage struct {
	spec  *mdl.MessageSpec
	items []oracleItem
	// derived maps a source token label to its derived path/query items.
	derived map[string][]oracleItem
	hasBody bool
	hasHdrs bool
}

// oracleCodec interprets a text MDL spec.
type oracleCodec struct {
	spec     *mdl.Spec
	messages []*oracleMessage
	byName   map[string]*oracleMessage
}

var _ mdl.Codec = (*oracleCodec)(nil)

// newOracle compiles a text MDL spec into an interpreting codec.
func newOracle(spec *mdl.Spec) (*oracleCodec, error) {
	c := &oracleCodec{spec: spec, byName: make(map[string]*oracleMessage, len(spec.Messages))}
	for _, ms := range spec.Messages {
		cm, err := oracleCompile(ms)
		if err != nil {
			return nil, err
		}
		c.messages = append(c.messages, cm)
		c.byName[ms.Name] = cm
	}
	return c, nil
}

func oracleCompile(ms *mdl.MessageSpec) (*oracleMessage, error) {
	cm := &oracleMessage{spec: ms, derived: make(map[string][]oracleItem)}
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
			cm.items = append(cm.items, oracleItem{kind: kindTok, label: label, delim: d})
		case "headers":
			cm.items = append(cm.items, oracleItem{kind: kindHeaders, label: label})
			cm.hasHdrs = true
		case "body":
			cm.items = append(cm.items, oracleItem{kind: kindBody, label: label})
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
			ci := oracleItem{kind: kind, label: label, from: from}
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

// ParseIn implements mdl.Codec: the oracle's messages are the heap's.
func (c *oracleCodec) ParseIn(_ *message.Store, data []byte) (*message.Message, error) {
	return c.Parse(data)
}

// Parse decodes a packet by trying each layout in order. A layout is left
// at the first token that breaks one of its rules (an HTTP response is not
// parsed whole as a request first); rulesHold is the whole check, over what
// was parsed. A body item is the packet's own tail, not a copy of it: the
// caller keeps data unchanged for as long as it keeps the message.
func (c *oracleCodec) Parse(data []byte) (*message.Message, error) {
	var firstErr error
	var failed *oracleMessage
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
		if rulesHold(cm.spec.Rules, msg) {
			return msg, nil
		}
	}
	if firstErr != nil {
		return nil, fmt.Errorf("%w (%s: %v)", mdl.ErrNoMessageMatch, failed.spec.Name, firstErr)
	}
	return nil, mdl.ErrNoMessageMatch
}

// parseAs reads data as the layout cm. text is a string of data, or of a
// prefix of it: where the layout looks for text the prefix does not hold,
// parseAs gives up with errShortHead.
func parseAs(cm *oracleMessage, text string, data []byte) (*message.Message, error) {
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

// AppendCompose is Compose appended to dst: the oracle is the slow,
// obvious form, a packet of its own copied out.
func (c *oracleCodec) AppendCompose(dst []byte, msg *message.Message) ([]byte, error) {
	packet, err := c.Compose(msg)
	if err != nil {
		return dst, err
	}
	return append(dst, packet...), nil
}

// Compose encodes the abstract message using its named layout. The packet
// is allocated once, at its size: everything but the body is laid out in a
// scratch buffer first, and a body held as bytes is copied from where it is.
func (c *oracleCodec) Compose(msg *message.Message) ([]byte, error) {
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

func tokenValue(cm *oracleMessage, msg *message.Message, it oracleItem) (string, error) {
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

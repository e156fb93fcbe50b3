package xmlenc

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"unicode/utf8"

	"starlink/internal/message"
)

// MaxDepth bounds element nesting. The scanner recurses once per level,
// and a goroutine that outgrows its stack takes the whole process down
// with it — no recover sees that — so a peer must not be able to choose
// the depth. Real documents of these protocols nest a dozen levels.
const MaxDepth = 256

// ErrTooDeep reports a document nested deeper than MaxDepth.
var ErrTooDeep = fmt.Errorf("%w: elements nested deeper than %d", ErrMalformed, MaxDepth)

// What the scanner refuses although a full XML parser would read it: a
// declared encoding it would have to transcode, and a document type
// declaration with an internal subset.
var (
	errEncoding = fmt.Errorf("%w: declared encoding is not UTF-8", ErrMalformed)
	errDTD      = fmt.Errorf("%w: document type declaration with an internal subset", ErrMalformed)
)

// xmlNamespace is what the reserved prefix "xml" stands for.
const xmlNamespace = "http://www.w3.org/XML/1998/namespace"

// scanner turns one document into a field tree in a single pass over the
// bytes. It does not validate: it accepts every well-formed document of
// the subset it reads and much that is not well-formed. Its scratch
// space is pooled, so a decode allocates only what the tree keeps.
type scanner struct {
	data []byte
	pos  int
	// plain records that the document holds no '&' and no '\r': text and
	// attribute values are then their bytes.
	plain bool
	// text and kids hold the character data and the children of the open
	// elements, innermost last; an element truncates them to where it
	// found them when it closes.
	text []byte
	kids []*message.Field
	// labels interns the labels of this document that the static table
	// does not know.
	labels map[string]string
	// bound maps each prefix an xmlns:prefix declaration in scope binds to
	// its namespace. Only prefixed attributes look at it. ns is its undo
	// log, innermost declaration last: an element that closes takes back
	// the declarations it made.
	bound map[string]string
	ns    []binding
	// prefixed lists the attributes of the start tag being read that wait
	// for its declarations before they can be labelled.
	prefixed []prefixedAttr
}

// binding records one declaration: the prefix, and the namespace it had
// before when it was bound already.
type binding struct {
	prefix, outer string
	shadows       bool
}

type prefixedAttr struct {
	kid           int
	prefix, local []byte
}

var scanners = sync.Pool{New: func() any {
	return &scanner{labels: map[string]string{}, bound: map[string]string{}}
}}

// A scanner that one large document has grown past maxRetain bytes of
// text or past these bounds is not pooled again.
const (
	maxRetainedKids   = 4 << 10
	maxRetainedLabels = 256
)

// DecodeTree maps an XML document onto one field per element by the rules
// in the package comment. Anything after the root element is not read.
func DecodeTree(data []byte) (*message.Field, error) {
	s := scanners.Get().(*scanner)
	s.data, s.pos = data, 0
	s.plain = bytes.IndexByte(data, '&') < 0 && bytes.IndexByte(data, '\r') < 0
	root, err := s.document()
	if cap(s.text) <= maxRetain && cap(s.kids) <= maxRetainedKids &&
		len(s.labels) <= maxRetainedLabels && cap(s.ns) <= maxRetainedLabels {
		// Nothing pooled may pin the packet or the tree. Every element
		// that closed has cleared its own children.
		if err != nil {
			clear(s.kids[:cap(s.kids)])
		}
		clear(s.ns[:cap(s.ns)])
		clear(s.prefixed[:cap(s.prefixed)])
		clear(s.labels)
		clear(s.bound)
		*s = scanner{text: s.text[:0], kids: s.kids[:0], labels: s.labels, bound: s.bound, ns: s.ns[:0], prefixed: s.prefixed[:0]}
		scanners.Put(s)
	}
	return root, err
}

func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrMalformed}, args...)...)
}

// document skips the prolog and reads the root element.
func (s *scanner) document() (*message.Field, error) {
	for {
		i := bytes.IndexByte(s.data[s.pos:], '<')
		if i < 0 || s.pos+i+1 >= len(s.data) {
			return nil, malformed("no root element")
		}
		s.pos += i
		switch s.data[s.pos+1] {
		case '?', '!':
			if _, err := s.markup(); err != nil {
				return nil, err
			}
		case '/':
			return nil, malformed("end tag before the root element")
		default:
			return s.element(1)
		}
	}
}

// markup skips the processing instruction, comment or declaration at pos.
// For a CDATA section it returns the section's bytes.
func (s *scanner) markup() (cdata []byte, err error) {
	rest := s.data[s.pos:]
	switch {
	case rest[1] == '?':
		pi, err := s.until(2, "?>")
		if err == nil && isXMLDecl(pi) {
			if enc := pseudoAttr(pi, "encoding="); len(enc) > 0 && !bytes.EqualFold(enc, []byte("utf-8")) {
				return nil, errEncoding
			}
		}
		return nil, err
	case bytes.HasPrefix(rest, []byte("<!--")):
		_, err = s.until(4, "-->")
		return nil, err
	case bytes.HasPrefix(rest, []byte("<![CDATA[")):
		return s.until(9, "]]>")
	}
	// <!DOCTYPE ...> and its kin: a quoted '>' does not end it, nor does
	// one right after "<!".
	var quote byte
	for i := 3; i < len(rest); i++ {
		switch c := rest[i]; {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
		case c == '>':
			s.pos += i + 1
			return nil, nil
		case c == '<' || c == '[':
			return nil, errDTD
		}
	}
	return nil, malformed("unterminated <! declaration")
}

// until returns what lies between pos+skip and the next end marker, and
// moves past the marker.
func (s *scanner) until(skip int, end string) ([]byte, error) {
	from := s.pos + skip
	i := bytes.Index(s.data[from:], []byte(end))
	if i < 0 {
		return nil, malformed("unterminated %s", s.data[s.pos:from])
	}
	s.pos = from + i + len(end)
	return s.data[from : from+i], nil
}

func isXMLDecl(pi []byte) bool {
	return bytes.HasPrefix(pi, []byte("xml")) && (len(pi) == 3 || isSpace(pi[3]))
}

// pseudoAttr returns the quoted value after key in an XML declaration.
func pseudoAttr(decl []byte, key string) []byte {
	i := bytes.Index(decl, []byte(key))
	if i < 0 {
		return nil
	}
	v := decl[i+len(key):]
	if len(v) == 0 || (v[0] != '"' && v[0] != '\'') {
		return nil
	}
	j := bytes.IndexByte(v[1:], v[0])
	if j < 0 {
		return nil
	}
	return v[1 : 1+j]
}

func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\t' || c == '\r' }

// nameByte marks the bytes a name may hold: every multi-byte rune, and
// the ASCII letters, digits and "_:.-".
var nameByte = func() (t [256]bool) {
	for c := 0; c < 256; c++ {
		t[c] = c >= utf8.RuneSelf || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			c == '_' || c == ':' || c == '.' || c == '-'
	}
	return t
}()

// name reads the name at pos.
func (s *scanner) name() ([]byte, error) {
	i := s.pos
	for i < len(s.data) && nameByte[s.data[i]] {
		i++
	}
	if i == s.pos {
		return nil, malformed("expected a name at offset %d", s.pos)
	}
	name := s.data[s.pos:i]
	s.pos = i
	return name, nil
}

// splitName cuts a qualified name at its colon. A name that does not
// have exactly one colon with something on both sides is all local.
func splitName(name []byte) (prefix, local []byte) {
	i := bytes.IndexByte(name, ':')
	if i <= 0 || i == len(name)-1 || bytes.IndexByte(name[i+1:], ':') >= 0 {
		return nil, name
	}
	return name[:i], name[i+1:]
}

func (s *scanner) skipSpace() {
	for s.pos < len(s.data) && isSpace(s.data[s.pos]) {
		s.pos++
	}
}

// element reads the element whose start tag begins at pos and leaves pos
// after its end tag.
func (s *scanner) element(depth int) (*message.Field, error) {
	if depth > MaxDepth {
		return nil, ErrTooDeep
	}
	s.pos++ // '<'
	tag, err := s.name()
	if err != nil {
		return nil, err
	}
	_, local := splitName(tag)
	label := s.label(local, false)
	kidMark, textMark, nsMark := len(s.kids), len(s.text), len(s.ns)

	open, err := s.attributes()
	if err != nil {
		return nil, err
	}
	for open {
		i := bytes.IndexByte(s.data[s.pos:], '<')
		if i < 0 || s.pos+i+1 >= len(s.data) {
			return nil, malformed("element <%s> is not closed", tag)
		}
		if i > 0 {
			if err := s.appendText(s.data[s.pos : s.pos+i]); err != nil {
				return nil, err
			}
			s.pos += i
		}
		switch s.data[s.pos+1] {
		case '/':
			s.pos += 2
			end, err := s.name()
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(end, tag) {
				return nil, malformed("element <%s> closed by </%s>", tag, end)
			}
			s.skipSpace()
			if s.pos >= len(s.data) || s.data[s.pos] != '>' {
				return nil, malformed("end tag </%s> is not closed", end)
			}
			s.pos++
			open = false
		case '?', '!':
			cdata, err := s.markup()
			if err != nil {
				return nil, err
			}
			s.text = appendNewlines(s.text, cdata)
		default:
			child, err := s.element(depth + 1)
			if err != nil {
				return nil, err
			}
			s.kids = append(s.kids, child)
		}
	}

	f := &message.Field{Label: label}
	content := s.text[textMark:]
	if len(s.kids) == kidMark {
		f.Type, f.Value = message.TypeString, string(content)
	} else {
		if content = bytes.TrimSpace(content); len(content) > 0 {
			s.kids = append(s.kids, &message.Field{Label: "#text", Type: message.TypeString, Value: string(content)})
		}
		f.Type = message.TypeStruct
		f.Children = append(make([]*message.Field, 0, len(s.kids)-kidMark), s.kids[kidMark:]...)
	}
	clear(s.kids[kidMark:])
	for i := len(s.ns) - 1; i >= nsMark; i-- {
		if b := s.ns[i]; b.shadows {
			s.bound[b.prefix] = b.outer
		} else {
			delete(s.bound, b.prefix)
		}
	}
	s.kids, s.text, s.ns = s.kids[:kidMark], s.text[:textMark], s.ns[:nsMark]
	return f, nil
}

// attributes reads the rest of a start tag, from after the element name,
// and adds one "@name" child per attribute. It reports whether the
// element has content, that is, whether the tag ended in '>' and not "/>".
func (s *scanner) attributes() (open bool, err error) {
	for {
		s.skipSpace()
		if s.pos >= len(s.data) {
			return false, malformed("start tag is not closed")
		}
		switch s.data[s.pos] {
		case '>':
			s.pos++
			open = true
		case '/':
			if s.pos+1 >= len(s.data) || s.data[s.pos+1] != '>' {
				return false, malformed("expected /> at offset %d", s.pos)
			}
			s.pos += 2
		default:
			name, err := s.name()
			if err != nil {
				return false, err
			}
			value, err := s.attrValue()
			if err != nil {
				return false, err
			}
			a := &message.Field{Type: message.TypeString, Value: value}
			switch prefix, local := splitName(name); {
			case prefix == nil:
				a.Label = s.label(local, true)
			case string(prefix) == "xmlns":
				a.Label = s.label(local, true)
				bound := string(local)
				outer, shadows := s.bound[bound]
				s.ns = append(s.ns, binding{bound, outer, shadows})
				s.bound[bound] = value
			default:
				s.prefixed = append(s.prefixed, prefixedAttr{len(s.kids), prefix, local})
			}
			s.kids = append(s.kids, a)
			continue
		}
		break
	}
	// A declaration binds the prefixes of every attribute of its element,
	// also of those written before it.
	for _, p := range s.prefixed {
		space, ok := s.bound[string(p.prefix)]
		switch {
		case string(p.prefix) == "xml":
			space = xmlNamespace
		case !ok:
			space = string(p.prefix)
		}
		if space == "" || space == "xmlns" {
			s.kids[p.kid].Label = s.label(p.local, true)
		} else {
			s.kids[p.kid].Label = "@" + space + ":" + string(p.local)
		}
	}
	s.prefixed = s.prefixed[:0]
	return open, nil
}

// attrValue reads = and the quoted value after an attribute name.
func (s *scanner) attrValue() (string, error) {
	s.skipSpace()
	if s.pos >= len(s.data) || s.data[s.pos] != '=' {
		return "", malformed("attribute without a value at offset %d", s.pos)
	}
	s.pos++
	s.skipSpace()
	if s.pos >= len(s.data) || (s.data[s.pos] != '"' && s.data[s.pos] != '\'') {
		return "", malformed("attribute value is not quoted at offset %d", s.pos)
	}
	from := s.pos + 1
	n := bytes.IndexByte(s.data[from:], s.data[s.pos])
	if n < 0 {
		return "", malformed("attribute value is not closed at offset %d", s.pos)
	}
	s.pos = from + n + 1
	raw := s.data[from : from+n]
	if s.plain {
		return string(raw), nil
	}
	mark := len(s.text)
	if err := s.appendText(raw); err != nil {
		return "", err
	}
	value := string(s.text[mark:])
	s.text = s.text[:mark]
	return value, nil
}

// appendText adds character data or an attribute value to the text of the
// open element: references resolved, line ends normalised.
func (s *scanner) appendText(raw []byte) error {
	if s.plain {
		s.text = append(s.text, raw...)
		return nil
	}
	for {
		i := bytes.IndexByte(raw, '&')
		if i < 0 {
			s.text = appendNewlines(s.text, raw)
			return nil
		}
		s.text = appendNewlines(s.text, raw[:i])
		r, n := reference(raw[i:])
		if n == 0 {
			return malformed("invalid character or entity reference %q", raw[i:min(i+12, len(raw))])
		}
		s.text = utf8.AppendRune(s.text, r)
		raw = raw[i+n:]
	}
}

// appendNewlines appends raw with "\r\n" and a lone "\r" turned into "\n".
func appendNewlines(dst, raw []byte) []byte {
	for {
		i := bytes.IndexByte(raw, '\r')
		if i < 0 {
			return append(dst, raw...)
		}
		dst = append(append(dst, raw[:i]...), '\n')
		raw = raw[i+1:]
		if len(raw) > 0 && raw[0] == '\n' {
			raw = raw[1:]
		}
	}
}

// reference decodes the character or predefined entity reference that raw
// begins with and returns its length, 0 when it is not one. Entities a
// DTD would declare are not known.
func reference(raw []byte) (rune, int) {
	end := bytes.IndexByte(raw, ';')
	if end < 2 {
		return 0, 0
	}
	body := raw[1:end]
	if body[0] == '#' {
		digits, base := body[1:], 10
		if len(digits) > 0 && digits[0] == 'x' {
			digits, base = digits[1:], 16
		}
		n, err := strconv.ParseUint(string(digits), base, 32)
		if err != nil || n > utf8.MaxRune {
			return 0, 0
		}
		return rune(n), end + 1
	}
	switch string(body) {
	case "lt":
		return '<', end + 1
	case "gt":
		return '>', end + 1
	case "amp":
		return '&', end + 1
	case "apos":
		return '\'', end + 1
	case "quot":
		return '"', end + 1
	}
	return 0, 0
}

// label returns the field label for an element or attribute name without
// allocating when the name is one these protocols use or one the document
// has used before.
func (s *scanner) label(name []byte, attr bool) string {
	if attr {
		// The key "@name" is built behind the open element's text.
		mark := len(s.text)
		s.text = append(append(s.text, '@'), name...)
		name, s.text = s.text[mark:], s.text[:mark]
	}
	if l := knownLabel(name); l != "" {
		return l
	}
	if l, ok := s.labels[string(name)]; ok {
		return l
	}
	l := string(name)
	s.labels[l] = l
	return l
}

// knownLabel is the static intern table: the element and attribute names
// of XML-RPC, SOAP 1.1 and Atom/GData documents.
func knownLabel(name []byte) string {
	switch string(name) {
	case "methodCall":
		return "methodCall"
	case "methodResponse":
		return "methodResponse"
	case "methodName":
		return "methodName"
	case "params":
		return "params"
	case "param":
		return "param"
	case "value":
		return "value"
	case "string":
		return "string"
	case "int":
		return "int"
	case "i4":
		return "i4"
	case "boolean":
		return "boolean"
	case "double":
		return "double"
	case "array":
		return "array"
	case "data":
		return "data"
	case "struct":
		return "struct"
	case "member":
		return "member"
	case "name":
		return "name"
	case "fault":
		return "fault"
	case "Envelope":
		return "Envelope"
	case "Body":
		return "Body"
	case "Fault":
		return "Fault"
	case "faultcode":
		return "faultcode"
	case "faultstring":
		return "faultstring"
	case "feed":
		return "feed"
	case "entry":
		return "entry"
	case "id":
		return "id"
	case "title":
		return "title"
	case "summary":
		return "summary"
	case "author":
		return "author"
	case "content":
		return "content"
	case "@type":
		return "@type"
	case "@src":
		return "@src"
	case "@xmlns":
		return "@xmlns"
	}
	return ""
}

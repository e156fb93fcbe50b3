package xmlenc

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode/utf8"
)

// MaxDepth bounds element nesting. What reads a document recurses once
// per level — the tree builder here, the XML-RPC and Atom decoders over
// the same Reader — and a goroutine that outgrows its stack takes the
// whole process down with it, no recover sees that, so a peer must not be
// able to choose the depth. The Reader counts the levels for all of them.
// Real documents of these protocols nest a dozen levels.
const MaxDepth = 256

// ErrTooDeep reports a document nested deeper than MaxDepth.
var ErrTooDeep = fmt.Errorf("%w: elements nested deeper than %d", ErrMalformed, MaxDepth)

// ErrTooLarge reports a document whose prefixed attributes, labelled with
// their namespace written out ("@uri:name"), would take more bytes than the
// document itself. A label copies the namespace, so one long xmlns:p and
// many p: attribute names would otherwise multiply a packet in memory.
var ErrTooLarge = fmt.Errorf("%w: namespace-qualified attribute labels longer than the document", ErrMalformed)

// What the Reader refuses although a full XML parser would read it: a
// declared encoding it would have to transcode, and a document type
// declaration with an internal subset.
var (
	errEncoding = fmt.Errorf("%w: declared encoding is not UTF-8", ErrMalformed)
	errDTD      = fmt.Errorf("%w: document type declaration with an internal subset", ErrMalformed)
)

// xmlNamespace is what the reserved prefix "xml" stands for.
const xmlNamespace = "http://www.w3.org/XML/1998/namespace"

// Token is what Next found.
type Token int

const (
	// Start is a start tag; Name and Attrs describe it. An empty-element
	// tag is a Start followed by an End.
	Start Token = iota + 1
	// Text is a run of character data up to the next tag; Text holds it.
	Text
	// End closes the innermost open element.
	End
)

// Attr is one attribute of a start tag, labelled as the package comment
// says ("@name", "@uri:name"), its value with references resolved.
type Attr struct {
	Label, Value string
}

// Reader is the one place XML bytes are read: a pull tokeniser over one
// document, in place. It does not validate; it accepts every well-formed
// document of the subset it reads and much that is not well-formed. What
// it hands out as bytes or as a slice is valid until the next call; the
// strings are the caller's. Its scratch space is pooled: NewReader takes
// one from the pool and Release gives it back, so reading a document
// allocates only the strings it asks for. An attribute's label and value
// become strings when Attrs is called, not when its tag is read: the tag
// is checked whole as it is read, every reference in every value with it,
// but an element that is skipped costs no string, and one read through
// AttrLabel and AttrValue none but a label the Reader has not seen.
type Reader struct {
	data []byte
	pos  int
	// plain records that the document holds no '&' and no '\r': text and
	// attribute values are then their bytes.
	plain bool
	// open holds the elements whose end tag has not come, outermost first.
	open []openElement
	// empty records that the Start just returned was an empty-element tag,
	// so its End is due; done, that the root element has closed.
	empty, done bool

	// The token Next returned. The local name of a Start, or the character
	// data of a Text, is data[from:to] — offsets, so that storing a token
	// is no pointer write — unless the Text had to be put together, in
	// text: gathered says so. raw are a Start's attributes as its tag was
	// read, attrs the strings Attrs made of them (made says it has).
	from, to int
	gathered bool
	raw      []rawAttr
	attrs    []Attr
	made     bool

	// text holds a run of character data that could not be returned in
	// place, and for a moment each "@name" label and resolved attribute
	// value being built; content, what Content gathers.
	text, content []byte
	// labels interns the names the static table does not know, of this
	// document and of those the pooled Reader read before it, so a flow's
	// documents, alike from one flow to the next, make no label string
	// after the first; held counts their bytes. A Reader released holding
	// more than maxRetainedLabels labels, or labels of more than
	// maxRetainedLabelBytes bytes, forgets them.
	labels map[string]string
	held   int
	// bound maps each prefix an xmlns:prefix declaration in scope binds to
	// its namespace. Only prefixed attributes look at it. ns is its undo
	// log, innermost declaration last: an element that closes takes back
	// the declarations it made.
	bound map[string]string
	ns    []binding
	// prefixed lists the attributes of the start tag being read that wait
	// for its declarations before they can be labelled.
	prefixed []prefixedAttr
	// qualified counts the bytes of the distinct "@uri:name" labels built so
	// far, which ErrTooLarge bounds.
	qualified int
}

// openElement is where a start tag's name lies in the packet, to hold the
// end tag against, and where the undo log stood before it.
type openElement struct {
	from, to, ns int
}

// binding records one declaration: the prefix, and the namespace it had
// before when it was bound already.
type binding struct {
	prefix, outer string
	shadows       bool
}

type prefixedAttr struct {
	attr          int
	prefix, local []byte
}

// rawAttr is an attribute as its start tag was read: where its local name
// and its value stand in the document, and what of it is a string already
// — the label of a prefixed attribute, which its tag's declarations decide
// and ErrTooLarge bounds, and the value of a declaration, which binds its
// prefix at once. Attrs and AttrLabel make the rest.
type rawAttr struct {
	name, value span
	label, text string
	// labelled and valued say that label and text are made.
	labelled, valued bool
}

// span is where bytes stand in the document.
type span struct{ from, to int }

var readers = sync.Pool{New: func() any {
	return &Reader{labels: map[string]string{}, bound: map[string]string{}}
}}

// A Reader that one large document has grown past maxRetain bytes of text
// or past this many declarations or attributes of one tag is not pooled
// again. One released holding more labels than this, or labels of more
// than maxRetainedLabelBytes bytes, is pooled with its labels forgotten.
const maxRetainedLabels = 256

// maxRetainedLabelBytes bounds the bytes of the labels a pooled Reader
// keeps for the documents after its own.
const maxRetainedLabelBytes = 4096

// NewReader returns a Reader at the start of data, which it reads in
// place and never writes.
func NewReader(data []byte) *Reader {
	r := readers.Get().(*Reader)
	r.data = data
	r.plain = bytes.IndexByte(data, '&') < 0 && bytes.IndexByte(data, '\r') < 0
	return r
}

// Release returns the Reader to the pool. Nothing it handed out as bytes
// may be used afterwards.
func (r *Reader) Release() {
	if cap(r.text) > maxRetain || cap(r.content) > maxRetain ||
		cap(r.ns) > maxRetainedLabels || cap(r.raw) > maxRetainedLabels || cap(r.prefixed) > maxRetainedLabels {
		return
	}
	// Nothing pooled may pin the packet.
	clear(r.ns[:cap(r.ns)])
	clear(r.raw[:cap(r.raw)])
	clear(r.attrs[:cap(r.attrs)])
	clear(r.prefixed[:cap(r.prefixed)])
	clear(r.bound)
	held := r.held
	if len(r.labels) > maxRetainedLabels || held > maxRetainedLabelBytes {
		// A new map: a cleared one keeps the room its labels took.
		r.labels, held = map[string]string{}, 0
	}
	*r = Reader{open: r.open[:0], raw: r.raw[:0], attrs: r.attrs[:0], text: r.text[:0], content: r.content[:0],
		labels: r.labels, held: held, bound: r.bound, ns: r.ns[:0], prefixed: r.prefixed[:0]}
	readers.Put(r)
}

// Next reads the next token. The first is the Start of the root element,
// whatever precedes it skipped; after the End of the root element comes
// io.EOF, and what follows it in the packet is not read. An error is
// ErrMalformed, wrapped, and final.
func (r *Reader) Next() (Token, error) {
	switch {
	case r.empty:
		r.empty = false
		r.close()
		return End, nil
	case r.done:
		return 0, io.EOF
	case len(r.open) == 0:
		return r.root()
	}
	// A tag right behind the last token, the common case, needs no search
	// for the end of a run of text.
	if r.pos+1 >= len(r.data) || r.data[r.pos] != '<' || r.data[r.pos+1] == '?' || r.data[r.pos+1] == '!' {
		if found, err := r.run(); err != nil {
			return 0, err
		} else if found {
			return Text, nil
		}
	}
	if r.data[r.pos+1] == '/' {
		return r.endTag()
	}
	return r.startTag()
}

// Name returns the local name of the element a Start token opened.
func (r *Reader) Name() []byte { return r.data[r.from:r.to] }

// Attrs returns the attributes of the element a Start token opened, in
// document order, namespace declarations among them. Their strings are
// made here, the first time a tag's are asked for.
func (r *Reader) Attrs() []Attr {
	if r.made {
		return r.attrs
	}
	r.attrs, r.made = r.attrs[:0], true
	for i := range r.raw {
		label, a := r.AttrLabel(i), &r.raw[i]
		if !a.valued {
			// The value was checked with its tag, so it resolves.
			a.text, _ = r.value(a.value)
		}
		r.attrs = append(r.attrs, Attr{label, a.text})
	}
	return r.attrs
}

// AttrName returns the local name of the i-th attribute Attrs returns, as
// written: a prefixed one's without its prefix, as Name gives an
// element's. A consumer that matches attributes by name whatever their
// namespace reads this and not the label, which holds the namespace.
func (r *Reader) AttrName(i int) []byte {
	n := r.raw[i].name
	return r.data[n.from:n.to]
}

// NumAttr, AttrLabel and AttrValue read the attributes of a Start one by
// one, as Attrs lists them, with no string made but a label the static
// table does not know. AttrValue's bytes, references resolved, are valid
// until the Reader's next call.
func (r *Reader) NumAttr() int { return len(r.raw) }

func (r *Reader) AttrLabel(i int) string {
	if a := &r.raw[i]; !a.labelled {
		a.label, a.labelled = r.label(r.data[a.name.from:a.name.to], true), true
	}
	return r.raw[i].label
}

func (r *Reader) AttrValue(i int) []byte {
	b, _ := r.resolve(r.raw[i].value) // checked with its tag, so it resolves
	return b
}

// Text returns the character data of a Text token: references resolved,
// line ends normalised, CDATA sections taken in, and the comments and
// processing instructions inside the run left out.
func (r *Reader) Text() []byte {
	if r.gathered {
		return r.text
	}
	return r.data[r.from:r.to]
}

// Intern returns name as a string without allocating when it is a name
// these protocols use or one the document has used before.
func (r *Reader) Intern(name []byte) string { return r.label(name, false) }

// Find moves to the next child element of the innermost open element
// that bears one of the names wanted, past character data and past the
// other elements with all they hold, and returns that name: "" when the
// element ends instead.
func (r *Reader) Find(want ...string) (string, error) {
	for {
		tok, err := r.Next()
		if err != nil || tok == End {
			return "", err
		}
		if tok == Text {
			continue
		}
		name := r.Name()
		for _, w := range want {
			if string(name) == w {
				return w, nil
			}
		}
		if err := r.Skip(); err != nil {
			return "", err
		}
	}
}

// Skip reads to the End of the innermost open element.
func (r *Reader) Skip() error {
	for depth := 1; depth > 0; {
		switch tok, err := r.Next(); {
		case err != nil:
			return err
		case tok == Start:
			depth++
		case tok == End:
			depth--
		}
	}
	return nil
}

// Content reads to the End of the innermost open element and returns the
// character data directly inside it. Elements inside it are skipped, their
// text with them; leaf reports that there were none.
func (r *Reader) Content() (text []byte, leaf bool, err error) {
	tok, err := r.Next()
	if tok == Text && r.data[r.pos+1] == '/' {
		// One run of text and then the end tag, which leaves the run alone.
		text = r.Text()
		_, err = r.Next()
		return text, true, err
	}
	r.content, leaf = r.content[:0], true
	for depth := 1; ; tok, err = r.Next() {
		switch {
		case err != nil:
			return nil, false, err
		case tok == Start:
			depth++
			leaf = false
		case tok == Text && depth == 1:
			r.content = append(r.content, r.Text()...)
		case tok == End:
			if depth--; depth == 0 {
				return r.content, leaf, nil
			}
		}
	}
}

// root skips the prolog and reads the root element's start tag.
func (r *Reader) root() (Token, error) {
	for {
		i := bytes.IndexByte(r.data[r.pos:], '<')
		if i < 0 || r.pos+i+1 >= len(r.data) {
			return 0, malformed("no root element")
		}
		r.pos += i
		switch r.data[r.pos+1] {
		case '?', '!':
			if _, err := r.markup(); err != nil {
				return 0, err
			}
		case '/':
			return 0, malformed("end tag before the root element")
		default:
			return r.startTag()
		}
	}
}

// run reads the character data up to the next tag, leaves pos at that
// tag's '<' and reports whether there was any. A run that is one stretch
// of bytes needing no rewriting stays in place; any other is put together
// in text.
func (r *Reader) run() (found bool, err error) {
	r.gathered = false
	for {
		i := bytes.IndexByte(r.data[r.pos:], '<')
		if i < 0 || r.pos+i+1 >= len(r.data) {
			return false, malformed("element <%s> is not closed", r.openTag())
		}
		piece := r.data[r.pos : r.pos+i]
		r.from, r.to = r.pos, r.pos+i
		r.pos += i
		markup := r.data[r.pos+1] == '?' || r.data[r.pos+1] == '!'
		if !r.gathered && !markup && r.clean(piece) {
			return i > 0, nil
		}
		if !r.gathered {
			r.text, r.gathered = r.text[:0], true
		}
		if err := r.appendText(piece); err != nil {
			return false, err
		}
		if !markup {
			return len(r.text) > 0, nil
		}
		cdata, err := r.markup()
		if err != nil {
			return false, err
		}
		r.text = appendNewlines(r.text, cdata)
	}
}

// clean reports whether raw is its own value: no reference to resolve, no
// line end to normalise.
func (r *Reader) clean(raw []byte) bool {
	return r.plain || bytes.IndexByte(raw, '&') < 0 && bytes.IndexByte(raw, '\r') < 0
}

// startTag reads the start tag at pos: the name, then the attributes.
func (r *Reader) startTag() (Token, error) {
	if len(r.open) >= MaxDepth {
		return 0, ErrTooDeep
	}
	r.pos++ // '<'
	tag, _, local, err := r.readName()
	if err != nil {
		return 0, err
	}
	r.from, r.to = r.pos-len(local), r.pos
	r.open = append(r.open, openElement{r.pos - len(tag), r.pos, len(r.ns)})
	if r.pos < len(r.data) && r.data[r.pos] == '>' {
		// No attributes, content to follow: most start tags.
		r.pos++
		r.raw, r.made, r.empty = r.raw[:0], false, false
		return Start, nil
	}
	open, err := r.attributes()
	if err != nil {
		return 0, err
	}
	r.empty = !open
	return Start, nil
}

// endTag reads the end tag at pos and holds it against the start tag.
func (r *Reader) endTag() (Token, error) {
	tag := r.openTag()
	r.pos += 2 // "</"
	if rest := r.data[r.pos:]; len(rest) > len(tag) && rest[len(tag)] == '>' && string(rest[:len(tag)]) == string(tag) {
		// The name it has to be and the '>' right behind it: most end tags.
		r.pos += len(tag) + 1
		r.close()
		return End, nil
	}
	end, _, _, err := r.readName()
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(end, tag) {
		return 0, malformed("element <%s> closed by </%s>", tag, end)
	}
	r.skipSpace()
	if r.pos >= len(r.data) || r.data[r.pos] != '>' {
		return 0, malformed("end tag </%s> is not closed", end)
	}
	r.pos++
	r.close()
	return End, nil
}

// openTag returns the name of the innermost open element as written.
func (r *Reader) openTag() []byte {
	e := r.open[len(r.open)-1]
	return r.data[e.from:e.to]
}

// close takes the innermost element off the stack and its declarations
// out of scope.
func (r *Reader) close() {
	last := len(r.open) - 1
	mark := r.open[last].ns
	for i := len(r.ns) - 1; i >= mark; i-- {
		if b := r.ns[i]; b.shadows {
			r.bound[b.prefix] = b.outer
		} else {
			delete(r.bound, b.prefix)
		}
	}
	r.ns = r.ns[:mark]
	r.open = r.open[:last]
	r.done = last == 0
}

// attributes reads the rest of a start tag, from after the element name,
// into raw. It reports whether the element has content, that is, whether
// the tag ended in '>' and not "/>".
func (r *Reader) attributes() (open bool, err error) {
	r.raw, r.made = r.raw[:0], false
	for {
		r.skipSpace()
		if r.pos >= len(r.data) {
			return false, malformed("start tag is not closed")
		}
		switch r.data[r.pos] {
		case '>':
			r.pos++
			open = true
		case '/':
			if r.pos+1 >= len(r.data) || r.data[r.pos+1] != '>' {
				return false, malformed("expected /> at offset %d", r.pos)
			}
			r.pos += 2
		default:
			_, prefix, local, err := r.readName()
			if err != nil {
				return false, err
			}
			a := rawAttr{name: span{r.pos - len(local), r.pos}}
			if a.value, err = r.attrValue(); err != nil {
				return false, err
			}
			switch {
			case prefix == nil:
			case string(prefix) == "xmlns":
				// The prefix and its namespace are labels: a flow's
				// documents declare the same ones.
				space, _ := r.resolve(a.value)
				a.text, a.valued = r.label(space, false), true
				bound := r.label(local, false)
				outer, shadows := r.bound[bound]
				r.ns = append(r.ns, binding{bound, outer, shadows})
				r.bound[bound] = a.text
			default:
				r.prefixed = append(r.prefixed, prefixedAttr{len(r.raw), prefix, local})
			}
			r.raw = append(r.raw, a)
			continue
		}
		break
	}
	// A declaration binds the prefixes of every attribute of its element,
	// also of those written before it.
	for _, p := range r.prefixed {
		space, ok := r.bound[string(p.prefix)]
		switch {
		case string(p.prefix) == "xml":
			space = xmlNamespace
		case !ok:
			space = string(p.prefix)
		}
		a := &r.raw[p.attr]
		if space == "" || space == "xmlns" {
			a.label = r.label(p.local, true)
		} else if a.label, err = r.qualify(space, p.local); err != nil {
			return false, err
		}
		a.labelled = true
	}
	r.prefixed = r.prefixed[:0]
	return open, nil
}

func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrMalformed}, args...)...)
}

// markup skips the processing instruction, comment or declaration at pos.
// For a CDATA section it returns the section's bytes.
func (r *Reader) markup() (cdata []byte, err error) {
	rest := r.data[r.pos:]
	switch {
	case rest[1] == '?':
		pi, err := r.until(2, "?>")
		if err == nil && isXMLDecl(pi) {
			if enc := pseudoAttr(pi, "encoding="); len(enc) > 0 && !bytes.EqualFold(enc, []byte("utf-8")) {
				return nil, errEncoding
			}
		}
		return nil, err
	case bytes.HasPrefix(rest, []byte("<!--")):
		_, err = r.until(4, "-->")
		return nil, err
	case bytes.HasPrefix(rest, []byte("<![CDATA[")):
		return r.until(9, "]]>")
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
			r.pos += i + 1
			return nil, nil
		case c == '<' || c == '[':
			return nil, errDTD
		}
	}
	return nil, malformed("unterminated <! declaration")
}

// until returns what lies between pos+skip and the next end marker, and
// moves past the marker.
func (r *Reader) until(skip int, end string) ([]byte, error) {
	from := r.pos + skip
	i := bytes.Index(r.data[from:], []byte(end))
	if i < 0 {
		return nil, malformed("unterminated %s", r.data[r.pos:from])
	}
	r.pos = from + i + len(end)
	return r.data[from : from+i], nil
}

func isXMLDecl(pi []byte) bool {
	return bytes.HasPrefix(pi, []byte("xml")) && (len(pi) == 3 || isSpace(pi[3]))
}

// pseudoAttr returns the quoted value after key in an XML declaration:
// after the first key that a quote follows, as encoding/xml reads it, so
// one inside another word ("xencoding=x") does not hide the real one.
func pseudoAttr(decl []byte, key string) []byte {
	for {
		i := bytes.Index(decl, []byte(key))
		if i < 0 {
			return nil
		}
		if decl = decl[i+len(key):]; len(decl) > 0 && (decl[0] == '"' || decl[0] == '\'') {
			j := bytes.IndexByte(decl[1:], decl[0])
			if j < 0 {
				return nil
			}
			return decl[1 : 1+j]
		}
	}
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

// readName reads the qualified name at pos and cuts it at its colon. A
// name that does not have exactly one colon with something on both sides
// is all local.
func (r *Reader) readName() (name, prefix, local []byte, err error) {
	data, from := r.data, r.pos
	i, colon, colons := from, 0, 0
	for ; i < len(data) && nameByte[data[i]]; i++ {
		if data[i] == ':' {
			colon, colons = i, colons+1
		}
	}
	if i == from {
		return nil, nil, nil, malformed("expected a name at offset %d", from)
	}
	name, local = data[from:i], data[from:i]
	if colons == 1 && colon > from && colon < i-1 {
		prefix, local = data[from:colon], data[colon+1:i]
	}
	r.pos = i
	return name, prefix, local, nil
}

func (r *Reader) skipSpace() {
	for r.pos < len(r.data) && isSpace(r.data[r.pos]) {
		r.pos++
	}
}

// attrValue reads = and the quoted value after an attribute name, and
// returns where the value stands, once its references are known to
// resolve.
func (r *Reader) attrValue() (span, error) {
	r.skipSpace()
	if r.pos >= len(r.data) || r.data[r.pos] != '=' {
		return span{}, malformed("attribute without a value at offset %d", r.pos)
	}
	r.pos++
	r.skipSpace()
	if r.pos >= len(r.data) || (r.data[r.pos] != '"' && r.data[r.pos] != '\'') {
		return span{}, malformed("attribute value is not quoted at offset %d", r.pos)
	}
	from := r.pos + 1
	n := bytes.IndexByte(r.data[from:], r.data[r.pos])
	if n < 0 {
		return span{}, malformed("attribute value is not closed at offset %d", r.pos)
	}
	r.pos = from + n + 1
	v := span{from, from + n}
	_, err := r.resolve(v)
	return v, err
}

// resolve returns the attribute value at v with its references resolved
// and its line ends normalised: the bytes where they stand when they need
// neither, else in text.
func (r *Reader) resolve(v span) ([]byte, error) {
	raw := r.data[v.from:v.to]
	if r.clean(raw) {
		return raw, nil
	}
	r.text = r.text[:0]
	err := r.appendText(raw)
	return r.text, err
}

// value returns the attribute value at v as a string.
func (r *Reader) value(v span) (string, error) {
	b, err := r.resolve(v)
	return string(b), err
}

// appendText adds character data or an attribute value to text:
// references resolved, line ends normalised.
func (r *Reader) appendText(raw []byte) error {
	for {
		i := bytes.IndexByte(raw, '&')
		if i < 0 {
			r.text = appendNewlines(r.text, raw)
			return nil
		}
		r.text = appendNewlines(r.text, raw[:i])
		c, n := reference(raw[i:])
		if n == 0 {
			return malformed("invalid character or entity reference %q", raw[i:min(i+12, len(raw))])
		}
		r.text = utf8.AppendRune(r.text, c)
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
func (r *Reader) label(name []byte, attr bool) string {
	if attr {
		// The key "@name" is built in text, which holds nothing while a
		// start tag is read.
		r.text = append(append(r.text[:0], '@'), name...)
		name = r.text
	}
	if l := knownLabel(name); l != "" {
		return l
	}
	if l, ok := r.labels[string(name)]; ok {
		return l
	}
	l := string(name)
	r.labels[l] = l
	r.held += len(l)
	return l
}

// qualify returns the label "@space:local" of a prefixed attribute. Each
// distinct one is built once, like a name the static table does not know,
// and those one document builds may not outgrow it.
func (r *Reader) qualify(space string, local []byte) (string, error) {
	r.text = append(append(append(append(r.text[:0], '@'), space...), ':'), local...)
	if l, ok := r.labels[string(r.text)]; ok {
		return l, nil
	}
	if r.qualified += len(r.text); r.qualified > len(r.data) {
		return "", ErrTooLarge
	}
	l := string(r.text)
	r.labels[l] = l
	r.held += len(l)
	return l, nil
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

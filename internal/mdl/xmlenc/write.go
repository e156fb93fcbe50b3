package xmlenc

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"starlink/internal/message"
	"starlink/internal/protocol/bufpool"
)

// Writer renders one XML document into a pooled buffer. The protocol
// layers write their documents straight to it; EncodeDoc and Compose
// walk a field tree with it. Obtain one with NewDoc, finish with Doc.
//
// A start tag stays open until the element gets content, so attributes
// may follow Open and an element closed without content renders as
// <name/>. Leaf always renders <name>text</name>. A misuse — an attribute
// after content, an element named like an attribute ("@x") or like text
// ("#text"), a Close with nothing open — is remembered and reported by
// Doc, as is what the caller reports with Fail: every document ends in
// one Doc or AppendTo call, which is also what returns the writer to its
// pool.
type Writer struct {
	buf []byte
	// open holds the names of the elements not yet closed; the one at depth
	// joined, when that is not 0, is written followed by suffix (OpenJoined).
	open   []string
	joined int
	suffix string
	// inTag is set while the innermost start tag still lacks its '>'.
	inTag bool
	err   error
}

var writers = sync.Pool{New: func() any { return new(Writer) }}

// maxRetain bounds the buffer a pooled writer or reader keeps, so one
// photo feed does not pin its high-water mark for the life of the process.
const maxRetain = bufpool.MaxRetain

// The two declarations in use: the RPC protocol layers predate encoding
// declarations, the MDL codec writes the full form.
const (
	docHeader   = `<?xml version="1.0"?>` + "\n"
	codecHeader = `<?xml version="1.0" encoding="UTF-8"?>` + "\n"
)

func newWriter(header string) *Writer {
	w := writers.Get().(*Writer)
	w.buf = append(w.buf, header...)
	return w
}

// NewDoc starts a standalone document: the XML declaration is written.
func NewDoc() *Writer { return newWriter(docHeader) }

// Doc returns the finished document as a right-sized copy and releases
// the writer, which must not be used again.
func (w *Writer) Doc() ([]byte, error) { return w.AppendTo(nil) }

// AppendTo is Doc into the caller's buffer: the finished document is
// appended to dst and the writer released. On an error dst comes back as
// it was.
func (w *Writer) AppendTo(dst []byte) ([]byte, error) {
	err := w.err
	if err == nil && len(w.open) > 0 {
		err = fmt.Errorf("xmlenc: element <%s> left open", w.open[len(w.open)-1]+w.suffixAt(len(w.open)))
	}
	if err == nil {
		dst = append(dst, w.buf...)
	}
	if cap(w.buf) <= maxRetain {
		*w = Writer{buf: w.buf[:0], open: w.open[:0]}
		writers.Put(w)
	}
	return dst, err
}

// Fail makes Doc report err, unless an earlier error is on record.
func (w *Writer) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// element checks that name can name an element and closes the pending
// start tag.
func (w *Writer) element(name string) {
	if strings.HasPrefix(name, "@") || name == "#text" {
		w.Fail(fmt.Errorf("xmlenc: %q cannot be an element", name))
	}
	w.content()
}

// content closes the pending start tag before the element's first content.
func (w *Writer) content() {
	if w.inTag {
		w.buf = append(w.buf, '>')
		w.inTag = false
	}
}

// Open starts an element.
func (w *Writer) Open(name string) {
	w.element(name)
	w.buf = append(append(w.buf, '<'), name...)
	w.open = append(w.open, name)
	w.inTag = true
}

// OpenJoined starts the element Open(name+suffix) starts, without making
// that string: a SOAP reply's <MethodResponse>. One such element may be
// open at a time; another inside it is opened joined.
func (w *Writer) OpenJoined(name, suffix string) {
	if name == "" || len(name)+len(suffix) <= len("#text") || w.joined != 0 {
		// Open checks a name this short joined; "" + suffix is suffix.
		w.Open(name + suffix)
		return
	}
	if strings.HasPrefix(name, "@") {
		w.Fail(fmt.Errorf("xmlenc: %q cannot be an element", name+suffix))
	}
	w.content()
	w.buf = append(append(append(w.buf, '<'), name...), suffix...)
	w.open = append(w.open, name)
	w.joined, w.suffix = len(w.open), suffix
	w.inTag = true
}

// suffixAt is what follows the name of the element open at depth.
func (w *Writer) suffixAt(depth int) string {
	if depth == w.joined {
		return w.suffix
	}
	return ""
}

// Attr adds an attribute to the element just opened.
func (w *Writer) Attr(name, value string) {
	w.attr(name)
	w.buf = append(appendEscaped(w.buf, value), '"')
}

// attr writes an attribute up to the opening quote of its value.
func (w *Writer) attr(name string) {
	if !w.inTag {
		w.Fail(fmt.Errorf("xmlenc: attribute %q after the start tag", name))
	}
	w.buf = append(append(append(w.buf, ' '), name...), '=', '"')
}

// Close ends the innermost open element.
func (w *Writer) Close() {
	if len(w.open) == 0 {
		w.Fail(errors.New("xmlenc: Close with no element open"))
		return
	}
	name, joined := w.open[len(w.open)-1], len(w.open) == w.joined
	w.open = w.open[:len(w.open)-1]
	if joined {
		w.joined = 0
	}
	if w.inTag {
		w.buf = append(w.buf, '/', '>')
		w.inTag = false
		return
	}
	if joined {
		w.buf = append(append(append(append(w.buf, '<', '/'), name...), w.suffix...), '>')
		return
	}
	w.endTag(name)
}

func (w *Writer) endTag(name string) {
	w.buf = append(append(append(w.buf, '<', '/'), name...), '>')
}

// Leaf writes <name>text</name>.
func (w *Writer) Leaf(name, text string) {
	w.leaf(name)
	w.buf = appendEscaped(w.buf, text)
	w.endTag(name)
}

// leaf writes the start tag of an element that holds text only.
func (w *Writer) leaf(name string) {
	w.element(name)
	w.buf = append(append(append(w.buf, '<'), name...), '>')
}

// Field writes f and its subtree, the inverse of DecodeTree: a primitive
// becomes a leaf, its number or boolean appended where it stands, a
// structured field an element whose "@name" children are its attributes,
// whose "#text" child is its character data and whose other children
// follow as elements.
func (w *Writer) Field(f *message.Field) {
	if f.Type.Primitive() {
		w.leaf(f.Label)
		w.value(f)
		w.endTag(f.Label)
		return
	}
	w.Open(f.Label)
	w.children(f.Children)
	w.Close()
}

// children writes fields as the content of the element just opened:
// attributes first, then the text, then the elements, whatever their
// order among the fields.
func (w *Writer) children(fields []*message.Field) {
	var text *message.Field
	for _, c := range fields {
		switch {
		case strings.HasPrefix(c.Label, "@"):
			w.attr(c.Label[1:])
			w.value(c)
			w.buf = append(w.buf, '"')
		case c.Label == "#text":
			text = c
		}
	}
	if text != nil && text.ValueString() != "" {
		w.content()
		w.value(text)
	}
	for _, c := range fields {
		if !strings.HasPrefix(c.Label, "@") && c.Label != "#text" {
			w.Field(c)
		}
	}
}

// value appends f's value as escaped text. Numbers and booleans need no
// escaping and no intermediate string.
func (w *Writer) value(f *message.Field) {
	switch f.Type {
	case message.TypeInt32, message.TypeInt64:
		w.buf = strconv.AppendInt(w.buf, f.Int64(), 10)
	case message.TypeUint32, message.TypeUint64:
		w.buf = strconv.AppendUint(w.buf, f.Uint64(), 10)
	case message.TypeBool:
		w.buf = strconv.AppendBool(w.buf, f.Bool())
	case message.TypeFloat64:
		w.buf = strconv.AppendFloat(w.buf, f.Float64(), 'g', -1, 64)
	default:
		w.buf = appendEscaped(w.buf, f.ValueString())
	}
}

// clean marks the bytes that stand for themselves in text and in a quoted
// attribute value: printable ASCII but the five markup characters.
var clean = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"'&<>` {
		t[c] = false
	}
	return t
}()

// appendEscaped appends s as encoding/xml's EscapeText writes it, so that
// output stays the same byte for byte: markup characters and white space
// other than the blank as references, what is not an XML character as
// U+FFFD. Runs of clean bytes are copied whole.
func appendEscaped(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		if clean[s[i]] {
			i++
			continue
		}
		esc, width := "\uFFFD", 1
		switch s[i] {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if s[i] >= utf8.RuneSelf {
				var r rune
				r, width = utf8.DecodeRuneInString(s[i:])
				if (r != utf8.RuneError || width > 1) && r != 0xFFFE && r != 0xFFFF {
					i += width
					continue
				}
			}
		}
		dst = append(append(dst, s[last:i]...), esc...)
		i += width
		last = i
	}
	return append(dst, s[last:]...)
}

package xmlenc

import (
	"bytes"
	"sync"

	"starlink/internal/message"
)

// treeBuilder turns the Reader's tokens into a field tree. Its scratch
// space is pooled, so a decode allocates only what the tree keeps.
type treeBuilder struct {
	// text and kids hold the character data and the children of the open
	// elements, innermost last; an element truncates them to where it
	// found them when it closes.
	text []byte
	kids []*message.Field
}

var treeBuilders = sync.Pool{New: func() any { return new(treeBuilder) }}

// A builder that one large document has grown past maxRetain bytes of
// text or this many pending children is not pooled again.
const maxRetainedKids = 4 << 10

// DecodeTree maps an XML document onto one field per element by the rules
// in the package comment. Anything after the root element is not read.
// It is for callers whose product is the tree — Codec.Parse; a protocol
// with a shape of its own reads the Reader's tokens into that shape
// directly.
func DecodeTree(data []byte) (*message.Field, error) {
	r := NewReader(data)
	defer r.Release()
	if _, err := r.Next(); err != nil {
		return nil, err
	}
	b := treeBuilders.Get().(*treeBuilder)
	root, err := b.element(r)
	if cap(b.text) <= maxRetain && cap(b.kids) <= maxRetainedKids {
		// Nothing pooled may pin the tree. Every element that closed has
		// cleared its own children.
		if err != nil {
			clear(b.kids)
		}
		b.text, b.kids = b.text[:0], b.kids[:0]
		treeBuilders.Put(b)
	}
	return root, err
}

// element builds the field for the element whose Start the Reader just
// returned, reading through its End. The Reader bounds the recursion.
func (b *treeBuilder) element(r *Reader) (*message.Field, error) {
	f := &message.Field{Label: r.Intern(r.Name())}
	kidMark, textMark := len(b.kids), len(b.text)
	for _, a := range r.Attrs() {
		b.kids = append(b.kids, message.NewString(a.Label, a.Value))
	}
	for {
		tok, err := r.Next()
		if err != nil {
			return nil, err
		}
		switch tok {
		case Start:
			child, err := b.element(r)
			if err != nil {
				return nil, err
			}
			b.kids = append(b.kids, child)
			continue
		case Text:
			b.text = append(b.text, r.Text()...)
			continue
		}
		content := b.text[textMark:]
		if len(b.kids) == kidMark {
			f.SetText(string(content))
		} else {
			if content = bytes.TrimSpace(content); len(content) > 0 {
				b.kids = append(b.kids, message.NewString("#text", string(content)))
			}
			f.Type = message.TypeStruct
			f.Children = append(make([]*message.Field, 0, len(b.kids)-kidMark), b.kids[kidMark:]...)
		}
		clear(b.kids[kidMark:])
		b.kids, b.text = b.kids[:kidMark], b.text[:textMark]
		return f, nil
	}
}

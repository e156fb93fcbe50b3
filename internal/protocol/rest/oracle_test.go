package rest

import (
	"fmt"

	"starlink/internal/mdl/xmlenc"
	"starlink/internal/message"
)

// oracle is how ParseFeed and ParseEntry read a document before the xmlenc
// Reader: the whole field tree first, then a walk over it. It is the
// reference the fuzzers hold the token decoders against.
//
// irregular records that the walk read the text of an element that holds
// attributes or elements, <title type="text"> for one: the tree renders
// such a field as a bracketed list of its children, "[text Photo]", where
// the decoders now read the element's own text (DESIGN.md, "The reader
// and its consumers").
type oracle struct {
	irregular bool
}

func (o *oracle) text(f *message.Field) string {
	if !f.Type.Primitive() {
		o.irregular = true
	}
	return f.ValueString()
}

func (o *oracle) entryFromField(f *message.Field) Entry {
	var e Entry
	if c := f.Child("id"); c != nil {
		e.ID = o.text(c)
	}
	if c := f.Child("title"); c != nil {
		e.Title = o.text(c)
	}
	if c := f.Child("summary"); c != nil {
		e.Summary = o.text(c)
	}
	if a := f.Child("author"); a != nil {
		if n := a.Child("name"); n != nil {
			e.Author = o.text(n)
		} else {
			e.Author = o.text(a)
		}
	}
	if c := f.Child("content"); c != nil {
		if t := c.Child("@type"); t != nil {
			e.ContentType = t.ValueString()
		}
		if s := c.Child("@src"); s != nil {
			e.ContentSrc = s.ValueString()
		}
		if e.Summary == "" && len(c.Children) == 0 {
			e.Summary = c.ValueString()
		}
		if txt := c.Child("#text"); txt != nil && e.Summary == "" {
			e.Summary = txt.ValueString()
		}
	}
	return e
}

func (o *oracle) parseFeed(data []byte) (Feed, error) {
	root, err := xmlenc.DecodeTree(data)
	if err != nil {
		return Feed{}, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if root.Label != "feed" {
		return Feed{}, fmt.Errorf("%w: root %q", ErrMalformed, root.Label)
	}
	var f Feed
	if t := root.Child("title"); t != nil {
		f.Title = o.text(t)
	}
	for _, c := range root.Children {
		if c.Label == "entry" {
			f.Entries = append(f.Entries, o.entryFromField(c))
		}
	}
	return f, nil
}

func (o *oracle) parseEntry(data []byte) (Entry, error) {
	root, err := xmlenc.DecodeTree(data)
	if err != nil {
		return Entry{}, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if root.Label != "entry" {
		return Entry{}, fmt.Errorf("%w: root %q", ErrMalformed, root.Label)
	}
	return o.entryFromField(root), nil
}

package xmlenc

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"starlink/internal/testutil"
)

// tokens renders what a Reader yields for doc, one token a word: "<name"
// with " @label=value" per attribute, "'text'", ">" for an End, then the
// error that ended it.
func tokens(doc string) string {
	r := NewReader([]byte(doc))
	defer r.Release()
	var out []string
	for {
		tok, err := r.Next()
		switch {
		case err == io.EOF:
			return strings.Join(out, " ")
		case err != nil:
			return strings.Join(append(out, "!"+strings.TrimPrefix(err.Error(), ErrMalformed.Error()+": ")), " ")
		case tok == Start:
			s := "<" + string(r.Name())
			for _, a := range r.Attrs() {
				s += " " + a.Label + "=" + a.Value
			}
			out = append(out, s)
		case tok == Text:
			out = append(out, "'"+string(r.Text())+"'")
		case tok == End:
			out = append(out, ">")
		}
	}
}

func TestReaderTokens(t *testing.T) {
	for doc, want := range map[string]string{
		"<a/>":                                "<a >",
		"<?xml version='1.0'?>\n<a></a>tail<": "<a >",
		"<a>x</a>":                            "<a 'x' >",
		"<a> <b/> </a>":                       "<a ' ' <b > ' ' >",
		"<p:a k='v' p:k='w' xmlns:p='urn:p'><b>1</b>t<c/></p:a>": "<a @k=v @urn:p:k=w @p=urn:p <b '1' > 't' <c > >",
		// one run of text, whatever interrupts it
		"<a>x<!-- c -->y<?pi?>z<![CDATA[<&>]]>&amp;\r\n</a>": "<a 'xyz<&>&\n' >",
		"<a><!-- c --></a>":   "<a >",
		"<a>&lt;<b/>&gt;</a>": "<a '<' <b > '>' >",
		// errors come where the scan meets them
		"<a><b>x</c></a>": "<a <b 'x' !element <b> closed by </c>",
		"<a>x":            "<a !element <a> is not closed",
		"<a>&bogus;</a>":  "<a !invalid character or entity reference \"&bogus;\"",
		"":                "!no root element",
		// the declared encoding is the first encoding= a quote follows
		"<?xml version=\"1.0\" xencoding=x encoding=\"ISO-8859-1\"?><a>caf\xe9</a>": "!declared encoding is not UTF-8",
		"<?xml version='1.0' xencoding='utf-8' encoding='utf-8'?><a/>":              "<a >",
	} {
		if got := tokens(doc); got != want {
			t.Errorf("tokens(%q)\n got %s\nwant %s", doc, got, want)
		}
	}
}

func TestReaderHelpers(t *testing.T) {
	r := NewReader([]byte("<r><skip><x>1</x>2</skip>t<other><leaf>deep</leaf></other><leaf> a </leaf><mixed>b<i>c</i>d</mixed><none/>tail</r>"))
	defer r.Release()
	if _, err := r.Next(); err != nil || string(r.Name()) != "r" {
		t.Fatalf("root: %q, %v", r.Name(), err)
	}
	if name, err := r.Find("skip"); err != nil || name != "skip" {
		t.Fatalf("Find = %q, %v", name, err)
	}
	if err := r.Skip(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		name, text string
		leaf       bool
	}{{"leaf", " a ", true}, {"mixed", "bd", false}, {"none", "", true}} {
		// Past <other> and the <leaf> inside it, which is no child of <r>.
		name, err := r.Find("none", "mixed", "leaf")
		if err != nil || name != want.name {
			t.Fatalf("Find = %q, %v, want %q", name, err, want.name)
		}
		text, leaf, err := r.Content()
		if err != nil || string(text) != want.text || leaf != want.leaf {
			t.Errorf("Content of <%s> = %q, %v, %v, want %q, %v", want.name, text, leaf, err, want.text, want.leaf)
		}
	}
	if name, err := r.Find("leaf"); err != nil || name != "" {
		t.Errorf("Find at the end of <r> = %q, %v", name, err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("Next after the root element: %v, want io.EOF", err)
	}
	if a, b := r.Intern([]byte("value")), r.Intern([]byte("not-a-known-label")); a != "value" || b != "not-a-known-label" {
		t.Errorf("Intern = %q, %q", a, b)
	}
}

// TestReaderAttrName: an attribute's name is what follows its prefix,
// whatever the prefix is bound to, and all of a name that has no prefix
// to cut — the local name encoding/xml gives it.
func TestReaderAttrName(t *testing.T) {
	r := NewReader([]byte(`<p:a k='v' p:k='w' xmlns:p='urn:p' q:k='u' xml:k='x' x:y:z='1' :c='2' d:='3'/>`))
	defer r.Release()
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for i, a := range r.Attrs() {
		got = append(got, a.Label+"="+string(r.AttrName(i)))
	}
	want := "@k=k @urn:p:k=k @p=p @q:k=k @" + xmlNamespace + ":k=k @x:y:z=x:y:z @:c=:c @d:=d:"
	if s := strings.Join(got, " "); s != want {
		t.Errorf("labels and names\n got %s\nwant %s", s, want)
	}
}

// TestReaderAttrAccessors: AttrLabel and AttrValue read, one by one, the
// attributes Attrs lists, whichever is asked first.
func TestReaderAttrAccessors(t *testing.T) {
	for _, doc := range seeds {
		for _, first := range []bool{true, false} {
			r := NewReader([]byte(doc))
			for {
				tok, err := r.Next()
				if err != nil {
					break
				}
				if tok != Start {
					continue
				}
				var got []Attr
				if first {
					got = slices.Clone(r.Attrs())
				}
				for i := 0; i < r.NumAttr(); i++ {
					label := r.AttrLabel(i)
					got = append(got, Attr{label, string(r.AttrValue(i))})
				}
				if !first {
					got = append(got, r.Attrs()...)
				}
				n := len(got) / 2
				if len(got) != 2*r.NumAttr() || !slices.Equal(got[:n], got[n:]) {
					t.Errorf("%s: <%s> Attrs and the accessors read %v", doc, r.Name(), got)
				}
			}
			r.Release()
		}
	}
}

// TestReaderDepthBound: the Reader holds the depth bound for whoever
// consumes it, recursing or skipping.
func TestReaderDepthBound(t *testing.T) {
	r := NewReader(bytes.Repeat([]byte("<a>"), 5<<20))
	defer r.Release()
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if err := r.Skip(); !errors.Is(err, ErrTooDeep) || !errors.Is(err, ErrMalformed) {
		t.Fatalf("Skip over 15 MiB of <a>: err = %v, want ErrTooDeep wrapping ErrMalformed", err)
	}
}

// TestReaderAllocBudget: tokens cost nothing. Reading a document to its
// end allocates the strings of its attributes and no more, and read through
// AttrLabel and AttrValue they cost nothing either: an xmlns:prefix
// declaration's prefix and namespace, which bind as its tag is read, and a
// label the static table does not know are labels, made once by the first
// document that has them.
func TestReaderAllocBudget(t *testing.T) {
	for _, doc := range seeds {
		data := []byte(doc)
		read := func() error {
			r := NewReader(data)
			defer r.Release()
			for {
				tok, err := r.Next()
				if err != nil {
					return err
				}
				for i := 0; tok == Start && i < r.NumAttr(); i++ {
					if r.AttrLabel(i) == "" {
						t.Fatalf("attribute %d of %s has no label", i, doc)
					}
					r.AttrValue(i)
				}
			}
		}
		if read() != io.EOF {
			continue
		}
		allocs := testing.AllocsPerRun(100, func() { read() })
		if !testutil.RaceEnabled && allocs > 0 {
			t.Errorf("reading through AttrLabel and AttrValue allocated %.0f times, %d declarations: %.60s", allocs, strings.Count(doc, "xmlns:"), doc)
		}
	}
	for _, doc := range seeds[:12] {
		data := []byte(doc)
		attrs := 0
		read := func() {
			r := NewReader(data)
			defer r.Release()
			attrs = 0
			for {
				tok, err := r.Next()
				if err == io.EOF {
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if tok == Start {
					attrs += len(r.Attrs())
				}
			}
		}
		allocs := testing.AllocsPerRun(100, read)
		// A value and, for a name the static table does not know or a
		// declaration's prefix, a label: two strings an attribute at most.
		if !testutil.RaceEnabled && int(allocs) > 2*attrs {
			t.Errorf("reading allocated %.0f times for %d attributes: %.60s", allocs, attrs, doc)
		}
	}
}

func ExampleReader() {
	r := NewReader([]byte(`<entry><id>p1</id><content type="image/jpeg"/></entry>`))
	defer r.Release()
	r.Next() // <entry>
	for {
		name, err := r.Find("id", "content")
		if err != nil || name == "" {
			return
		}
		switch name {
		case "id":
			id, _, _ := r.Content()
			fmt.Printf("id %s\n", id)
		default:
			fmt.Printf("%s %v\n", name, r.Attrs())
			r.Skip()
		}
	}
	// Output:
	// id p1
	// content [{@type image/jpeg}]
}

// TestSkipAttrsAllocBudget: an element skipped with its attributes costs
// no string, whether the values need resolving or not and whether the
// static table knows the names or not, and a tag is still checked whole: a
// bad reference in an attribute nobody asks for is malformed all the same.
func TestSkipAttrsAllocBudget(t *testing.T) {
	data := []byte(`<feed xmlns="http://www.w3.org/2005/Atom"><entry><id>p1</id>` +
		`<content type="image/jpeg" src="http://e.org/p1.jpg?a=1&amp;b=2" rel='x&#x41;y'/>` +
		`<link href="http://e.org/p1" rel="alternate"></link></entry></feed>`)
	read := func() {
		r := NewReader(data)
		defer r.Release()
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
		for {
			name, err := r.Find("entry")
			if err != nil {
				t.Fatal(err)
			}
			if name == "" {
				return
			}
			if err := r.Skip(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, read); !testutil.RaceEnabled && allocs != 0 {
		t.Errorf("skipping elements with attributes allocated %.0f times, want 0", allocs)
	}
	for _, doc := range []string{
		`<entry><content src="a&bogus;b"/></entry>`,
		`<entry><content src="a&#xZZ;"/></entry>`,
		`<entry><content src="a & b"/></entry>`,
	} {
		r := NewReader([]byte(doc))
		_, err := r.Next()
		if err == nil {
			err = r.Skip()
		}
		r.Release()
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("skipping %s: err = %v, want ErrMalformed", doc, err)
		}
	}
}

// TestReaderKeepsLabelsAcrossDocuments: a pooled Reader keeps the labels
// it interned for the documents after, so a flow's documents, alike from
// one flow to the next, make a name the static table does not know once,
// not once a document; labels past maxRetainedLabelBytes are forgotten
// when the Reader is released.
func TestReaderKeepsLabelsAcrossDocuments(t *testing.T) {
	doc := []byte(`<PlusResponse><result>42</result><total>1</total></PlusResponse>`)
	var names []string
	read := func(doc []byte) *Reader {
		r := NewReader(doc)
		defer r.Release()
		names = names[:0]
		for {
			tok, err := r.Next()
			if err == io.EOF {
				return r
			}
			if err != nil {
				t.Fatal(err)
			}
			if tok == Start {
				names = append(names, r.Intern(r.Name()))
			}
		}
	}
	read(doc)
	if allocs := testing.AllocsPerRun(100, func() { read(doc) }); !testutil.RaceEnabled && allocs != 0 {
		t.Errorf("reading a document alike to the one before allocated %.0f times, want 0", allocs)
	}
	if strings.Join(names, " ") != "PlusResponse result total" {
		t.Fatalf("interned %q", names)
	}
	long := fmt.Sprintf("<r><%[1]s/></r>", strings.Repeat("n", maxRetainedLabelBytes+1))
	if r := read([]byte(long)); len(r.labels) != 0 || r.held != 0 {
		t.Errorf("a Reader released holding %d bytes of labels kept %d of them", maxRetainedLabelBytes+1, len(r.labels))
	}
	// Many short distinct names over many documents: the Reader forgets
	// them past maxRetainedLabels, and stays pooled.
	for i := 0; i <= 2*maxRetainedLabels; i++ {
		if r := read(fmt.Appendf(nil, "<r><n%d/></r>", i)); len(r.labels) > maxRetainedLabels || r.data != nil {
			t.Fatalf("after document %d a released Reader holds %d labels and its packet", i, len(r.labels))
		}
	}
}

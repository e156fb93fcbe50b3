package rest

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"starlink/internal/message"
)

// seeds are documents the two decoders must agree on, and some on which
// they need not: the bodies of the benchmark workloads, then what the
// walk over a tree and the descent over tokens could tell apart.
var seeds = []string{
	"<?xml version=\"1.0\"?>\n<feed><title>Search Results</title><entry><id>photo-0001</id><title>Tree at dawn #1</title><author><name>alice</name></author><content type=\"image/jpeg\" src=\"http://photos.example/photo-0001.jpg\"/></entry><entry><id>photo-0002</id><title>Tree &amp; sea</title><author><name>bob</name></author><content type=\"image/jpeg\" src=\"http://photos.example/photo-0002.jpg\"/></entry></feed>",
	"<?xml version=\"1.0\"?>\n<feed><title>Comments on photo-0001</title><entry><id>comment-0001</id><title>comment</title><summary>nice shot</summary><author><name>carol</name></author></entry></feed>",
	"<?xml version=\"1.0\"?>\n<entry><id></id><title></title><summary>bench-000042</summary></entry>",
	"<feed/>", "<entry/>", "<feed><entry/><title>late</title><title>later</title></feed>",
	// the summary a <content> stands in for, before and behind a <summary>
	"<entry><content>  raw  </content></entry>", "<entry><content>raw</content><summary>wins</summary></entry>",
	"<entry><summary></summary><content type='text'>  trimmed  </content></entry>",
	"<entry><content><b>x</b> beside <i>y</i> elements </content><content>second</content></entry>",
	"<entry><content type='a' type='b' src='s' xmlns:type='declared'>  </content></entry>",
	"<entry><content x:type='prefixed' xmlns:src='declared'/></entry>",
	// authors: a name, text of their own, both, neither
	"<entry><author>plain</author></entry>", "<entry><author>\n <name>n</name>\n <name>m</name></author><author>second</author></entry>",
	"<entry><author/></entry>",
	// names by local part, elements Atom does not name, entries inside entries
	"<a:feed xmlns:a='urn:atom' xmlns:g='urn:g'><g:id>feed</g:id><a:entry><g:id>first</g:id><a:id>second</a:id><link href='x'/><entry><id>inner</id></entry></a:entry></a:feed>",
	// comments, CDATA and references inside what is read as text
	"<entry><id>a<!-- c -->b<![CDATA[<c>]]>&lt;\r\n</id></entry>",
	// what both refuse
	"<feed><entry><id>x</id></entry>", "<other/>", "<feed><entry><id>&bogus;</id></entry></feed>", "",
	// read differently on purpose: attributes or elements where text is read
	"<feed><title type='text'>Photos</title><entry><title type='html'>A <b>bold</b> one</title><author><uri>u</uri></author></entry></feed>",
	"<entry><author><name given='x'>n</name></author><id><b/></id></entry>",
}

// sameFeed holds ParseFeed against the tree walk: what the walk reads,
// ParseFeed reads the same, unless the document is of the irregular kind.
func sameFeed(t *testing.T, data []byte) {
	t.Helper()
	var o oracle
	want, oracleErr := o.parseFeed(data)
	got, err := ParseFeed(data)
	if err != nil && !errors.Is(err, ErrMalformed) {
		t.Fatalf("ParseFeed(%q): %v does not wrap ErrMalformed", data, err)
	}
	if err == nil {
		// Whatever decoded can be written again.
		if _, err := AppendFeed(nil, got); err != nil {
			t.Fatalf("re-marshal of ParseFeed(%q) failed: %v", data, err)
		}
	}
	if oracleErr != nil || o.irregular {
		return
	}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseFeed(%q)\n got %#v (%v)\nwant %#v", data, got, err, want)
	}
}

func sameEntry(t *testing.T, data []byte) {
	t.Helper()
	var o oracle
	want, oracleErr := o.parseEntry(data)
	got, err := ParseEntry(data)
	if err != nil && !errors.Is(err, ErrMalformed) {
		t.Fatalf("ParseEntry(%q): %v does not wrap ErrMalformed", data, err)
	}
	if oracleErr != nil || o.irregular {
		return
	}
	if err != nil || got != want {
		t.Fatalf("ParseEntry(%q)\n got %#v (%v)\nwant %#v", data, got, err, want)
	}
}

func TestDecodersMatchOracleOnSeeds(t *testing.T) {
	for _, doc := range seeds {
		sameFeed(t, []byte(doc))
		sameEntry(t, []byte(doc))
	}
}

func FuzzParseFeed(f *testing.F) {
	for _, doc := range seeds {
		f.Add([]byte(doc))
	}
	f.Fuzz(sameFeed)
}

func FuzzParseEntry(f *testing.F) {
	for _, doc := range seeds {
		f.Add([]byte(doc))
	}
	f.Fuzz(sameEntry)
}

// fieldSeeds add to seeds what a projected decode skips where the full one
// reads: elements given twice, entries inside entries and inside what is
// read as text, empty elements, an entry that is all attributes, and bad
// references in what one reads and the other skips.
var fieldSeeds = []string{
	"<feed><entry><id>a</id><id>b</id><title>t</title><title>u</title><summary>s</summary><summary>r</summary><content type='x' src='1'/><content src='2'>text</content><author>p</author><author>q</author></entry></feed>",
	"<feed><entry><id>outer</id><entry><id>inner</id></entry><author><name>x</name><entry><id>deep</id></entry></author><title><entry/>t</title></entry><entry/></feed>",
	"<feed><entry><id/><title></title><summary/><author/><content/></entry><entry></entry></feed>",
	"<feed><entry><content type='image/png' src='http://e.example/x.png'/></entry></feed>",
	"<entry><content type='image/png' src='http://e.example/x.png'>  fallback  </content></entry>",
	"<feed><entry><id>x</id><content src='a&bogus;b'/></entry></feed>",
	"<feed><entry><link href='&#xZZ;'/><id>x</id></entry></feed>",
	"<feed><entry><id>x</id><title>&nope;</title></entry></feed>",
	"<entry><id>x</id><summary>a &amp; b</summary><author><name>&lt;n&gt;</name></author><content src='&#65;'/></entry>",
}

// abstractEntry is the mapping the binders made of an Entry before they
// decoded into fields: an "entry" field with id and title, then summary,
// author, src and type where they are not empty.
func abstractEntry(e Entry) *message.Field {
	f := message.NewStruct("entry", message.NewString("id", e.ID), message.NewString("title", e.Title))
	for _, o := range [...]struct{ label, value string }{
		{"summary", e.Summary}, {"author", e.Author}, {"src", e.ContentSrc}, {"type", e.ContentType},
	} {
		if o.value != "" {
			f.Add(message.NewString(o.label, o.value))
		}
	}
	return f
}

// without removes from an entry's field the children keep does not hold.
func without(f *message.Field, keep Keep) *message.Field {
	f.Children = slices.DeleteFunc(f.Children, func(c *message.Field) bool { return KeepLabel(c.Label)&keep == 0 })
	return f
}

// sameFields holds the projected decoders to the full ones: ParseFeedFields
// and ParseEntryFields accept and refuse what ParseFeed and ParseEntry do,
// and what they make is the mapping of the full decode with the children
// keep does not hold removed.
func sameFields(t *testing.T, data []byte, keep Keep) {
	t.Helper()
	feed, wantErr := ParseFeed(data)
	fields, err := ParseFeedFields(new(message.Store), data, keep)
	if (err == nil) != (wantErr == nil) || err != nil && !errors.Is(err, ErrMalformed) {
		t.Fatalf("ParseFeedFields(%q, %06b): %v, ParseFeed: %v", data, keep, err, wantErr)
	}
	if err == nil {
		if len(fields) != len(feed.Entries) {
			t.Fatalf("ParseFeedFields(%q, %06b): %d entries, ParseFeed %d", data, keep, len(fields), len(feed.Entries))
		}
		for i, e := range feed.Entries {
			if want := without(abstractEntry(e), keep); !fields[i].Equal(want) {
				t.Fatalf("ParseFeedFields(%q, %06b): entry %d is %v, want %v", data, keep, i,
					message.New("", fields[i]), message.New("", want))
			}
		}
	}
	entry, wantErr := ParseEntry(data)
	field, err := ParseEntryFields(new(message.Store), data, keep)
	if (err == nil) != (wantErr == nil) || err != nil && !errors.Is(err, ErrMalformed) {
		t.Fatalf("ParseEntryFields(%q, %06b): %v, ParseEntry: %v", data, keep, err, wantErr)
	}
	if want := without(abstractEntry(entry), keep); err == nil && !field.Equal(want) {
		t.Fatalf("ParseEntryFields(%q, %06b) = %v, want %v", data, keep, message.New("", field), message.New("", want))
	}
}

// TestFieldDecodersMatchFullOnSeeds runs sameFields over every seed with
// every keep.
func TestFieldDecodersMatchFullOnSeeds(t *testing.T) {
	for _, doc := range append(slices.Clone(seeds), fieldSeeds...) {
		for keep := Keep(0); keep <= KeepAll; keep++ {
			sameFields(t, []byte(doc), keep)
		}
	}
}

func FuzzParseFields(f *testing.F) {
	for i, doc := range append(slices.Clone(seeds), fieldSeeds...) {
		f.Add([]byte(doc), uint8(i)*37)
	}
	f.Fuzz(func(t *testing.T, data []byte, keep uint8) {
		sameFields(t, data, Keep(keep)&KeepAll)
	})
}

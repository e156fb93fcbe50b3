package rest

import (
	"errors"
	"reflect"
	"testing"
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

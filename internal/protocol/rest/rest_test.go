package rest

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"starlink/internal/mdl/xmlenc"
	"starlink/internal/protocol/httpwire"
)

func sampleFeed() Feed {
	return Feed{
		Title: "Search Results",
		Entries: []Entry{
			{ID: "p1", Title: "tree", ContentType: "image/jpeg", ContentSrc: "http://x/1.jpg"},
			{ID: "p2", Title: "oak & ash", ContentType: "image/jpeg", ContentSrc: "http://x/2.jpg"},
		},
	}
}

func TestFeedRoundTrip(t *testing.T) {
	data, err := AppendFeed(nil, sampleFeed())
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseFeed(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Title != "Search Results" || len(got.Entries) != 2 {
		t.Fatalf("feed = %+v", got)
	}
	if got.Entries[1].Title != "oak & ash" {
		t.Errorf("escaping broken: %q", got.Entries[1].Title)
	}
	if got.Entries[0].ContentSrc != "http://x/1.jpg" {
		t.Errorf("content src = %q", got.Entries[0].ContentSrc)
	}
}

func TestEntryRoundTrip(t *testing.T) {
	e := Entry{ID: "c1", Title: "comment", Summary: "lovely <photo>", Author: "alice"}
	data, err := AppendEntry(nil, e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Errorf("entry = %+v, want %+v", got, e)
	}
}

func TestCommentEntryWithTextContent(t *testing.T) {
	raw := `<entry><id>c9</id><title>t</title><content>inline comment</content></entry>`
	got, err := ParseEntry([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.Summary != "inline comment" {
		t.Errorf("summary = %q", got.Summary)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := ParseFeed([]byte("<entry/>")); !errors.Is(err, ErrMalformed) {
		t.Errorf("feed err = %v", err)
	}
	if _, err := ParseFeed([]byte("garbage")); !errors.Is(err, ErrMalformed) {
		t.Errorf("feed err = %v", err)
	}
	if _, err := ParseEntry([]byte("<feed/>")); !errors.Is(err, ErrMalformed) {
		t.Errorf("entry err = %v", err)
	}
}

func TestPhotoPathRoundTrip(t *testing.T) {
	p := PhotoPath("p 1/x")
	id, ok := ParsePhotoPath(p)
	if !ok || id != "p 1/x" {
		t.Errorf("round trip = %q, %v (path %q)", id, ok, p)
	}
	for _, bad := range []string{"/other", BasePath + "/photoid/", BasePath + "/photoid/a/b"} {
		if _, ok := ParsePhotoPath(bad); ok {
			t.Errorf("ParsePhotoPath(%q) accepted", bad)
		}
	}
}

// fakePicasa emulates enough of the Picasa routes for client tests.
func fakePicasa(t *testing.T) *httpwire.Server {
	t.Helper()
	srv, err := httpwire.Serve("127.0.0.1:0", func(req *httpwire.Request) *httpwire.Response {
		switch {
		case req.Method == "GET" && req.Path() == BasePath+"/all":
			if req.QueryValue("q") == "" {
				return &httpwire.Response{Status: 400}
			}
			body, _ := AppendFeed(nil, sampleFeed())
			return &httpwire.Response{Status: 200, Body: body}
		case req.Method == "GET" && strings.HasPrefix(req.Path(), BasePath+"/photoid/"):
			if req.QueryValue("kind") != "comment" {
				return &httpwire.Response{Status: 400}
			}
			body, _ := AppendFeed(nil, Feed{Title: "comments", Entries: []Entry{{ID: "c1", Summary: "nice"}}})
			return &httpwire.Response{Status: 200, Body: body}
		case req.Method == "POST" && strings.HasPrefix(req.Path(), BasePath+"/photoid/"):
			e, err := ParseEntry(req.Body)
			if err != nil {
				return &httpwire.Response{Status: 400}
			}
			e.ID = "c2"
			body, _ := AppendEntry(nil, e)
			return &httpwire.Response{Status: 201, Body: body}
		default:
			return &httpwire.Response{Status: 404}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestClientSearchCommentsAdd(t *testing.T) {
	srv := fakePicasa(t)
	c := NewClient(srv.Addr())
	defer c.Close()

	feed, err := c.Search("tree", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(feed.Entries) != 2 || feed.Entries[0].ID != "p1" {
		t.Errorf("search feed = %+v", feed)
	}

	comments, err := c.Comments("p1")
	if err != nil {
		t.Fatal(err)
	}
	if len(comments.Entries) != 1 || comments.Entries[0].Summary != "nice" {
		t.Errorf("comments = %+v", comments)
	}

	added, err := c.AddComment("p1", "great shot")
	if err != nil {
		t.Fatal(err)
	}
	if added.ID != "c2" || added.Summary != "great shot" {
		t.Errorf("added = %+v", added)
	}
}

func TestClientErrorStatus(t *testing.T) {
	srv := fakePicasa(t)
	c := NewClient(srv.Addr())
	defer c.Close()
	if _, err := c.Search("", 0); !errors.Is(err, ErrHTTPStatus) {
		t.Errorf("empty query err = %v", err)
	}
}

func BenchmarkAppendFeed(b *testing.B) {
	f := sampleFeed()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AppendFeed(nil, f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseFeed(b *testing.B) {
	data, _ := AppendFeed(nil, sampleFeed())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseFeed(data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDepthBound: an entry inside an entry is skipped, not decoded, but the
// Reader counts its levels all the same — five million of them, inside the
// frame limit, are refused and not walked into.
func TestDepthBound(t *testing.T) {
	for name, parse := range map[string]func([]byte) error{
		"feed":  func(data []byte) error { _, err := ParseFeed(append([]byte("<feed>"), data...)); return err },
		"entry": func(data []byte) error { _, err := ParseEntry(data); return err },
	} {
		err := parse([]byte(strings.Repeat("<entry>", 5<<20/2)))
		if !errors.Is(err, xmlenc.ErrTooDeep) || !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: 17 MiB of nested <entry>: err = %v, want xmlenc.ErrTooDeep wrapped in ErrMalformed", name, err)
		}
	}
	deepest := strings.Repeat("<entry>", xmlenc.MaxDepth-1) + "<id>x</id>" + strings.Repeat("</entry>", xmlenc.MaxDepth-1)
	if e, err := ParseEntry([]byte(deepest)); err != nil || e.ID != "" {
		t.Errorf("MaxDepth levels, an <id> in the innermost entry: %+v, %v", e, err)
	}
	if _, err := ParseEntry([]byte("<entry>" + deepest + "</entry>")); !errors.Is(err, xmlenc.ErrTooDeep) {
		t.Errorf("MaxDepth+1 levels: err = %v", err)
	}
}

// TestEntryReadsOwnText is where the token decoder parts from the tree
// walk on purpose: an element read for its text may carry attributes, as
// Atom's text constructs do, and is read all the same.
func TestEntryReadsOwnText(t *testing.T) {
	e, err := ParseEntry([]byte(`<entry><title type="text">Photo</title><summary type="html">a <b>bold</b> one</summary>` +
		`<author><name>ann</name><uri>http://x/ann</uri></author></entry>`))
	if want := (Entry{Title: "Photo", Summary: "a  one", Author: "ann"}); err != nil || e != want {
		t.Errorf("ParseEntry = %+v, %v, want %+v", e, err, want)
	}
}

// TestParseFeedConcurrent: the list a feed's entries are collected on is
// pooled; feeds parsed at once, of different lengths, each come back whole
// and their own.
func TestParseFeedConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			want := Feed{Title: fmt.Sprintf("feed %d", g)}
			for i := 0; i <= g*7; i++ {
				want.Entries = append(want.Entries, Entry{ID: fmt.Sprintf("g%d-e%d", g, i), Title: "t"})
			}
			wire, err := AppendFeed(nil, want)
			if err != nil {
				t.Error(err)
				return
			}
			for n := 0; n < 200; n++ {
				got, err := ParseFeed(wire)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d: parsed %d entries, %v; want its own %d", g, len(got.Entries), err, len(want.Entries))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

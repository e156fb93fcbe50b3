// Package rest implements the GData-style RESTful protocol the Picasa
// service exposes (Section 2.1): Atom feeds over plain HTTP, with the
// query conventions of Fig. 1 (GET BaseURL/all?q=tree&max-results=3,
// GET PhotoURL?kind=comment, POST PhotoURL with an <entry>).
package rest

import (
	"bytes"
	"errors"
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"starlink/internal/mdl/xmlenc"
	"starlink/internal/protocol/httpwire"
)

// BasePath is the feed root, mirroring the Picasa base URL of Fig. 1.
const BasePath = "/data/feed/api"

// Errors reported by the REST layer.
var (
	// ErrMalformed is wrapped by all feed decode failures.
	ErrMalformed = errors.New("rest: malformed feed")
	// ErrHTTPStatus is wrapped when the service answers non-2xx.
	ErrHTTPStatus = errors.New("rest: unexpected HTTP status")
)

// Entry is one Atom/GData entry: a photo or a comment.
type Entry struct {
	// ID is the entry identifier.
	ID string
	// Title is the display title.
	Title string
	// Summary carries comment text.
	Summary string
	// Author is the author name.
	Author string
	// ContentType and ContentSrc describe the media content element.
	ContentType string
	ContentSrc  string
}

// Feed is an Atom/GData feed.
type Feed struct {
	// Title is the feed title.
	Title string
	// Entries are the feed's entries in order.
	Entries []Entry
}

// Len reports the number of entries.
func (f Feed) Len() int { return len(f.Entries) }

func writeEntry(w *xmlenc.Writer, e Entry) {
	w.Open("entry")
	w.Leaf("id", e.ID)
	w.Leaf("title", e.Title)
	if e.Summary != "" {
		w.Leaf("summary", e.Summary)
	}
	if e.Author != "" {
		w.Open("author")
		w.Leaf("name", e.Author)
		w.Close()
	}
	if e.ContentSrc != "" || e.ContentType != "" {
		w.Open("content")
		w.Attr("type", e.ContentType)
		w.Attr("src", e.ContentSrc)
		w.Close()
	}
	w.Close()
}

// AppendFeed appends an Atom feed document to dst.
func AppendFeed(dst []byte, f Feed) ([]byte, error) {
	w := xmlenc.NewDoc()
	w.Open("feed")
	w.Leaf("title", f.Title)
	for _, e := range f.Entries {
		writeEntry(w, e)
	}
	w.Close()
	return w.AppendTo(dst)
}

// AppendEntry appends one standalone entry document (the POST body for
// addComment) to dst.
func AppendEntry(dst []byte, e Entry) ([]byte, error) {
	w := xmlenc.NewDoc()
	writeEntry(w, e)
	return w.AppendTo(dst)
}

// malformed makes a decode failure this package's: what the Reader
// reports is wrapped, what the decoder found wrong itself already is.
func malformed(err error) error {
	if err == nil || errors.Is(err, ErrMalformed) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrMalformed, err)
}

// root reads the root element's start tag, which must be named want.
func root(r *xmlenc.Reader, want string) error {
	if _, err := r.Next(); err != nil {
		return err
	}
	if name := r.Name(); string(name) != want {
		return fmt.Errorf("%w: root %q", ErrMalformed, name)
	}
	return nil
}

// ParseFeed decodes an Atom feed document: its first <title> and every
// <entry>, by local name, whatever else it holds skipped.
func ParseFeed(data []byte) (Feed, error) {
	r := xmlenc.NewReader(data)
	defer r.Release()
	f, err := readFeed(r)
	if err != nil {
		return Feed{}, malformed(err)
	}
	return f, nil
}

// ParseEntry decodes a standalone entry document.
func ParseEntry(data []byte) (Entry, error) {
	r := xmlenc.NewReader(data)
	defer r.Release()
	err := root(r, "entry")
	if err == nil {
		var e Entry
		if e, err = readEntry(r); err == nil {
			return e, nil
		}
	}
	return Entry{}, malformed(err)
}

// entryLists pools the lists readFeed collects a feed's entries on, so that
// Feed.Entries is allocated once, at its size, when the feed has been read
// (as the XML-RPC decoder's stacks do for arrays and structs). A list that
// one large feed has grown past maxRetainedEntries is not pooled again.
var entryLists = sync.Pool{New: func() any { return new([]Entry) }}

const maxRetainedEntries = 1024

// readFeed reads a feed document.
func readFeed(r *xmlenc.Reader) (Feed, error) {
	var f Feed
	if err := root(r, "feed"); err != nil {
		return f, err
	}
	list := entryLists.Get().(*[]Entry)
	entries := (*list)[:0]
	defer func() {
		// The strings are the feed's: nothing pooled may pin them.
		clear(entries)
		if cap(entries) <= maxRetainedEntries {
			*list = entries[:0]
			entryLists.Put(list)
		}
	}()
	titled := false
	for {
		name, err := r.Find("title", "entry")
		switch {
		case err != nil:
			return f, err
		case name == "":
			if len(entries) > 0 {
				f.Entries = append(make([]Entry, 0, len(entries)), entries...)
			}
			return f, nil
		case name == "entry":
			e, err := readEntry(r)
			if err != nil {
				return f, err
			}
			entries = append(entries, e)
		case !titled:
			titled = true
			f.Title, err = text(r)
		default:
			err = r.Skip()
		}
		if err != nil {
			return f, err
		}
	}
}

// text reads the open element to its end: its character data.
func text(r *xmlenc.Reader) (string, error) {
	b, _, err := r.Content()
	return string(b), err
}

// readEntry reads the open <entry> to its end. Of each element it knows
// the first counts; the others, and a nested <entry>, are skipped.
func readEntry(r *xmlenc.Reader) (Entry, error) {
	var e Entry
	// fallback is what <content> offers as the summary when there is no
	// <summary>, or an empty one, wherever in the entry that stands.
	var fallback string
	var id, title, summary, author, content bool
	for {
		name, err := r.Find("id", "title", "summary", "author", "content")
		switch {
		case err != nil:
			return Entry{}, err
		case name == "":
			if e.Summary == "" {
				e.Summary = fallback
			}
			return e, nil
		case name == "id" && !id:
			id = true
			e.ID, err = text(r)
		case name == "title" && !title:
			title = true
			e.Title, err = text(r)
		case name == "summary" && !summary:
			summary = true
			e.Summary, err = text(r)
		case name == "author" && !author:
			author = true
			e.Author, err = readAuthor(r)
		case name == "content" && !content:
			content = true
			fallback, err = readContent(r, &e)
		default:
			err = r.Skip()
		}
		if err != nil {
			return Entry{}, err
		}
	}
}

// readContent reads the open <content> to its end: its first type and src
// attributes into e, and its text, which is returned.
func readContent(r *xmlenc.Reader, e *Entry) (string, error) {
	var typed, sourced bool
	attrs := r.Attrs()
	for _, a := range attrs {
		switch {
		case a.Label == "@type" && !typed:
			typed, e.ContentType = true, a.Value
		case a.Label == "@src" && !sourced:
			sourced, e.ContentSrc = true, a.Value
		}
	}
	bare := len(attrs) == 0
	text, leaf, err := r.Content()
	if !bare || !leaf {
		// Text beside attributes or elements counts trimmed.
		text = bytes.TrimSpace(text)
	}
	return string(text), err
}

// readAuthor reads the open <author> to its end: the text of its first
// <name>, or, when it holds none, its own.
func readAuthor(r *xmlenc.Reader) (string, error) {
	// Its own text is mostly the white space around <name>: room for that
	// on the stack.
	var buf [64]byte
	own := buf[:0]
	var name string
	named := false
	for {
		switch tok, err := r.Next(); {
		case err != nil:
			return "", err
		case tok == xmlenc.Text:
			own = append(own, r.Text()...)
		case tok == xmlenc.End:
			if named {
				return name, nil
			}
			return string(own), nil
		case string(r.Name()) == "name" && !named:
			named = true
			if name, err = text(r); err != nil {
				return "", err
			}
		default:
			if err := r.Skip(); err != nil {
				return "", err
			}
		}
	}
}

// Client is a GData client bound to one service address.
type Client struct {
	http *httpwire.Client
}

// NewClient targets addr ("host:port").
func NewClient(addr string) *Client {
	return &Client{http: &httpwire.Client{Addr: addr}}
}

// Search performs the public keyword search of Fig. 1:
// GET /data/feed/api/all?q=<q>&max-results=<n>.
func (c *Client) Search(q string, maxResults int) (Feed, error) {
	target := BasePath + "/all?q=" + url.QueryEscape(q)
	if maxResults > 0 {
		target += "&max-results=" + strconv.Itoa(maxResults)
	}
	resp, err := c.http.Get(target)
	if err != nil {
		return Feed{}, err
	}
	if resp.Status != 200 {
		return Feed{}, fmt.Errorf("%w: %d", ErrHTTPStatus, resp.Status)
	}
	return ParseFeed(resp.Body)
}

// Comments lists a photo's comments: GET PhotoURL?kind=comment.
func (c *Client) Comments(photoID string) (Feed, error) {
	resp, err := c.http.Get(BasePath + "/photoid/" + url.PathEscape(photoID) + "?kind=comment")
	if err != nil {
		return Feed{}, err
	}
	if resp.Status != 200 {
		return Feed{}, fmt.Errorf("%w: %d", ErrHTTPStatus, resp.Status)
	}
	return ParseFeed(resp.Body)
}

// AddComment posts a comment entry: POST PhotoURL with <entry>.
func (c *Client) AddComment(photoID, text string) (Entry, error) {
	body, err := AppendEntry(nil, Entry{Summary: text})
	if err != nil {
		return Entry{}, err
	}
	resp, err := c.http.Post(BasePath+"/photoid/"+url.PathEscape(photoID), "application/atom+xml", body)
	if err != nil {
		return Entry{}, err
	}
	if resp.Status != 200 && resp.Status != 201 {
		return Entry{}, fmt.Errorf("%w: %d", ErrHTTPStatus, resp.Status)
	}
	return ParseEntry(resp.Body)
}

// Close releases the client connection.
func (c *Client) Close() error { return c.http.Close() }

// PhotoPath returns the photo resource path for an id.
func PhotoPath(photoID string) string {
	return BasePath + "/photoid/" + url.PathEscape(photoID)
}

// ParsePhotoPath extracts the photo id from a photo resource path.
func ParsePhotoPath(path string) (string, bool) {
	rest, ok := strings.CutPrefix(path, BasePath+"/photoid/")
	if !ok || rest == "" || strings.Contains(rest, "/") {
		return "", false
	}
	id, err := url.PathUnescape(rest)
	if err != nil {
		return "", false
	}
	return id, true
}

// Package rest implements the GData-style RESTful protocol the Picasa
// service exposes (Section 2.1): Atom feeds over plain HTTP, with the
// query conventions of Fig. 1 (GET BaseURL/all?q=tree&max-results=3,
// GET PhotoURL?kind=comment, POST PhotoURL with an <entry>).
package rest

import (
	"errors"
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"starlink/internal/mdl/xmlenc"
	"starlink/internal/message"
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

// MarshalFeed renders an Atom feed document.
func MarshalFeed(f Feed) ([]byte, error) {
	w := xmlenc.NewDoc()
	w.Open("feed")
	w.Leaf("title", f.Title)
	for _, e := range f.Entries {
		writeEntry(w, e)
	}
	w.Close()
	return w.Doc()
}

// MarshalEntry renders one standalone entry document (the POST body for
// addComment).
func MarshalEntry(e Entry) ([]byte, error) {
	w := xmlenc.NewDoc()
	writeEntry(w, e)
	return w.Doc()
}

func entryFromField(f *message.Field) Entry {
	var e Entry
	if c := f.Child("id"); c != nil {
		e.ID = c.ValueString()
	}
	if c := f.Child("title"); c != nil {
		e.Title = c.ValueString()
	}
	if c := f.Child("summary"); c != nil {
		e.Summary = c.ValueString()
	}
	if a := f.Child("author"); a != nil {
		if n := a.Child("name"); n != nil {
			e.Author = n.ValueString()
		} else {
			e.Author = a.ValueString()
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

// ParseFeed decodes an Atom feed document.
func ParseFeed(data []byte) (Feed, error) {
	root, err := xmlenc.DecodeTree(data)
	if err != nil {
		return Feed{}, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if root.Label != "feed" {
		return Feed{}, fmt.Errorf("%w: root %q", ErrMalformed, root.Label)
	}
	var f Feed
	if t := root.Child("title"); t != nil {
		f.Title = t.ValueString()
	}
	for _, c := range root.Children {
		if c.Label == "entry" {
			f.Entries = append(f.Entries, entryFromField(c))
		}
	}
	return f, nil
}

// ParseEntry decodes a standalone entry document.
func ParseEntry(data []byte) (Entry, error) {
	root, err := xmlenc.DecodeTree(data)
	if err != nil {
		return Entry{}, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if root.Label != "entry" {
		return Entry{}, fmt.Errorf("%w: root %q", ErrMalformed, root.Label)
	}
	return entryFromField(root), nil
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
	body, err := MarshalEntry(Entry{Summary: text})
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

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
	"slices"
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

// texts pools the lists the decoders collect a document's entries on, so
// that what they make of them — Feed.Entries, or the fields — is allocated
// once, at its size, when the document has been read (as the XML-RPC
// decoder's stacks do for arrays and structs). A list that one large feed
// has grown past maxRetainedEntries is not pooled again.
var texts = sync.Pool{New: func() any { return new([]entryText) }}

const maxRetainedEntries = 1024

// entryText is what one entry holds of each child of its abstract field, by
// the child's index in entryLabels: "" for one it does not have.
type entryText [len(entryLabels)]string

// putTexts gives a list back to texts, emptied.
func putTexts(list *[]entryText) {
	// The strings are the document's: nothing pooled may pin them.
	clear(*list)
	if cap(*list) <= maxRetainedEntries {
		*list = (*list)[:0]
		texts.Put(list)
	}
}

// collect reads a document whose root is want onto tape: the <entry>
// children of a feed, or the root <entry> itself. Of each entry it reads
// what keep holds, and skips the rest. With title set, a feed's first
// <title> goes there.
func collect(data []byte, want string, keep Keep, title *string, tape *[]entryText) error {
	r := xmlenc.NewReader(data)
	defer r.Release()
	if err := root(r, want); err != nil {
		return malformed(err)
	}
	if want == "entry" {
		e, err := readEntry(r, keep)
		*tape = append(*tape, e)
		return malformed(err)
	}
	titled := title == nil
	for {
		name, err := r.Find("title", "entry")
		switch {
		case err != nil || name == "":
			return malformed(err)
		case name == "entry":
			var e entryText
			if e, err = readEntry(r, keep); err == nil {
				*tape = append(*tape, e)
			}
		case !titled:
			titled = true
			*title, err = text(r)
		default:
			err = r.Skip()
		}
		if err != nil {
			return malformed(err)
		}
	}
}

// ParseFeed decodes an Atom feed document: its first <title> and every
// <entry>, by local name, whatever else it holds skipped.
func ParseFeed(data []byte) (Feed, error) {
	var f Feed
	tape := texts.Get().(*[]entryText)
	defer putTexts(tape)
	if err := collect(data, "feed", KeepAll, &f.Title, tape); err != nil {
		return Feed{}, err
	}
	if len(*tape) > 0 {
		f.Entries = make([]Entry, len(*tape))
		for i := range *tape {
			f.Entries[i] = (*tape)[i].entry()
		}
	}
	return f, nil
}

// ParseEntry decodes a standalone entry document.
func ParseEntry(data []byte) (Entry, error) {
	var tape [1]entryText
	list := tape[:0]
	if err := collect(data, "entry", KeepAll, nil, &list); err != nil {
		return Entry{}, err
	}
	return list[0].entry(), nil
}

// entry is the Entry of an entry's texts.
func (e *entryText) entry() Entry {
	return Entry{ID: e[cID], Title: e[cTitle], Summary: e[cSummary], Author: e[cAuthor],
		ContentSrc: e[cSrc], ContentType: e[cType]}
}

// text reads the open element to its end: its character data.
func text(r *xmlenc.Reader) (string, error) {
	b, _, err := r.Content()
	return string(b), err
}

// readEntry reads the open <entry> to its end: of each element it knows the
// first, when keep holds a child it is read for, is read, and the rest, a
// nested <entry> among them, skipped. Skipping reads every token that
// reading does, so what keep leaves out changes nothing of what is refused.
func readEntry(r *xmlenc.Reader, keep Keep) (entryText, error) {
	var e entryText
	// fallback is what <content> offers as the summary when there is no
	// <summary>, or an empty one, wherever in the entry that stands.
	var fallback string
	var seen [len(entryLabels)]bool
	for {
		name, err := r.Find("id", "title", "summary", "author", "content")
		switch {
		case err != nil:
			return entryText{}, err
		case name == "":
			if e[cSummary] == "" {
				e[cSummary] = fallback
			}
			return e, nil
		}
		// <content> is marked seen at src.
		i, wanted := cSrc, keep&contentKeep != 0
		if name != "content" {
			i = slices.Index(entryLabels[:], name)
			wanted = keep.has(i)
		}
		first := !seen[i]
		seen[i] = true
		switch {
		case !first || !wanted:
			err = r.Skip()
		case i == cAuthor:
			e[i], err = readAuthor(r)
		case name == "content":
			fallback, err = readContent(r, &e, keep)
		default:
			e[i], err = text(r)
		}
		if err != nil {
			return entryText{}, err
		}
	}
}

// readContent reads the open <content> to its end: its first type and src
// attributes into e, where keep holds them, and its text, which is
// returned where keep holds the summary it stands in for.
func readContent(r *xmlenc.Reader, e *entryText, keep Keep) (string, error) {
	var typed, sourced bool
	attrs := r.Attrs()
	for _, a := range attrs {
		switch {
		case a.Label == "@type" && !typed:
			typed = true
			if keep.has(cType) {
				e[cType] = a.Value
			}
		case a.Label == "@src" && !sourced:
			sourced = true
			if keep.has(cSrc) {
				e[cSrc] = a.Value
			}
		}
	}
	if !keep.has(cSummary) {
		return "", r.Skip()
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

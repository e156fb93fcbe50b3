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
	"starlink/internal/protocol/bufpool"
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

// tapes pools where the decoders collect a document. Each text they keep
// is copied onto one byte buffer and recorded as its span, so that what
// they make of the document — Feed.Entries, or the fields — is allocated
// once, at its size, when the document has been read, with one string of
// the buffer that every text is a piece of. A tape that one large document
// has grown past maxRetainedEntries entries or bufpool.MaxRetain bytes is
// not pooled again.
var tapes = sync.Pool{New: func() any { return new(tape) }}

const maxRetainedEntries = 1024

// tape is a document's kept text, buf, and its entries; title is a feed's.
// Nothing on it points into a packet or a string, so nothing pooled pins
// one.
type tape struct {
	buf     []byte
	entries []entryText
	title   span
}

// entryText is where each child of an entry's abstract field stands on the
// tape, by the child's index in entryLabels: empty for one it does not have.
type entryText [len(entryLabels)]span

// span is where a kept text stands in a tape's buf.
type span struct{ from, to int }

// release gives the tape back to tapes, emptied.
func (t *tape) release() {
	if cap(t.entries) <= maxRetainedEntries && cap(t.buf) <= bufpool.MaxRetain {
		*t = tape{buf: t.buf[:0], entries: t.entries[:0]}
		tapes.Put(t)
	}
}

// keep copies b onto the tape and returns where it stands.
func (t *tape) keep(b []byte) span {
	t.buf = append(t.buf, b...)
	return span{len(t.buf) - len(b), len(t.buf)}
}

// in is the text at s, of text, the one string of a tape's buf.
func (s span) in(text string) string { return text[s.from:s.to] }

// collect reads a document whose root is want onto t: the <entry> children
// of a feed, or the root <entry> itself. Of each entry it reads what keep
// holds, and skips the rest. With title set, a feed's first <title> is read
// too.
func (t *tape) collect(data []byte, want string, keep Keep, title bool) error {
	r := xmlenc.NewReader(data)
	defer r.Release()
	if err := root(r, want); err != nil {
		return malformed(err)
	}
	if want == "entry" {
		e, err := t.readEntry(r, keep)
		t.entries = append(t.entries, e)
		return malformed(err)
	}
	titled := !title
	for {
		name, err := r.Find("title", "entry")
		switch {
		case err != nil || name == "":
			return malformed(err)
		case name == "entry":
			var e entryText
			if e, err = t.readEntry(r, keep); err == nil {
				t.entries = append(t.entries, e)
			}
		case !titled:
			titled = true
			t.title, err = t.text(r)
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
	t := tapes.Get().(*tape)
	defer t.release()
	if err := t.collect(data, "feed", KeepAll, true); err != nil {
		return Feed{}, err
	}
	text := string(t.buf)
	f := Feed{Title: t.title.in(text)}
	if len(t.entries) > 0 {
		f.Entries = make([]Entry, len(t.entries))
		for i := range t.entries {
			f.Entries[i] = t.entries[i].entry(text)
		}
	}
	return f, nil
}

// ParseEntry decodes a standalone entry document.
func ParseEntry(data []byte) (Entry, error) {
	t := tapes.Get().(*tape)
	defer t.release()
	if err := t.collect(data, "entry", KeepAll, false); err != nil {
		return Entry{}, err
	}
	return t.entries[0].entry(string(t.buf)), nil
}

// entry is the Entry of an entry's texts, pieces of text.
func (e *entryText) entry(text string) Entry {
	return Entry{ID: e[cID].in(text), Title: e[cTitle].in(text), Summary: e[cSummary].in(text),
		Author: e[cAuthor].in(text), ContentSrc: e[cSrc].in(text), ContentType: e[cType].in(text)}
}

// text reads the open element to its end and keeps its character data.
func (t *tape) text(r *xmlenc.Reader) (span, error) {
	b, _, err := r.Content()
	return t.keep(b), err
}

// readEntry reads the open <entry> to its end: of each element it knows the
// first, when keep holds a child it is read for, is read, and the rest, a
// nested <entry> among them, skipped. Skipping reads every token that
// reading does, so what keep leaves out changes nothing of what is refused.
func (t *tape) readEntry(r *xmlenc.Reader, keep Keep) (entryText, error) {
	var e entryText
	// fallback is what <content> offers as the summary when there is no
	// <summary>, or an empty one, wherever in the entry that stands.
	var fallback span
	var seen [len(entryLabels)]bool
	for {
		name, err := r.Find("id", "title", "summary", "author", "content")
		switch {
		case err != nil:
			return entryText{}, err
		case name == "":
			if e[cSummary].from == e[cSummary].to {
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
			e[i], err = t.readAuthor(r)
		case name == "content":
			fallback, err = t.readContent(r, &e, keep)
		default:
			e[i], err = t.text(r)
		}
		if err != nil {
			return entryText{}, err
		}
	}
}

// readContent reads the open <content> to its end: its first type and src
// attributes into e, where keep holds them, and its text, which is kept
// where keep holds the summary it stands in for.
func (t *tape) readContent(r *xmlenc.Reader, e *entryText, keep Keep) (span, error) {
	var typed, sourced bool
	n := r.NumAttr()
	for i := 0; i < n; i++ {
		switch label := r.AttrLabel(i); {
		case label == "@type" && !typed:
			typed = true
			if keep.has(cType) {
				e[cType] = t.keep(r.AttrValue(i))
			}
		case label == "@src" && !sourced:
			sourced = true
			if keep.has(cSrc) {
				e[cSrc] = t.keep(r.AttrValue(i))
			}
		}
	}
	if !keep.has(cSummary) {
		return span{}, r.Skip()
	}
	text, leaf, err := r.Content()
	if n > 0 || !leaf {
		// Text beside attributes or elements counts trimmed.
		text = bytes.TrimSpace(text)
	}
	return t.keep(text), err
}

// readAuthor reads the open <author> to its end and keeps the text of its
// first <name>, or, when it holds none, its own, kept as it is read: with
// no <name>, nothing else goes onto the tape in between.
func (t *tape) readAuthor(r *xmlenc.Reader) (span, error) {
	own, named := len(t.buf), false
	var name span
	for {
		switch tok, err := r.Next(); {
		case err != nil:
			return span{}, err
		case tok == xmlenc.Text:
			t.keep(r.Text())
		case tok == xmlenc.End:
			if named {
				return name, nil
			}
			return span{own, len(t.buf)}, nil
		case string(r.Name()) == "name" && !named:
			named = true
			if name, err = t.text(r); err != nil {
				return span{}, err
			}
		default:
			if err := r.Skip(); err != nil {
				return span{}, err
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

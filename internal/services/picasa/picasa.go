// Package picasa simulates the Picasa Web Albums service of the case
// study: the GData-style REST API of Fig. 1 (keyword search returning an
// Atom feed whose entries carry the photo URL directly, comment listing
// via ?kind=comment, and comment creation by POSTing an <entry>), backed
// by a photostore corpus.
package picasa

import (
	"strconv"
	"strings"
	"time"

	"starlink/internal/protocol/httpwire"
	"starlink/internal/protocol/rest"
	"starlink/internal/services/photostore"
)

// Config names the API's query parameters. The zero value is the v1 API
// of Fig. 1 (q / max-results); the evolution experiment (EXPERIMENTS.md
// E9) uses a v2 with renamed parameters, which Starlink absorbs by
// editing one line of the route model.
type Config struct {
	// SearchParam is the keyword query parameter (default "q").
	SearchParam string
	// LimitParam is the result-limit parameter (default "max-results").
	LimitParam string
	// ProcessingDelay is slept before answering each request. The
	// response-cache experiment (E16) uses it to stand in for a remote
	// service's processing and network time, which the in-process store
	// would otherwise hide.
	ProcessingDelay time.Duration
}

func (c Config) withDefaults() Config {
	if c.SearchParam == "" {
		c.SearchParam = "q"
	}
	if c.LimitParam == "" {
		c.LimitParam = "max-results"
	}
	return c
}

// Service serves the Picasa REST API.
type Service struct {
	store *photostore.Store
	cfg   Config
	http  *httpwire.Server
}

// New starts the v1 service on an ephemeral port over the given store.
func New(store *photostore.Store) (*Service, error) {
	return NewWithConfig(store, Config{})
}

// NewWithConfig starts the service with evolved parameter names.
func NewWithConfig(store *photostore.Store, cfg Config) (*Service, error) {
	s := &Service{store: store, cfg: cfg.withDefaults()}
	hs, err := httpwire.Serve("127.0.0.1:0", s.handle)
	if err != nil {
		return nil, err
	}
	s.http = hs
	return s, nil
}

// Addr returns the service address ("host:port").
func (s *Service) Addr() string { return s.http.Addr() }

// Close stops the server.
func (s *Service) Close() error { return s.http.Close() }

func (s *Service) handle(req *httpwire.Request) *httpwire.Response {
	if s.cfg.ProcessingDelay > 0 {
		time.Sleep(s.cfg.ProcessingDelay)
	}
	switch {
	case req.Method == "GET" && req.Path() == rest.BasePath+"/all":
		return s.search(req)
	case req.Method == "GET" && strings.HasPrefix(req.Path(), rest.BasePath+"/photoid/"):
		return s.comments(req)
	case req.Method == "POST" && strings.HasPrefix(req.Path(), rest.BasePath+"/photoid/"):
		return s.addComment(req)
	default:
		return &httpwire.Response{Status: 404, Body: []byte("unknown resource")}
	}
}

func (s *Service) search(req *httpwire.Request) *httpwire.Response {
	q := req.QueryValue(s.cfg.SearchParam)
	if q == "" {
		return &httpwire.Response{Status: 400, Body: []byte(s.cfg.SearchParam + " parameter required")}
	}
	limit, _ := strconv.Atoi(req.QueryValue(s.cfg.LimitParam))
	photos := s.store.Search(q, limit)
	feed := rest.Feed{Title: "Search Results"}
	for _, p := range photos {
		feed.Entries = append(feed.Entries, rest.Entry{
			ID:          p.ID,
			Title:       p.Title,
			Author:      p.Owner,
			ContentType: "image/jpeg",
			ContentSrc:  p.URL,
		})
	}
	return feedResponse(feed, 200)
}

func (s *Service) comments(req *httpwire.Request) *httpwire.Response {
	id, ok := rest.ParsePhotoPath(req.Path())
	if !ok {
		return &httpwire.Response{Status: 404, Body: []byte("bad photo path")}
	}
	if req.QueryValue("kind") != "comment" {
		return &httpwire.Response{Status: 400, Body: []byte("kind=comment required")}
	}
	comments, err := s.store.Comments(id)
	if err != nil {
		return &httpwire.Response{Status: 404, Body: []byte(err.Error())}
	}
	feed := rest.Feed{Title: "Comments on " + id}
	for _, c := range comments {
		feed.Entries = append(feed.Entries, rest.Entry{
			ID:      c.ID,
			Title:   "comment",
			Author:  c.Author,
			Summary: c.Text,
		})
	}
	return feedResponse(feed, 200)
}

func (s *Service) addComment(req *httpwire.Request) *httpwire.Response {
	id, ok := rest.ParsePhotoPath(req.Path())
	if !ok {
		return &httpwire.Response{Status: 404, Body: []byte("bad photo path")}
	}
	entry, err := rest.ParseEntry(req.Body)
	if err != nil {
		return &httpwire.Response{Status: 400, Body: []byte(err.Error())}
	}
	text := entry.Summary
	if text == "" {
		return &httpwire.Response{Status: 400, Body: []byte("empty comment")}
	}
	author := entry.Author
	if author == "" {
		author = "picasa-user"
	}
	c, err := s.store.AddComment(id, author, text)
	if err != nil {
		return &httpwire.Response{Status: 404, Body: []byte(err.Error())}
	}
	body, err := rest.AppendEntry(nil, rest.Entry{
		ID: c.ID, Title: "comment", Author: c.Author, Summary: c.Text,
	})
	if err != nil {
		return &httpwire.Response{Status: 500, Body: []byte(err.Error())}
	}
	return &httpwire.Response{
		Status:  201,
		Headers: httpwire.Headers{{Name: "Content-Type", Value: "application/atom+xml"}},
		Body:    body,
	}
}

func feedResponse(feed rest.Feed, status int) *httpwire.Response {
	body, err := rest.AppendFeed(nil, feed)
	if err != nil {
		return &httpwire.Response{Status: 500, Body: []byte(err.Error())}
	}
	return &httpwire.Response{
		Status:  status,
		Headers: httpwire.Headers{{Name: "Content-Type", Value: "application/atom+xml"}},
		Body:    body,
	}
}

package httpwire

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestRequestMarshalParseRoundTrip(t *testing.T) {
	req := &Request{
		Method: "POST",
		Target: "/services/xmlrpc?a=1&b=two+words&c=%26",
		Headers: Headers{
			{"Content-Type", "text/xml"},
			{"Host", "flickr.example"},
		},
		Body: []byte("<methodCall/>"),
	}
	back, err := ParseRequest(req.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.Method != "POST" || back.Target != req.Target || back.Proto != "HTTP/1.1" {
		t.Errorf("request line: %+v", back)
	}
	if back.Headers.Get("Content-Type") != "text/xml" {
		t.Errorf("headers: %v", back.Headers)
	}
	if back.Headers.Get("Content-Length") != "13" {
		t.Errorf("content length: %v", back.Headers.Get("Content-Length"))
	}
	if string(back.Body) != "<methodCall/>" {
		t.Errorf("body: %q", back.Body)
	}
	if back.Path() != "/services/xmlrpc" {
		t.Errorf("path: %q", back.Path())
	}
	for k, want := range map[string]string{"a": "1", "b": "two words", "c": "&", "zz": ""} {
		if got := back.QueryValue(k); got != want {
			t.Errorf("QueryValue(%q) = %q, want %q", k, got, want)
		}
	}
}

func TestResponseMarshalParseRoundTrip(t *testing.T) {
	resp := &Response{
		Status:  200,
		Headers: Headers{{"Content-Type", "application/atom+xml"}},
		Body:    []byte("<feed/>"),
	}
	back, err := ParseResponse(resp.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.Status != 200 || back.Reason != "OK" {
		t.Errorf("status: %d %q", back.Status, back.Reason)
	}
	if string(back.Body) != "<feed/>" {
		t.Errorf("body: %q", back.Body)
	}
}

func TestDefaultReasons(t *testing.T) {
	for status, want := range map[int]string{
		200: "OK", 201: "Created", 400: "Bad Request",
		404: "Not Found", 500: "Internal Server Error", 599: "Status",
	} {
		r := Response{Status: status}
		if got, err := ParseResponse(r.Marshal()); err != nil || got.Reason != want {
			t.Errorf("status %d reason = %v (%v)", status, got, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	badRequests := []string{
		"",
		"GET\r\n\r\n",
		"GET /x\r\n\r\n",
		"GET /x NOTHTTP\r\n\r\n",
		"GET /x HTTP/1.1\r\nbroken\r\n\r\n",
		"GET /x HTTP/1.1\r\nHost: a",
	}
	for _, raw := range badRequests {
		if _, err := ParseRequest([]byte(raw)); !errors.Is(err, ErrMalformed) {
			t.Errorf("ParseRequest(%q) err = %v", raw, err)
		}
	}
	badResponses := []string{
		"",
		"HTTP/1.1\r\n\r\n",
		"NOTHTTP 200 OK\r\n\r\n",
		"HTTP/1.1 abc OK\r\n\r\n",
		"HTTP/1.1 200 OK\r\nbroken\r\n\r\n",
		// A status code is three ASCII digits (RFC 9112 §4).
		"HTTP/1.1 +200 OK\r\n\r\n",
		"HTTP/1.1 0201 Created\r\n\r\n",
		"HTTP/1.1 20 OK\r\n\r\n",
		"HTTP/1.1 2000 OK\r\n\r\n",
		"HTTP/1.1 099 OK\r\n\r\n",
	}
	for _, raw := range badResponses {
		if _, err := ParseResponse([]byte(raw)); !errors.Is(err, ErrMalformed) {
			t.Errorf("ParseResponse(%q) err = %v", raw, err)
		}
	}
}

func TestDuplicateHeaderFirstWins(t *testing.T) {
	raw := "GET /x HTTP/1.1\r\nX-A: first\r\nX-A: second\r\n\r\n"
	req, err := ParseRequest([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if req.Headers.Get("X-A") != "first" {
		t.Errorf("X-A = %q", req.Headers.Get("X-A"))
	}
	if len(req.Headers) != 2 {
		t.Errorf("headers = %v, want both fields kept in wire order", req.Headers)
	}
}

// TestHeaderNamesIgnoreCase: a field name is matched without regard to
// case (RFC 7230 §3.2), whichever way the sender spelled it.
func TestHeaderNamesIgnoreCase(t *testing.T) {
	resp, err := ParseResponse([]byte("HTTP/1.1 200 OK\r\ncontent-TYPE: text/xml\r\nLocation: http://x\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Content-Type", "content-type", "CONTENT-TYPE"} {
		if got := resp.Headers.Get(name); got != "text/xml" {
			t.Errorf("Get(%q) = %q", name, got)
		}
	}
	if got := resp.Headers.Get("LOCATION"); got != "http://x" {
		t.Errorf("Get(LOCATION) = %q", got)
	}
}

// TestHeadersWrittenInOrder: fields go on the wire in the order given,
// and the body's own Content-Length replaces any the caller set.
func TestHeadersWrittenInOrder(t *testing.T) {
	resp := &Response{
		Status:  200,
		Headers: Headers{{"Z", "1"}, {"content-length", "99"}, {"A", "2"}},
		Body:    []byte("hi"),
	}
	const want = "HTTP/1.1 200 OK\r\nZ: 1\r\nA: 2\r\nContent-Length: 2\r\n\r\nhi"
	if got := string(resp.Marshal()); got != want {
		t.Errorf("Marshal = %q, want %q", got, want)
	}
}

func startEcho(t *testing.T) *Server {
	t.Helper()
	srv, err := Serve("127.0.0.1:0", func(req *Request) *Response {
		return &Response{
			Status:  200,
			Headers: Headers{{"X-Echo-Path", req.Path()}},
			Body:    append([]byte("echo:"), req.Body...),
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestServerClientExchange(t *testing.T) {
	srv := startEcho(t)
	c := &Client{Addr: srv.Addr()}
	defer c.Close()
	resp, err := c.Post("/p", "text/plain", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || string(resp.Body) != "echo:hello" {
		t.Errorf("resp = %d %q", resp.Status, resp.Body)
	}
	// Keep-alive: second request on the same connection.
	resp2, err := c.Get("/q?x=1")
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Headers.Get("X-Echo-Path") != "/q" {
		t.Errorf("second path = %q", resp2.Headers.Get("X-Echo-Path"))
	}
}

func TestConcurrentClients(t *testing.T) {
	srv := startEcho(t)
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &Client{Addr: srv.Addr()}
			defer c.Close()
			for j := 0; j < 10; j++ {
				body := fmt.Sprintf("c%d-%d", i, j)
				resp, err := c.Post("/x", "text/plain", []byte(body))
				if err != nil {
					errs <- err
					return
				}
				if string(resp.Body) != "echo:"+body {
					errs <- fmt.Errorf("bad echo %q", resp.Body)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestServerMalformedRequestGets400(t *testing.T) {
	srv := startEcho(t)
	// Send a syntactically framed but semantically broken request.
	c := &Client{Addr: srv.Addr()}
	defer c.Close()
	// Bypass Marshal: craft a raw message with a bad request line through
	// the underlying machinery by using a Request whose method embeds the
	// whole line. Easier: open a raw exchange via a handler check.
	resp, err := c.Do(&Request{Method: "BAD LINE EXTRA", Target: "/x"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 400 {
		t.Errorf("status = %d, want 400", resp.Status)
	}
}

func TestServerNilHandlerResponse(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", func(*Request) *Response { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &Client{Addr: srv.Addr()}
	defer c.Close()
	resp, err := c.Get("/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 500 {
		t.Errorf("status = %d, want 500", resp.Status)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", func(*Request) *Response { return &Response{Status: 200} })
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second close err = %v", err)
	}
}

func TestClientReconnectsAfterServerRestart(t *testing.T) {
	srv := startEcho(t)
	addr := srv.Addr()
	c := &Client{Addr: addr}
	defer c.Close()
	if _, err := c.Get("/a"); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv2, err := Serve(addr, func(req *Request) *Response {
		return &Response{Status: 200, Body: []byte("v2")}
	})
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	resp, err := c.Get("/b")
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "v2" {
		t.Errorf("body = %q", resp.Body)
	}
}

func TestUnescape(t *testing.T) {
	for in, want := range map[string]string{
		"a+b":    "a b",
		"a%20b":  "a b",
		"a%2Gb":  "a%2Gb",
		"%":      "%",
		"tree":   "tree",
		"a%26b=": "a&b=",
	} {
		if got := unescape(in); got != want {
			t.Errorf("unescape(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestQueryEdgeCases: QueryValue finds the first value of a key in the
// target and decodes only that.
func TestQueryEdgeCases(t *testing.T) {
	for _, c := range []struct {
		target, key, want string
	}{
		{"/p?q=two+words", "q", "two words"},
		{"/p?q=a%26b%3dc", "q", "a&b=c"},
		{"/p?q=%zz%4", "q", "%zz%4"},
		{"/p?q=first&q=second", "q", "first"},
		{"/p?&a=1&&b&c=", "a", "1"},
		{"/p?&a=1&&b&c=", "c", ""},
		{"/p?&a=1&&b&c=", "b", ""},
		{"/p?b&b=late", "b", ""},
		{"/p?my%20key=v&my+key=w", "my key", "v"},
		{"/p?a=1", "zz", ""},
		{"/p", "a", ""},
		{"/p?", "", ""},
	} {
		req := &Request{Method: "GET", Target: c.target}
		if got := req.QueryValue(c.key); got != c.want {
			t.Errorf("%s: QueryValue(%q) = %q, want %q", c.target, c.key, got, c.want)
		}
	}
}

func BenchmarkHandCodedParseRequest(b *testing.B) {
	raw := (&Request{
		Method:  "GET",
		Target:  "/data/feed/api/all?q=tree&max-results=3",
		Headers: Headers{{"Accept", "*/*"}, {"Host", "x"}},
	}).Marshal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseRequest(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServerRoundTrip(b *testing.B) {
	srv, err := Serve("127.0.0.1:0", func(req *Request) *Response {
		return &Response{Status: 200, Body: req.Body}
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c := &Client{Addr: srv.Addr()}
	defer c.Close()
	body := []byte(strings.Repeat("x", 256))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Post("/x", "text/plain", body); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBodyAliasesPacket: a parsed message's Body is the tail of the packet
// it was parsed from, not a copy of it.
func TestBodyAliasesPacket(t *testing.T) {
	packet := []byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello")
	resp, err := ParseResponse(packet)
	if err != nil || string(resp.Body) != "hello" {
		t.Fatalf("ParseResponse = %+v, %v", resp, err)
	}
	if &resp.Body[0] != &packet[len(packet)-5] {
		t.Error("the response body is a copy of the packet's")
	}
	packet = []byte("POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
	req, err := ParseRequest(packet)
	if err != nil || string(req.Body) != "hello" {
		t.Fatalf("ParseRequest = %+v, %v", req, err)
	}
	if &req.Body[0] != &packet[len(packet)-5] {
		t.Error("the request body is a copy of the packet's")
	}
}

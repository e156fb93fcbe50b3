// Package httpwire is a hand-rolled HTTP/1.1 substrate: a wire codec plus
// a small server and client built directly on the network engine, with no
// use of net/http. The simulated Flickr and Picasa services and the
// protocol stacks (XML-RPC, SOAP, REST) run on top of it.
//
// It parses what the text-MDL engine (internal/mdl/textenc) can parse, and
// both are on the mediator's message path: the REST binder reads and
// writes HTTP through the MDL document models/http.mdl, as the paper's
// Fig. 9 binding does, while the XML-RPC, SOAP and JSON-RPC binders frame
// their payloads with ParseRequest, ParseResponse and Marshal here, as do
// the services. The two side by side are also the measure of what the DSL
// indirection costs (BenchmarkHTTPParse beside
// BenchmarkHandCodedParseRequest).
package httpwire

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"starlink/internal/network"
)

// ErrMalformed is wrapped by all parse failures.
var ErrMalformed = errors.New("httpwire: malformed message")

// Header is one header field.
type Header struct {
	Name, Value string
}

// Headers are a message's header fields in the order they go on the
// wire. A parsed message keeps every field, duplicates included; Get
// finds the first.
type Headers []Header

// Get returns the value of the first field called name, compared without
// regard to case (RFC 7230 §3.2), or "" when there is none.
func (h Headers) Get(name string) string {
	for _, f := range h {
		if strings.EqualFold(f.Name, name) {
			return f.Value
		}
	}
	return ""
}

// Request is a parsed HTTP request.
type Request struct {
	// Method is the verb ("GET", "POST", ...).
	Method string
	// Target is the request target, including any query string.
	Target string
	// Proto is the protocol version ("HTTP/1.1").
	Proto string
	// Headers holds the header fields.
	Headers Headers
	// Body is the message body. In a parsed request it aliases the packet
	// it was parsed from and is read-only.
	Body []byte
}

// Path returns the target without its query string.
func (r *Request) Path() string {
	if i := strings.IndexByte(r.Target, '?'); i >= 0 {
		return r.Target[:i]
	}
	return r.Target
}

// QueryValue returns the decoded value of the first query parameter
// called key, "" when there is none. It scans the target in place and
// decodes only the value it returns.
func (r *Request) QueryValue(key string) string {
	_, q, ok := strings.Cut(r.Target, "?")
	if !ok {
		return ""
	}
	for q != "" {
		var kv string
		kv, q, _ = strings.Cut(q, "&")
		if kv == "" {
			continue
		}
		k, v, _ := strings.Cut(kv, "=")
		if unescape(k) == key {
			return unescape(v)
		}
	}
	return ""
}

// unescape decodes a query component: "+" is a space and "%xx" a byte. A
// component with neither is returned as it is, without a copy.
func unescape(s string) string {
	if strings.IndexAny(s, "+%") < 0 {
		return s
	}
	s = strings.ReplaceAll(s, "+", " ")
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '%' && i+2 < len(s) {
			if n, err := strconv.ParseUint(s[i+1:i+3], 16, 8); err == nil {
				b.WriteByte(byte(n))
				i += 2
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// Response is a parsed HTTP response.
type Response struct {
	// Proto is the protocol version.
	Proto string
	// Status is the numeric status code.
	Status int
	// Reason is the status text.
	Reason string
	// Headers holds the header fields.
	Headers Headers
	// Body is the message body. In a parsed response it aliases the packet
	// it was parsed from and is read-only.
	Body []byte
}

// Marshal renders the request on the wire, deriving Content-Length, into
// a packet of exactly its size that the caller owns: AppendTo(nil).
func (r *Request) Marshal() []byte { return r.AppendTo(nil) }

// AppendTo appends the request as Marshal renders it to dst. Its length
// is worked out first, so it is written in place: into dst's storage when
// it fits, else into one allocation.
func (r *Request) AppendTo(dst []byte) []byte {
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	n := len(r.Method) + 1 + len(r.Target) + 1 + len(proto) + 2
	b := slices.Grow(dst, n+headersLen(r.Headers, len(r.Body)))
	b = append(append(append(append(append(b, r.Method...), ' '), r.Target...), ' '), proto...)
	b = append(b, "\r\n"...)
	return append(appendHeaders(b, r.Headers, len(r.Body)), r.Body...)
}

// Marshal renders the response on the wire, deriving Content-Length, into
// a packet of exactly its size that the caller owns: AppendTo(nil).
func (r *Response) Marshal() []byte { return r.AppendTo(nil) }

// AppendTo appends the response as Marshal renders it to dst, written in
// place like Request.AppendTo.
func (r *Response) AppendTo(dst []byte) []byte {
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	reason := r.Reason
	if reason == "" {
		reason = defaultReason(r.Status)
	}
	n := len(proto) + 1 + digits(r.Status) + 1 + len(reason) + 2
	b := slices.Grow(dst, n+headersLen(r.Headers, len(r.Body)))
	b = append(append(b, proto...), ' ')
	b = append(append(strconv.AppendInt(b, int64(r.Status), 10), ' '), reason...)
	b = append(b, "\r\n"...)
	return append(appendHeaders(b, r.Headers, len(r.Body)), r.Body...)
}

// headersLen is how long appendHeaders and the body behind it are.
func headersLen(headers Headers, bodyLen int) int {
	n := len("Content-Length: ") + digits(bodyLen) + len("\r\n\r\n") + bodyLen
	for _, h := range headers {
		if !strings.EqualFold(h.Name, "Content-Length") {
			n += len(h.Name) + 2 + len(h.Value) + 2
		}
	}
	return n
}

// digits is how many bytes strconv.AppendInt writes for n.
func digits(n int) int {
	var buf [20]byte
	return len(strconv.AppendInt(buf[:0], int64(n), 10))
}

// appendHeaders writes the fields in the caller's order, then the
// Content-Length the body has, in place of any the caller gave.
func appendHeaders(b []byte, headers Headers, bodyLen int) []byte {
	for _, h := range headers {
		if strings.EqualFold(h.Name, "Content-Length") {
			continue
		}
		b = append(append(append(append(b, h.Name...), ": "...), h.Value...), "\r\n"...)
	}
	b = strconv.AppendInt(append(b, "Content-Length: "...), int64(bodyLen), 10)
	return append(b, "\r\n\r\n"...)
}

func defaultReason(status int) string {
	switch status {
	case 200:
		return "OK"
	case 201:
		return "Created"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 409:
		return "Conflict"
	case 500:
		return "Internal Server Error"
	default:
		return "Status"
	}
}

// ParseRequest decodes one request message (as framed by
// network.HTTPFramer). The request's Body is the tail of data, not a copy.
func ParseRequest(data []byte) (*Request, error) {
	head, body := splitHead(data)
	line, rest, err := cutLine(head)
	if err != nil {
		return nil, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/") {
		return nil, fmt.Errorf("%w: request line %q", ErrMalformed, line)
	}
	headers, err := parseHeaders(rest)
	if err != nil {
		return nil, err
	}
	return &Request{
		Method: parts[0], Target: parts[1], Proto: parts[2],
		Headers: headers, Body: body,
	}, nil
}

// ParseResponse decodes one response message. The response's Body is the
// tail of data, not a copy.
func ParseResponse(data []byte) (*Response, error) {
	head, body := splitHead(data)
	line, rest, err := cutLine(head)
	if err != nil {
		return nil, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return nil, fmt.Errorf("%w: status line %q", ErrMalformed, line)
	}
	status, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, fmt.Errorf("%w: status %q", ErrMalformed, parts[1])
	}
	reason := ""
	if len(parts) == 3 {
		reason = parts[2]
	}
	headers, err := parseHeaders(rest)
	if err != nil {
		return nil, err
	}
	return &Response{
		Proto: parts[0], Status: status, Reason: reason,
		Headers: headers, Body: body,
	}, nil
}

func cutLine(s string) (line, rest string, err error) {
	line, rest, found := strings.Cut(s, "\r\n")
	if !found {
		return "", "", fmt.Errorf("%w: missing CRLF", ErrMalformed)
	}
	return line, rest, nil
}

// splitHead cuts a message behind the blank line that ends its header
// block. Start line and headers come back as one string, which is all of
// the message that is copied: every string of the parsed message is a
// piece of it, and the body stays where it is in data. A message without
// the blank line is all head, for the parse to fail on.
func splitHead(data []byte) (head string, body []byte) {
	if i := bytes.Index(data, []byte("\r\n\r\n")); i >= 0 {
		return string(data[:i+4]), data[i+4:]
	}
	return string(data), nil
}

// parseHeaders reads the header lines up to the blank line that ends s
// into one slice of their number.
func parseHeaders(s string) (Headers, error) {
	headers := make(Headers, 0, max(strings.Count(s, "\r\n")-1, 0))
	for {
		line, rest, found := strings.Cut(s, "\r\n")
		if !found {
			return nil, fmt.Errorf("%w: header block not terminated", ErrMalformed)
		}
		s = rest
		if line == "" {
			return headers, nil
		}
		k, v, found := strings.Cut(line, ":")
		if !found {
			return nil, fmt.Errorf("%w: header line %q", ErrMalformed, line)
		}
		headers = append(headers, Header{strings.TrimSpace(k), strings.TrimSpace(v)})
	}
}

// Handler processes one request.
type Handler func(*Request) *Response

// Server is a minimal HTTP server over the network engine. Connections
// are persistent (HTTP/1.1 keep-alive); Close stops accepting, closes
// live connections and waits for all handler goroutines to exit.
type Server = network.Server

// Serve binds addr and starts serving h in the background.
func Serve(addr string, h Handler) (*Server, error) {
	var eng network.Engine
	l, err := eng.Listen(network.Semantics{Transport: "tcp"}, addr, network.HTTPFramer{})
	if err != nil {
		return nil, err
	}
	return network.Serve(l, func(conn network.Conn) { serveConn(conn, h) }), nil
}

// serveConn answers the requests of one connection until it ends.
func serveConn(conn network.Conn, h Handler) {
	for {
		data, err := conn.Recv()
		if err != nil {
			return
		}
		req, err := ParseRequest(data)
		var resp *Response
		if err != nil {
			resp = &Response{Status: 400, Body: []byte(err.Error())}
		} else {
			resp = h(req)
			if resp == nil {
				resp = &Response{Status: 500, Body: []byte("handler returned no response")}
			}
		}
		if err := conn.Send(resp.Marshal()); err != nil {
			return
		}
	}
}

// Client issues requests over a persistent connection, reconnecting on
// demand. It is safe for sequential use; guard with a mutex for
// concurrency.
type Client struct {
	// Addr is the server address ("host:port").
	Addr string
	// Timeout bounds one exchange (default 10s).
	Timeout time.Duration

	conn network.Conn
}

// Do sends the request and reads one response.
func (c *Client) Do(req *Request) (*Response, error) {
	timeout := c.Timeout
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	if req.Headers.Get("Host") == "" {
		// Where sorting the names put it before: the bytes on the wire
		// did not change when Headers stopped being a map.
		i := 0
		for i < len(req.Headers) && req.Headers[i].Name < "Host" {
			i++
		}
		req.Headers = slices.Insert(req.Headers, i, Header{"Host", c.Addr})
	}
	for attempt := 0; ; attempt++ {
		if c.conn == nil {
			var eng network.Engine
			conn, err := eng.Dial(network.Semantics{Transport: "tcp"}, c.Addr, network.HTTPFramer{})
			if err != nil {
				return nil, err
			}
			c.conn = conn
		}
		if err := c.conn.SetDeadline(time.Now().Add(timeout)); err != nil {
			return nil, err
		}
		if err := c.conn.Send(req.Marshal()); err != nil {
			c.resetConn()
			if attempt == 0 {
				continue // stale keep-alive connection; retry once
			}
			return nil, err
		}
		data, err := c.conn.Recv()
		if err != nil {
			c.resetConn()
			if attempt == 0 {
				continue
			}
			return nil, err
		}
		return ParseResponse(data)
	}
}

func (c *Client) resetConn() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// Close releases the client's connection.
func (c *Client) Close() error {
	c.resetConn()
	return nil
}

// Get is a convenience GET helper.
func (c *Client) Get(target string) (*Response, error) {
	return c.Do(&Request{Method: "GET", Target: target})
}

// Post is a convenience POST helper.
func (c *Client) Post(target, contentType string, body []byte) (*Response, error) {
	return c.Do(&Request{
		Method: "POST", Target: target,
		Headers: Headers{{"Content-Type", contentType}},
		Body:    body,
	})
}

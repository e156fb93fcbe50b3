// Package httpwire is a hand-rolled HTTP/1.1 substrate: a wire codec plus
// a small server and client built directly on the network engine, with no
// use of net/http. The simulated Flickr and Picasa services and the
// protocol stacks (XML-RPC, SOAP, REST) run on top of it.
//
// It parses what the text-MDL engine (internal/mdl/textenc) can parse, and
// both are on the mediator's message path: the REST binder reads and
// writes HTTP through the MDL document models/http.mdl, as the paper's
// Fig. 9 binding does, while the XML-RPC, SOAP and JSON-RPC binders read
// their payloads in place with RequestBody and ResponseBody and frame them
// with Marshal here, and the services use ParseRequest and ParseResponse. The two side by side are also the measure of what the DSL
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
	method, target, proto, fields, body, err := requestHead(data)
	if err != nil {
		return nil, err
	}
	h := copyHead(data, body)
	headers, err := h.headers(fields)
	if err != nil {
		return nil, err
	}
	return &Request{
		Method: h.str(method), Target: h.str(target), Proto: h.str(proto),
		Headers: headers, Body: body,
	}, nil
}

// ParseResponse decodes one response message. The response's Body is the
// tail of data, not a copy.
func ParseResponse(data []byte) (*Response, error) {
	proto, status, reason, fields, body, err := statusHead(data)
	if err != nil {
		return nil, err
	}
	h := copyHead(data, body)
	headers, err := h.headers(fields)
	if err != nil {
		return nil, err
	}
	return &Response{
		Proto: h.str(proto), Status: status, Reason: h.str(reason),
		Headers: headers, Body: body,
	}, nil
}

// RequestBody checks a request packet's head as ParseRequest does and
// returns its target and its body where they stand in data: nothing is
// copied. It is for a caller that reads no header.
func RequestBody(data []byte) (target, body []byte, err error) {
	_, target, _, fields, body, err := requestHead(data)
	if err == nil {
		err = eachHeader(fields, nil)
	}
	if err != nil {
		return nil, nil, err
	}
	return target, body, nil
}

// ResponseBody checks a response packet's head as ParseResponse does and
// returns its status and its body where it stands in data: nothing is
// copied. It is for a caller that reads no header.
func ResponseBody(data []byte) (status int, body []byte, err error) {
	_, status, _, fields, body, err := statusHead(data)
	if err == nil {
		err = eachHeader(fields, nil)
	}
	if err != nil {
		return 0, nil, err
	}
	return status, body, nil
}

var sp, crlf, colon = []byte(" "), []byte("\r\n"), []byte(":")

// requestHead reads a request packet's start line where it stands: its
// method, target and protocol, then the header lines behind it and the
// body, for eachHeader to read.
func requestHead(data []byte) (method, target, proto, fields, body []byte, err error) {
	line, fields, body, err := startLine(data)
	if err != nil {
		return
	}
	method, after, ok := bytes.Cut(line, sp)
	target, proto, ok2 := bytes.Cut(after, sp)
	if !ok || !ok2 || !bytes.HasPrefix(proto, []byte("HTTP/")) {
		err = fmt.Errorf("%w: request line %q", ErrMalformed, line)
	}
	return
}

// statusHead reads a response packet's start line where it stands: its
// protocol, status and reason, then the header lines behind it and the
// body, for eachHeader to read.
func statusHead(data []byte) (proto []byte, status int, reason, fields, body []byte, err error) {
	line, fields, body, err := startLine(data)
	if err != nil {
		return
	}
	proto, after, ok := bytes.Cut(line, sp)
	code, reason, _ := bytes.Cut(after, sp)
	if !ok || !bytes.HasPrefix(proto, []byte("HTTP/")) {
		err = fmt.Errorf("%w: status line %q", ErrMalformed, line)
	} else if len(code) != 3 || code[0] < '1' || code[0] > '9' || !isDigit(code[1]) || !isDigit(code[2]) {
		// RFC 9112 §4: status-code = 3DIGIT. One under 100, which RFC 9110
		// §15 does not define, would not write back as three digits.
		err = fmt.Errorf("%w: status %q", ErrMalformed, code)
	} else {
		status = int(code[0]-'0')*100 + int(code[1]-'0')*10 + int(code[2]-'0')
	}
	return
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// startLine cuts a message behind the blank line that ends its header
// block, and its head behind the start line: the start line, the header
// lines and the body. A message without the blank line is all head, for
// the header lines to fail on.
func startLine(data []byte) (line, fields, body []byte, err error) {
	head := data
	if i := bytes.Index(data, []byte("\r\n\r\n")); i >= 0 {
		head, body = data[:i+4], data[i+4:]
	}
	line, fields, found := bytes.Cut(head, crlf)
	if !found {
		return nil, nil, nil, fmt.Errorf("%w: missing CRLF", ErrMalformed)
	}
	return line, fields, body, nil
}

// eachHeader reads the header lines up to the blank line that ends s and
// hands each one's name and value, trimmed, to each, or only checks them
// when each is nil.
func eachHeader(s []byte, each func(name, value []byte)) error {
	for {
		line, rest, found := bytes.Cut(s, crlf)
		if !found {
			return fmt.Errorf("%w: header block not terminated", ErrMalformed)
		}
		s = rest
		if len(line) == 0 {
			return nil
		}
		name, value, found := bytes.Cut(line, colon)
		if !found {
			return fmt.Errorf("%w: header line %q", ErrMalformed, line)
		}
		if each != nil {
			each(bytes.TrimSpace(name), bytes.TrimSpace(value))
		}
	}
}

// head is the one copy a parsed message makes of its packet: the start
// line and the header lines, which every string of the message is a piece
// of, while the body stays where it is in the packet.
type head struct {
	text string
	data []byte
}

// copyHead copies the head of data, the message whose body is body.
func copyHead(data, body []byte) head {
	return head{string(data[:len(data)-len(body)]), data}
}

// str is the piece of the head's copy that b, a piece of the packet, is.
func (h head) str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	at := cap(h.data) - cap(b)
	return h.text[at : at+len(b)]
}

// headers collects the header lines fields into one slice of their number.
func (h head) headers(fields []byte) (Headers, error) {
	headers := make(Headers, 0, max(bytes.Count(fields, crlf)-1, 0))
	err := eachHeader(fields, func(name, value []byte) {
		headers = append(headers, Header{h.str(name), h.str(value)})
	})
	if err != nil {
		return nil, err
	}
	return headers, nil
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

// Package soap implements SOAP 1.1 RPC-style messaging over the httpwire
// substrate: envelope encoding, a client and a dispatching server. The
// case study's second Flickr client speaks SOAP (Section 5.1), and the
// Fig. 7/8 addition service is a SOAP service.
package soap

import (
	"errors"
	"fmt"
	"strings"

	"starlink/internal/mdl/xmlenc"
	"starlink/internal/message"
	"starlink/internal/protocol/httpwire"
)

// EnvelopeNS is the SOAP 1.1 envelope namespace.
const EnvelopeNS = "http://schemas.xmlsoap.org/soap/envelope/"

// Errors reported by the SOAP layer.
var (
	// ErrMalformed is wrapped by all decode failures.
	ErrMalformed = errors.New("soap: malformed envelope")
	// ErrNoSuchMethod is the fault for unregistered operations.
	ErrNoSuchMethod = errors.New("soap: no such method")
)

// Param is one named argument or result, in document order.
type Param struct {
	// Name is the element name.
	Name string
	// Value is the text content.
	Value string
}

// Fault is a SOAP fault.
type Fault struct {
	// Code is the faultcode ("Client", "Server", ...).
	Code string
	// Message is the faultstring.
	Message string
}

// Error implements error.
func (f *Fault) Error() string { return fmt.Sprintf("soap fault %s: %s", f.Code, f.Message) }

// appendEnvelope appends Envelope/Body around one operation element, named
// op followed by suffix, whose children body writes, to dst.
func appendEnvelope(dst []byte, op, suffix string, body func(w *xmlenc.Writer)) ([]byte, error) {
	w := xmlenc.NewDoc()
	w.Open("Envelope")
	w.Attr("xmlns", EnvelopeNS)
	w.Open("Body")
	w.OpenJoined(op, suffix)
	body(w)
	w.Close()
	w.Close()
	w.Close()
	return w.AppendTo(dst)
}

// AppendRequestFields appends an RPC request envelope whose parameters are
// fields to dst: the bytes AppendRequest writes for parameters named and
// valued as the fields are, each number appended where it stands rather
// than made a string first. A structured field stands for the primitives
// below it, in order.
func AppendRequestFields(dst []byte, method string, fields []*message.Field) ([]byte, error) {
	return appendEnvelope(dst, method, "", func(w *xmlenc.Writer) { writeParams(w, fields) })
}

// AppendResponseFields is AppendRequestFields for the <MethodResponse>
// envelope AppendResponse writes.
func AppendResponseFields(dst []byte, method string, fields []*message.Field) ([]byte, error) {
	return appendEnvelope(dst, method, "Response", func(w *xmlenc.Writer) { writeParams(w, fields) })
}

// writeParams writes the primitives of fields and below as parameters.
func writeParams(w *xmlenc.Writer, fields []*message.Field) {
	for _, f := range fields {
		if f.Type.Primitive() {
			w.Field(f)
		} else {
			writeParams(w, f.Children)
		}
	}
}

// MarshalRequest renders an RPC request envelope of its own:
// AppendRequest(nil, method, params).
func MarshalRequest(method string, params []Param) ([]byte, error) {
	return AppendRequest(nil, method, params)
}

// AppendRequest appends an RPC request envelope to dst: the method element
// with one child element per parameter.
func AppendRequest(dst []byte, method string, params []Param) ([]byte, error) {
	return appendParams(dst, method, "", params)
}

// appendParams appends the envelope of the operation element named method
// followed by suffix, with one child element per parameter.
func appendParams(dst []byte, method, suffix string, params []Param) ([]byte, error) {
	return appendEnvelope(dst, method, suffix, func(w *xmlenc.Writer) {
		for _, p := range params {
			w.Leaf(p.Name, p.Value)
		}
	})
}

// MarshalResponse renders the conventional <MethodResponse> envelope, of
// its own: AppendResponse(nil, method, results).
func MarshalResponse(method string, results []Param) ([]byte, error) {
	return AppendResponse(nil, method, results)
}

// AppendResponse appends the <MethodResponse> envelope to dst.
func AppendResponse(dst []byte, method string, results []Param) ([]byte, error) {
	return appendParams(dst, method, "Response", results)
}

// MarshalFault renders a fault envelope.
func MarshalFault(f *Fault) ([]byte, error) {
	return AppendRequest(nil, "Fault", []Param{{"faultcode", f.Code}, {"faultstring", f.Message}})
}

// malformed makes a decode failure this package's: what the Reader
// reports is wrapped, what the decoder found wrong itself already is.
func malformed(err error) error {
	if errors.Is(err, ErrMalformed) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrMalformed, err)
}

// ParseRequest decodes an RPC request envelope.
func ParseRequest(data []byte) (method string, params []Param, err error) {
	var few [8]Param
	method, params, err = parseEnvelope(data, few[:0])
	return method, own(params), err
}

// ParseResponse decodes a response envelope, returning the result params
// or a *Fault error.
func ParseResponse(data []byte) (method string, results []Param, err error) {
	var few [8]Param
	op, results, err := parseEnvelope(data, few[:0])
	return strings.TrimSuffix(op, "Response"), own(results), err
}

// ParseRequestFields decodes an RPC request envelope as ParseRequest does,
// each parameter straight into a TypeString field made in st.
func ParseRequestFields(st *message.Store, data []byte) (method string, fields []*message.Field, err error) {
	var few [8]Param
	method, params, err := parseEnvelope(data, few[:0])
	return method, carve(st, params), err
}

// ParseResponseFields decodes a response envelope as ParseResponse does,
// each result straight into a TypeString field made in st.
func ParseResponseFields(st *message.Store, data []byte) (method string, fields []*message.Field, err error) {
	var few [8]Param
	op, results, err := parseEnvelope(data, few[:0])
	return strings.TrimSuffix(op, "Response"), carve(st, results), err
}

// own copies params read onto the stack into a list of their own, nil
// when there are none.
func own(params []Param) []Param {
	if len(params) == 0 {
		return nil
	}
	return append([]Param(nil), params...)
}

// carve makes a field of each param, its nodes and its list one run each
// of st's, nil when there are none.
func carve(st *message.Store, params []Param) []*message.Field {
	if len(params) == 0 {
		return nil
	}
	nodes, fields := st.Nodes(len(params)), st.Links(len(params))
	for i, p := range params {
		nodes[i].Label = p.Name
		nodes[i].SetText(p.Value)
		fields[i] = &nodes[i]
	}
	return fields
}

// parseEnvelope reads Envelope, its first Body and the first element in
// that — the operation, or a Fault, which is returned as the error — from
// the Reader's tokens, names by their local part, and then the rest of the
// document for its form alone. The params are appended to params.
func parseEnvelope(data []byte, params []Param) (op string, _ []Param, err error) {
	r := xmlenc.NewReader(data)
	defer r.Release()
	op, params, fault, err := readEnvelope(r, params)
	switch {
	case err != nil:
		return "", nil, malformed(err)
	case fault != nil:
		return "", nil, fault
	}
	return op, params, nil
}

func readEnvelope(r *xmlenc.Reader, params []Param) (op string, _ []Param, fault *Fault, err error) {
	if _, err := r.Next(); err != nil {
		return "", nil, nil, err
	}
	if name := r.Name(); string(name) != "Envelope" {
		return "", nil, nil, fmt.Errorf("%w: root %q", ErrMalformed, name)
	}
	switch body, err := r.Find("Body"); {
	case err != nil:
		return "", nil, nil, err
	case body == "":
		return "", nil, nil, fmt.Errorf("%w: no Body", ErrMalformed)
	}
	for {
		tok, err := r.Next()
		if err != nil {
			return "", nil, nil, err
		}
		if tok == xmlenc.End {
			return "", nil, nil, fmt.Errorf("%w: empty Body", ErrMalformed)
		}
		if tok == xmlenc.Start {
			break
		}
	}
	if op = r.Intern(r.Name()); op == "Fault" {
		fault, err = readFault(r)
	} else {
		params, err = readParams(r, params)
	}
	// What is left of Body, then of Envelope.
	for level := 0; level < 2 && err == nil; level++ {
		err = r.Skip()
	}
	return op, params, fault, err
}

// readParams reads the open operation element to its end: one Param per
// child element, its value the character data directly inside it, appended
// to params — the callers' lists start on their stacks, where the params of
// most calls fit until their number is known.
func readParams(r *xmlenc.Reader, params []Param) ([]Param, error) {
	for {
		switch tok, err := r.Next(); {
		case err != nil:
			return nil, err
		case tok == xmlenc.End:
			return params, nil
		case tok == xmlenc.Start:
			name := r.Intern(r.Name())
			value, _, err := r.Content()
			if err != nil {
				return nil, err
			}
			params = append(params, Param{Name: name, Value: string(value)})
		}
	}
}

// readFault reads the open Fault element to its end: the text of its first
// faultcode and of its first faultstring.
func readFault(r *xmlenc.Reader) (*Fault, error) {
	f := &Fault{}
	var coded, worded bool
	for {
		name, err := r.Find("faultcode", "faultstring")
		var text []byte
		switch {
		case err != nil:
			return nil, err
		case name == "":
			return f, nil
		case name == "faultcode" && !coded:
			coded = true
			text, _, err = r.Content()
			f.Code = string(text)
		case name == "faultstring" && !worded:
			worded = true
			text, _, err = r.Content()
			f.Message = string(text)
		default:
			err = r.Skip()
		}
		if err != nil {
			return nil, err
		}
	}
}

// Client calls SOAP operations at a fixed HTTP endpoint.
type Client struct {
	http *httpwire.Client
	path string
}

// NewClient targets addr ("host:port") and path (e.g. "/soap").
func NewClient(addr, path string) *Client {
	return &Client{http: &httpwire.Client{Addr: addr}, path: path}
}

// Call invokes method with params and returns the response params.
func (c *Client) Call(method string, params ...Param) ([]Param, error) {
	body, err := MarshalRequest(method, params)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(&httpwire.Request{
		Method: "POST",
		Target: c.path,
		Headers: httpwire.Headers{
			{Name: "Content-Type", Value: "text/xml; charset=utf-8"},
			{Name: "SOAPAction", Value: `"` + method + `"`},
		},
		Body: body,
	})
	if err != nil {
		return nil, fmt.Errorf("soap: call %s: %w", method, err)
	}
	if resp.Status != 200 && resp.Status != 500 {
		return nil, fmt.Errorf("soap: call %s: HTTP %d", method, resp.Status)
	}
	_, results, err := ParseResponse(resp.Body)
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Close releases the client connection.
func (c *Client) Close() error { return c.http.Close() }

// Operation handles one SOAP operation.
type Operation func(params []Param) ([]Param, *Fault)

// Server dispatches SOAP requests to registered operations.
type Server struct {
	http *httpwire.Server
	ops  map[string]Operation
}

// NewServer starts a SOAP server at addr/path.
func NewServer(addr, path string, ops map[string]Operation) (*Server, error) {
	s := &Server{ops: ops}
	hs, err := httpwire.Serve(addr, func(req *httpwire.Request) *httpwire.Response {
		if req.Method != "POST" || req.Path() != path {
			return &httpwire.Response{Status: 404, Body: []byte("not a SOAP endpoint")}
		}
		return s.dispatch(req.Body)
	})
	if err != nil {
		return nil, err
	}
	s.http = hs
	return s, nil
}

func (s *Server) dispatch(body []byte) *httpwire.Response {
	method, params, err := ParseRequest(body)
	if err != nil {
		return faultResponse(&Fault{Code: "Client", Message: err.Error()})
	}
	op, ok := s.ops[method]
	if !ok {
		return faultResponse(&Fault{Code: "Client", Message: ErrNoSuchMethod.Error() + ": " + method})
	}
	results, fault := op(params)
	if fault != nil {
		return faultResponse(fault)
	}
	out, err := MarshalResponse(method, results)
	if err != nil {
		return faultResponse(&Fault{Code: "Server", Message: err.Error()})
	}
	return &httpwire.Response{
		Status:  200,
		Headers: httpwire.Headers{{Name: "Content-Type", Value: "text/xml; charset=utf-8"}},
		Body:    out,
	}
}

func faultResponse(f *Fault) *httpwire.Response {
	out, err := MarshalFault(f)
	if err != nil {
		return &httpwire.Response{Status: 500, Body: []byte(err.Error())}
	}
	return &httpwire.Response{
		Status:  500,
		Headers: httpwire.Headers{{Name: "Content-Type", Value: "text/xml; charset=utf-8"}},
		Body:    out,
	}
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.http.Addr() }

// Close shuts the server down.
func (s *Server) Close() error { return s.http.Close() }

// Package jsonrpc implements JSON-RPC 1.0 over the httpwire substrate:
// the third RPC middleware family of the era (alongside XML-RPC and
// SOAP), added to exercise Starlink's claim that new protocols slot in as
// binders without touching the models. Requests are
// {"method": m, "params": [...], "id": n}; responses carry exactly one of
// "result" or "error".
package jsonrpc

import (
	"encoding/json"
	"errors"
	"fmt"

	"starlink/internal/protocol/bufpool"
	"starlink/internal/protocol/httpwire"
)

// Errors reported by the JSON-RPC layer.
var (
	// ErrMalformed is wrapped by decode failures.
	ErrMalformed = errors.New("jsonrpc: malformed message")
	// ErrNoSuchMethod is the error for unregistered methods.
	ErrNoSuchMethod = errors.New("jsonrpc: no such method")
)

// Value is any JSON value (string, float64, bool, nil, []any,
// map[string]any after encoding/json decoding).
type Value = any

// RemoteError is a JSON-RPC error object returned by a server.
type RemoteError struct {
	// Message is the error content (JSON-RPC 1.0 leaves its shape open;
	// we use a string).
	Message string
}

// Error implements error.
func (e *RemoteError) Error() string { return "jsonrpc remote error: " + e.Message }

type wireRequest struct {
	Method string  `json:"method"`
	Params []Value `json:"params"`
	ID     uint64  `json:"id"`
}

type wireResponse struct {
	Result Value   `json:"result"`
	Error  *string `json:"error"`
	ID     uint64  `json:"id"`
}

// marshalWire encodes v through the shared encode-buffer pool and
// returns a right-sized copy, dropping json.Encoder's trailing newline
// so the output matches json.Marshal byte for byte.
func marshalWire(v any) ([]byte, error) {
	b := bufpool.Get()
	defer bufpool.Put(b)
	if err := json.NewEncoder(b).Encode(v); err != nil {
		return nil, err
	}
	out := b.Bytes()
	if n := len(out); n > 0 && out[n-1] == '\n' {
		out = out[:n-1]
	}
	return append([]byte(nil), out...), nil
}

// MarshalCall renders a request body.
func MarshalCall(id uint64, method string, params ...Value) ([]byte, error) {
	if params == nil {
		params = []Value{}
	}
	return marshalWire(wireRequest{Method: method, Params: params, ID: id})
}

// ParseCall decodes a request body.
func ParseCall(data []byte) (id uint64, method string, params []Value, err error) {
	var req wireRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return 0, "", nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if req.Method == "" {
		return 0, "", nil, fmt.Errorf("%w: missing method", ErrMalformed)
	}
	return req.ID, req.Method, req.Params, nil
}

// MarshalResult renders a success response body.
func MarshalResult(id uint64, result Value) ([]byte, error) {
	return marshalWire(wireResponse{Result: result, ID: id})
}

// MarshalError renders an error response body.
func MarshalError(id uint64, msg string) ([]byte, error) {
	return marshalWire(wireResponse{Error: &msg, ID: id})
}

// ParseResponse decodes a response body, returning *RemoteError for
// error responses.
func ParseResponse(data []byte) (id uint64, result Value, err error) {
	var resp wireResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if resp.Error != nil {
		return resp.ID, nil, &RemoteError{Message: *resp.Error}
	}
	return resp.ID, resp.Result, nil
}

// Client calls JSON-RPC methods at a fixed HTTP endpoint.
type Client struct {
	http   *httpwire.Client
	path   string
	nextID uint64
}

// NewClient targets addr ("host:port") and path (e.g. "/jsonrpc").
func NewClient(addr, path string) *Client {
	return &Client{http: &httpwire.Client{Addr: addr}, path: path, nextID: 1}
}

// Call invokes a method; server errors surface as *RemoteError.
func (c *Client) Call(method string, params ...Value) (Value, error) {
	id := c.nextID
	c.nextID++
	body, err := MarshalCall(id, method, params...)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Post(c.path, "application/json", body)
	if err != nil {
		return nil, fmt.Errorf("jsonrpc: call %s: %w", method, err)
	}
	if resp.Status != 200 {
		return nil, fmt.Errorf("jsonrpc: call %s: HTTP %d", method, resp.Status)
	}
	gotID, result, err := ParseResponse(resp.Body)
	if err != nil {
		return nil, err
	}
	if gotID != id {
		return nil, fmt.Errorf("%w: response id %d for request %d", ErrMalformed, gotID, id)
	}
	return result, nil
}

// Close releases the client connection.
func (c *Client) Close() error { return c.http.Close() }

// Method handles one JSON-RPC method.
type Method func(params []Value) (Value, error)

// Server dispatches JSON-RPC calls to registered methods.
type Server struct {
	http    *httpwire.Server
	methods map[string]Method
}

// NewServer starts a JSON-RPC server at addr/path.
func NewServer(addr, path string, methods map[string]Method) (*Server, error) {
	s := &Server{methods: methods}
	hs, err := httpwire.Serve(addr, func(req *httpwire.Request) *httpwire.Response {
		if req.Method != "POST" || req.Path() != path {
			return &httpwire.Response{Status: 404, Body: []byte("not a JSON-RPC endpoint")}
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
	id, method, params, err := ParseCall(body)
	if err != nil {
		return jsonResponse(0, "", err.Error())
	}
	h, ok := s.methods[method]
	if !ok {
		return jsonResponse(id, "", ErrNoSuchMethod.Error()+": "+method)
	}
	result, err := h(params)
	if err != nil {
		return jsonResponse(id, "", err.Error())
	}
	out, err := MarshalResult(id, result)
	if err != nil {
		return jsonResponse(id, "", err.Error())
	}
	return &httpwire.Response{
		Status:  200,
		Headers: httpwire.Headers{{Name: "Content-Type", Value: "application/json"}},
		Body:    out,
	}
}

func jsonResponse(id uint64, _ string, errMsg string) *httpwire.Response {
	out, err := MarshalError(id, errMsg)
	if err != nil {
		return &httpwire.Response{Status: 500, Body: []byte(errMsg)}
	}
	return &httpwire.Response{
		Status:  200,
		Headers: httpwire.Headers{{Name: "Content-Type", Value: "application/json"}},
		Body:    out,
	}
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.http.Addr() }

// Close shuts the server down.
func (s *Server) Close() error { return s.http.Close() }

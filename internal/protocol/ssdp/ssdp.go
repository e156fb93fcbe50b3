// Package ssdp implements a UPnP Simple Service Discovery Protocol
// substrate (simplified): M-SEARCH requests and unicast 200 OK responses
// over UDP, in the HTTP-like text format. Together with the slp package
// it provides the heterogeneous discovery pair that the Starlink lineage
// (ICDCS'11) bridged; here the pair is *mediated* — the service-type
// vocabularies differ, so a protocol-level bridge alone would not do.
package ssdp

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"starlink/internal/network"
	"starlink/internal/protocol/httpwire"
)

// Errors reported by the SSDP layer.
var (
	// ErrNoResponse is returned when a search times out.
	ErrNoResponse = errors.New("ssdp: no response")
	// ErrMalformed is wrapped by message decode failures.
	ErrMalformed = errors.New("ssdp: malformed message")
)

// SearchRequest is an M-SEARCH message.
type SearchRequest struct {
	// ST is the search target (service type URN).
	ST string
	// MX is the maximum response delay in seconds.
	MX int
}

// Marshal renders the M-SEARCH datagram: AppendTo(nil).
func (s SearchRequest) Marshal() []byte { return s.AppendTo(nil) }

// AppendTo appends the M-SEARCH datagram to dst.
func (s SearchRequest) AppendTo(dst []byte) []byte {
	req := &httpwire.Request{
		Method: "M-SEARCH",
		Target: "*",
		Headers: httpwire.Headers{
			{Name: "HOST", Value: "239.255.255.250:1900"},
			{Name: "MAN", Value: `"ssdp:discover"`},
			{Name: "MX", Value: fmt.Sprint(s.MX)},
			{Name: "ST", Value: s.ST},
		},
	}
	return req.AppendTo(dst)
}

// ParseSearch decodes an M-SEARCH datagram.
func ParseSearch(data []byte) (SearchRequest, error) {
	req, err := httpwire.ParseRequest(data)
	if err != nil {
		return SearchRequest{}, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if req.Method != "M-SEARCH" || req.Target != "*" {
		return SearchRequest{}, fmt.Errorf("%w: %s %s", ErrMalformed, req.Method, req.Target)
	}
	var s SearchRequest
	s.ST = req.Headers.Get("ST")
	fmt.Sscanf(req.Headers.Get("MX"), "%d", &s.MX)
	if s.ST == "" {
		return SearchRequest{}, fmt.Errorf("%w: missing ST", ErrMalformed)
	}
	return s, nil
}

// SearchResponse is a unicast M-SEARCH answer.
type SearchResponse struct {
	// ST echoes the search target.
	ST string
	// USN is the unique service name.
	USN string
	// Location is the service's description/control URL.
	Location string
}

// Marshal renders the response datagram: AppendTo(nil).
func (s SearchResponse) Marshal() []byte { return s.AppendTo(nil) }

// AppendTo appends the response datagram to dst.
func (s SearchResponse) AppendTo(dst []byte) []byte {
	resp := &httpwire.Response{
		Status: 200,
		Reason: "OK",
		Headers: httpwire.Headers{
			{Name: "CACHE-CONTROL", Value: "max-age=1800"},
			{Name: "EXT", Value: ""},
			{Name: "LOCATION", Value: s.Location},
			{Name: "ST", Value: s.ST},
			{Name: "USN", Value: s.USN},
		},
	}
	return resp.AppendTo(dst)
}

// ParseResponse decodes a response datagram.
func ParseResponse(data []byte) (SearchResponse, error) {
	resp, err := httpwire.ParseResponse(data)
	if err != nil {
		return SearchResponse{}, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if resp.Status != 200 {
		return SearchResponse{}, fmt.Errorf("%w: status %d", ErrMalformed, resp.Status)
	}
	return SearchResponse{
		ST:       resp.Headers.Get("ST"),
		USN:      resp.Headers.Get("USN"),
		Location: resp.Headers.Get("LOCATION"),
	}, nil
}

// Responder answers M-SEARCH requests for registered services over UDP.
type Responder struct {
	ep network.PacketEndpoint

	mu       sync.Mutex
	services map[string][]SearchResponse
	closed   bool
	done     chan struct{}
}

// NewResponder binds addr, a unicast UDP address, and starts answering. It
// joins no multicast group: a search must be sent to addr itself.
func NewResponder(addr string) (*Responder, error) {
	var eng network.Engine
	ep, err := eng.ListenPacket(network.Semantics{Transport: "udp"}, addr)
	if err != nil {
		return nil, err
	}
	r := &Responder{
		ep:       ep,
		services: make(map[string][]SearchResponse),
		done:     make(chan struct{}),
	}
	go r.serve()
	return r, nil
}

// Addr returns the responder's UDP address.
func (r *Responder) Addr() string { return r.ep.LocalAddr().String() }

// Register advertises a service under its search target.
func (r *Responder) Register(resp SearchResponse) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.services[resp.ST] = append(r.services[resp.ST], resp)
}

func (r *Responder) matches(st string) []SearchResponse {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st == "ssdp:all" {
		var all []SearchResponse
		for _, rs := range r.services {
			all = append(all, rs...)
		}
		return all
	}
	return append([]SearchResponse(nil), r.services[st]...)
}

func (r *Responder) serve() {
	defer close(r.done)
	for {
		data, peer, err := r.ep.RecvFrom()
		if err != nil {
			return
		}
		search, err := ParseSearch(data)
		if err != nil {
			continue
		}
		for _, resp := range r.matches(search.ST) {
			if err := r.ep.SendTo(resp.Marshal(), peer); err != nil {
				return
			}
		}
	}
}

// Close stops the responder.
func (r *Responder) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	err := r.ep.Close()
	<-r.done
	return err
}

// Search sends one M-SEARCH to addr and collects responses until the MX
// window elapses or max responses (when max > 0) have arrived.
func Search(addr, st string, mx, max int) ([]SearchResponse, error) {
	var eng network.Engine
	conn, err := eng.Dial(network.Semantics{Transport: "udp"}, addr, nil)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.Send(SearchRequest{ST: st, MX: mx}.Marshal()); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(mx) * time.Second)
	var out []SearchResponse
	for {
		if err := conn.SetDeadline(deadline); err != nil {
			return nil, err
		}
		data, err := conn.Recv()
		if err != nil {
			break // window elapsed
		}
		resp, err := ParseResponse(data)
		if err != nil {
			continue
		}
		out = append(out, resp)
		if max > 0 && len(out) >= max {
			break
		}
	}
	if len(out) == 0 {
		return nil, ErrNoResponse
	}
	return out, nil
}

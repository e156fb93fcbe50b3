package bind

import (
	"fmt"
	"sync/atomic"

	"starlink/internal/mdl"
	"starlink/internal/message"
	"starlink/internal/network"
	"starlink/internal/protocol/slp"
	"starlink/internal/protocol/ssdp"
)

// DiscoverySearch is the abstract action label shared by the discovery
// binders: an SSDP M-SEARCH and an SLP ServiceRequest both bind to it.
const DiscoverySearch = "discovery.search"

// SSDPBinder binds the discovery.search action to SSDP M-SEARCH /
// 200 OK messages. Abstract request fields: st, mx. Abstract reply
// fields: st, usn, location.
type SSDPBinder struct{}

var _ Binder = (*SSDPBinder)(nil)

// Framer implements Binder.
func (b *SSDPBinder) Framer() network.Framer { return network.Datagram{} }

// ParseRequestIn implements Binder with ParseRequest: a discovery message
// is small and its flow rare, so it is the heap's.
func (b *SSDPBinder) ParseRequestIn(_ *message.Store, packet []byte) (string, *message.Message, error) {
	return b.ParseRequest(packet)
}

// ParseReplyIn implements Binder with ParseReply, as ParseRequestIn does.
func (b *SSDPBinder) ParseReplyIn(_ *message.Store, action string, packet []byte) (*message.Message, error) {
	return b.ParseReply(action, packet)
}

// ParseRequest implements Binder.
func (b *SSDPBinder) ParseRequest(packet []byte) (string, *message.Message, error) {
	s, err := ssdp.ParseSearch(packet)
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	abs := message.New(DiscoverySearch,
		message.NewString("st", s.ST),
		message.NewInt64("mx", int64(s.MX)),
	)
	return DiscoverySearch, abs, nil
}

// BuildRequest implements Binder.
func (b *SSDPBinder) BuildRequest(action string, abs *message.Message) ([]byte, error) {
	return b.AppendRequest(nil, action, abs)
}

// AppendRequest implements Binder.
func (b *SSDPBinder) AppendRequest(dst []byte, action string, abs *message.Message) ([]byte, error) {
	if action != DiscoverySearch {
		return dst, fmt.Errorf("%w: %q", ErrUnknownAction, action)
	}
	st, _ := abs.GetString("st")
	mx, err := abs.GetInt("mx")
	if err != nil {
		mx = 1
	}
	return ssdp.SearchRequest{ST: st, MX: int(mx)}.AppendTo(dst), nil
}

// ParseReply implements Binder.
func (b *SSDPBinder) ParseReply(action string, packet []byte) (*message.Message, error) {
	resp, err := ssdp.ParseResponse(packet)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	return message.New(action+".reply",
		message.NewString("st", resp.ST),
		message.NewString("usn", resp.USN),
		message.NewString("location", resp.Location),
	), nil
}

// BuildReply implements Binder.
func (b *SSDPBinder) BuildReply(action string, abs *message.Message) ([]byte, error) {
	return b.AppendReply(nil, action, abs)
}

// AppendReply implements Binder.
func (b *SSDPBinder) AppendReply(dst []byte, _ string, abs *message.Message) ([]byte, error) {
	get := func(label string) string {
		if f := abs.Field(label); f != nil {
			return f.ValueString()
		}
		return ""
	}
	return ssdp.SearchResponse{
		ST:       get("st"),
		USN:      get("usn"),
		Location: get("location"),
	}.AppendTo(dst), nil
}

// SLPBinder binds discovery.search to SLP ServiceRequest/ServiceReply
// through the binary MDL codec. Abstract request fields: servicetype,
// scope. Abstract reply fields: repeated urlentry structs {url,
// lifetime}.
type SLPBinder struct {
	codec   mdl.Codec
	nextXID atomic.Uint64
}

var _ Binder = (*SLPBinder)(nil)

// NewSLPBinder compiles the SLP MDL document.
func NewSLPBinder() (*SLPBinder, error) {
	codec, err := slp.NewCodec()
	if err != nil {
		return nil, err
	}
	return &SLPBinder{codec: codec}, nil
}

// Framer implements Binder.
func (b *SLPBinder) Framer() network.Framer { return network.Datagram{} }

// BuildRequest implements Binder.
func (b *SLPBinder) BuildRequest(action string, abs *message.Message) ([]byte, error) {
	return b.AppendRequest(nil, action, abs)
}

// AppendRequest implements Binder.
func (b *SLPBinder) AppendRequest(dst []byte, action string, abs *message.Message) ([]byte, error) {
	if action != DiscoverySearch {
		return dst, fmt.Errorf("%w: %q", ErrUnknownAction, action)
	}
	st, _ := abs.GetString("servicetype")
	scope, _ := abs.GetString("scope")
	if scope == "" {
		scope = "DEFAULT"
	}
	// The wire field is <XID:16>: the counter wraps there, or the codec
	// refuses every request after the 65 535th.
	xid := uint16(b.nextXID.Add(1))
	return b.codec.AppendCompose(dst, slp.NewRequest(uint64(xid), st, scope))
}

// ParseReply implements Binder.
func (b *SLPBinder) ParseReply(action string, packet []byte) (*message.Message, error) {
	reply, err := b.codec.Parse(packet)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	if reply.Name != "ServiceReply" {
		return nil, fmt.Errorf("%w: got %s", ErrBadMessage, reply.Name)
	}
	if code, _ := reply.GetInt("ErrorCode"); code != 0 {
		return nil, fmt.Errorf("%w: SLP error code %d", ErrBadMessage, code)
	}
	abs := message.New(action + ".reply")
	for _, e := range slp.EntriesOf(reply) {
		abs.Add(message.NewStruct("urlentry",
			message.NewString("url", e.URL),
			message.NewInt64("lifetime", int64(e.Lifetime)),
		))
	}
	return abs, nil
}

// ParseRequestIn implements Binder with ParseRequest: a discovery message
// is small and its flow rare, so it is the heap's.
func (b *SLPBinder) ParseRequestIn(_ *message.Store, packet []byte) (string, *message.Message, error) {
	return b.ParseRequest(packet)
}

// ParseReplyIn implements Binder with ParseReply, as ParseRequestIn does.
func (b *SLPBinder) ParseReplyIn(_ *message.Store, action string, packet []byte) (*message.Message, error) {
	return b.ParseReply(action, packet)
}

// ParseRequest implements Binder (for SLP-facing server roles).
func (b *SLPBinder) ParseRequest(packet []byte) (string, *message.Message, error) {
	req, err := b.codec.Parse(packet)
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	if req.Name != "ServiceRequest" {
		return "", nil, fmt.Errorf("%w: got %s", ErrBadMessage, req.Name)
	}
	st, _ := req.GetString("ServiceType")
	scope, _ := req.GetString("Scope")
	xid, _ := req.GetInt("XID")
	abs := message.New(DiscoverySearch,
		message.NewString("servicetype", st),
		message.NewString("scope", scope),
	)
	abs.ID = uint64(xid)
	return DiscoverySearch, abs, nil
}

// BuildReply implements Binder (for SLP-facing server roles).
func (b *SLPBinder) BuildReply(action string, abs *message.Message) ([]byte, error) {
	return b.AppendReply(nil, action, abs)
}

// AppendReply implements Binder (for SLP-facing server roles): the reply
// takes abs.ID, the XID of the request it answers.
func (b *SLPBinder) AppendReply(dst []byte, _ string, abs *message.Message) ([]byte, error) {
	var entries []slp.URLEntry
	for _, f := range abs.Fields {
		if f.Label != "urlentry" {
			continue
		}
		e := slp.URLEntry{Lifetime: 1800}
		if c := f.Child("url"); c != nil {
			e.URL = c.ValueString()
		}
		if c := f.Child("lifetime"); c != nil && c.Type == message.TypeInt64 {
			e.Lifetime = uint16(c.Int64())
		}
		entries = append(entries, e)
	}
	return b.codec.AppendCompose(dst, slp.NewReply(abs.ID, 0, entries))
}

package discovery

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"starlink/internal/network"
	"starlink/internal/protocol/httpwire"
	"starlink/internal/protocol/ssdp"
)

// SSDPSource discovers endpoints two ways at once: each Resolve sends
// a unicast M-SEARCH for the search target and folds the answers into
// a USN table, and an optional background listener ingests NOTIFY
// announcements (ssdp:alive refreshes the table, ssdp:byebye evicts)
// so a withdrawal is seen the moment it is multicast rather than on
// the next poll. The listener nudges the reconciler through Updates.
type SSDPSource struct {
	addr string // search/responder address
	st   string // search target
	opts SSDPOptions

	mu      sync.Mutex
	known   map[string]ssdpEntry // USN -> entry
	closed  bool
	ep      network.PacketEndpoint
	done    chan struct{}
	updates chan struct{}
}

type ssdpEntry struct {
	addr    string
	expires time.Time // zero = no max-age advertised
}

// SSDPOptions tunes an SSDPSource beyond its address and target.
type SSDPOptions struct {
	// MX is the M-SEARCH response window in seconds (default 1).
	MX int
	// Listen, when set, binds a UDP address (a multicast group in real
	// deployments) and ingests NOTIFY alive/byebye announcements.
	Listen string
}

// NewSSDPSource searches addr for st. With opts.Listen it also starts
// the NOTIFY listener.
func NewSSDPSource(addr, st string, opts SSDPOptions) (*SSDPSource, error) {
	if addr == "" || st == "" {
		return nil, fmt.Errorf("%w: ssdp source needs search address and target", ErrSource)
	}
	if opts.MX <= 0 {
		opts.MX = 1
	}
	s := &SSDPSource{
		addr:    addr,
		st:      st,
		opts:    opts,
		known:   make(map[string]ssdpEntry),
		updates: make(chan struct{}, 1),
	}
	if opts.Listen != "" {
		var eng network.Engine
		ep, err := eng.ListenPacket(network.Semantics{Transport: "udp"}, opts.Listen)
		if err != nil {
			return nil, fmt.Errorf("%w: listen %s: %v", ErrSource, opts.Listen, err)
		}
		s.ep = ep
		s.done = make(chan struct{})
		go s.listen()
	}
	return s, nil
}

// Resolve refreshes the USN table with one M-SEARCH round and returns
// every entry that has not expired. A search that times out with no
// answers is an empty result, not an error — silence is how SSDP says
// "nobody here".
func (s *SSDPSource) Resolve() ([]Endpoint, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: ssdp source closed", ErrSource)
	}
	s.mu.Unlock()

	resps, err := ssdp.Search(s.addr, s.st, s.opts.MX, 0)
	if err != nil && err != ssdp.ErrNoResponse {
		return nil, fmt.Errorf("%w: search %s: %v", ErrSource, s.st, err)
	}

	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[string]bool, len(resps))
	for _, r := range resps {
		addr, err := HostPort(r.Location)
		if err != nil {
			continue
		}
		seen[r.USN] = true
		s.known[r.USN] = ssdpEntry{addr: addr}
	}
	// A searched-for USN that did not answer is gone; NOTIFY-learned
	// entries (expires set) live until their max-age runs out.
	var eps []Endpoint
	for usn, e := range s.known {
		switch {
		case seen[usn]:
		case e.expires.IsZero() || now.After(e.expires):
			delete(s.known, usn)
			continue
		}
		ttl := time.Duration(0)
		if !e.expires.IsZero() {
			ttl = e.expires.Sub(now)
		}
		eps = append(eps, Endpoint{Addr: e.addr, TTL: ttl})
	}
	return eps, nil
}

// Updates nudges the reconciler whenever a NOTIFY changes the table.
func (s *SSDPSource) Updates() <-chan struct{} { return s.updates }

// ListenAddr reports the NOTIFY listener's bound address, empty when
// no listener was configured.
func (s *SSDPSource) ListenAddr() string {
	if s.ep == nil {
		return ""
	}
	return s.ep.LocalAddr().String()
}

func (s *SSDPSource) nudge() {
	select {
	case s.updates <- struct{}{}:
	default:
	}
}

// listen ingests NOTIFY datagrams until the endpoint closes.
func (s *SSDPSource) listen() {
	defer close(s.done)
	for {
		data, _, err := s.ep.RecvFrom()
		if err != nil {
			return
		}
		req, err := httpwire.ParseRequest(data)
		if err != nil || req.Method != "NOTIFY" {
			continue
		}
		nt := req.Headers.Get("NT")
		usn := req.Headers.Get("USN")
		if usn == "" || (nt != s.st && nt != "ssdp:all") {
			continue
		}
		switch req.Headers.Get("NTS") {
		case "ssdp:alive":
			addr, err := HostPort(req.Headers.Get("LOCATION"))
			if err != nil {
				continue
			}
			exp := time.Now().Add(notifyMaxAge(req.Headers.Get("CACHE-CONTROL")))
			s.mu.Lock()
			s.known[usn] = ssdpEntry{addr: addr, expires: exp}
			s.mu.Unlock()
			s.nudge()
		case "ssdp:byebye":
			s.mu.Lock()
			_, had := s.known[usn]
			delete(s.known, usn)
			s.mu.Unlock()
			if had {
				s.nudge()
			}
		}
	}
}

// notifyMaxAge extracts max-age from a CACHE-CONTROL header, with the
// SSDP-customary 1800s default.
func notifyMaxAge(cc string) time.Duration {
	for _, part := range strings.Split(cc, ",") {
		part = strings.TrimSpace(strings.ToLower(part))
		if v, ok := strings.CutPrefix(part, "max-age="); ok {
			if n, err := strconv.Atoi(strings.TrimSpace(v)); err == nil && n > 0 {
				return time.Duration(n) * time.Second
			}
		}
	}
	return 1800 * time.Second
}

// Options returns the options the source runs with: NewSSDPSource's,
// its default filled in.
func (s *SSDPSource) Options() SSDPOptions { return s.opts }

func (s *SSDPSource) String() string {
	return fmt.Sprintf("ssdp://%s/%s", s.addr, s.st)
}

// Close stops the NOTIFY listener and fails future Resolves.
func (s *SSDPSource) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ep, done := s.ep, s.done
	s.mu.Unlock()
	if ep != nil {
		err := ep.Close()
		<-done
		return err
	}
	return nil
}

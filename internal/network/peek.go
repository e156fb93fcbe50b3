package network

import (
	"bufio"
	"net"
	"time"
)

// PeekConn wraps a just-accepted stream connection so its first bytes
// can be examined before a framer is chosen — the substrate of the
// gateway's wire sniffer. The peeked bytes are not consumed: once a
// protocol has been identified, Framed turns the same stream (buffered
// prefix included) into an ordinary framed Conn, so the hosted
// mediator's framer replays them as if it had accepted the connection
// itself.
type PeekConn struct {
	c net.Conn
	r *bufio.Reader
}

// PeekSize is the most bytes a PeekConn can hold unread, and so the most
// Peek can be asked for: past it the buffer is full before the wait
// begins and Peek returns at once with what has arrived.
const PeekSize = 4096

// NewPeekConn wraps c for sniffing, with a read buffer from the pool the
// stream connections share; Framed hands it on, Close gives it back.
func NewPeekConn(c net.Conn) *PeekConn {
	return &PeekConn{c: c, r: getReader(c)}
}

// Peek returns up to n of the connection's next bytes without consuming
// them, waiting at most until deadline for the first byte to arrive. It
// returns short (possibly empty) results instead of blocking: a client
// that trickles, stalls or disconnects yields whatever prefix arrived
// by the deadline, alongside the error that stopped the read. It never
// blocks past deadline.
func (p *PeekConn) Peek(n int, deadline time.Time) ([]byte, error) {
	if err := p.c.SetReadDeadline(deadline); err != nil {
		return nil, err
	}
	// bufio's Peek blocks until n bytes are buffered or the read errors;
	// with the deadline set, a stalled client surfaces as a timeout and
	// the bytes that did arrive stay available in the buffer.
	buf, err := p.r.Peek(n)
	if len(buf) == 0 && p.r.Buffered() > 0 {
		buf, _ = p.r.Peek(p.r.Buffered())
	}
	if resetErr := p.c.SetReadDeadline(time.Time{}); resetErr != nil && err == nil {
		err = resetErr
	}
	return buf, err
}

// Buffered reports how many sniffed bytes are waiting to be replayed.
func (p *PeekConn) Buffered() int { return p.r.Buffered() }

// RemoteAddr identifies the peer.
func (p *PeekConn) RemoteAddr() net.Addr { return p.c.RemoteAddr() }

// Framed converts the sniffed stream into a framed Conn. The buffered
// prefix read during sniffing is consumed first, so no bytes are lost.
// The PeekConn must not be used afterwards.
func (p *PeekConn) Framed(framer Framer) Conn {
	r := p.r
	p.r = nil
	return &streamConn{c: p.c, r: r, framer: framer}
}

// Close releases the underlying connection without framing it (a
// sniff miss or a shed connection) and returns its read buffer. Like
// Peek it is for the one goroutine that sniffs.
func (p *PeekConn) Close() error {
	if p.r != nil {
		putReader(p.r)
		p.r = nil
	}
	return p.c.Close()
}

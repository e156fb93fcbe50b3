// Package network is Starlink's network engine (paper Section 4.2): it
// moves whole protocol messages to and from the wire so the rest of the
// framework can stay at the abstract-message level. The paper attaches
// network semantics — transport (tcp/udp), multicast — to each colour;
// here a colour gets them from its protocol's Framer (SemanticsOf), and
// this engine provides the matching services.
//
// Because protocols frame their messages differently (HTTP by headers and
// Content-Length, GIOP by a fixed 12-byte header carrying the body size,
// discovery protocols by datagram boundaries), message extraction is
// delegated to a Framer chosen per protocol model.
package network

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"starlink/internal/protocol/bufpool"
)

// Errors reported by the network engine.
var (
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("network: connection closed")
	// ErrMessageTooLarge guards against absurd frame sizes.
	ErrMessageTooLarge = errors.New("network: message exceeds size limit")
	// ErrBareLF is returned for an HTTP head line that ends in a bare LF.
	// The parsers end a head at its first CRLF CRLF, and a framer that
	// ended lines at LF could put that point inside the body (RFC 9112
	// §2.2 allows refusing such a message).
	ErrBareLF = errors.New("network: HTTP head line not ended by CRLF")
)

// MaxMessageSize bounds a single framed message (16 MiB).
const MaxMessageSize = 16 << 20

// DefaultDialTimeout bounds Dial when Engine.DialTimeout is unset.
const DefaultDialTimeout = 10 * time.Second

// Framer extracts one protocol message from a stream and writes one back.
// Implementations must be safe for concurrent use by different
// connections.
type Framer interface {
	// ReadMessage reads exactly one message's bytes into a packet of its
	// own, allocated at the message's size: AppendMessage(nil, r). The
	// packet is the caller's to keep. What the layers above parse out of
	// it — an HTTP body, an XML document — aliases it rather than copying
	// it, so a packet is read-only once it is returned.
	ReadMessage(r *bufio.Reader) ([]byte, error)
	// AppendMessage reads exactly one message and appends its bytes to
	// dst: in dst's storage when they fit, else in one new allocation. A
	// packet in dst's storage is borrowed — it is gone once the caller
	// writes there again. On an error dst comes back as it was.
	AppendMessage(dst []byte, r *bufio.Reader) ([]byte, error)
	// WriteMessage writes one message's bytes.
	WriteMessage(w io.Writer, data []byte) error
}

// Conn is a framed, bidirectional message channel.
type Conn interface {
	// Send writes one message; the connection keeps no byte of data once
	// it returns.
	Send(data []byte) error
	// Recv reads one message into a packet of its own, the caller's to
	// keep: RecvAppend(nil).
	Recv() ([]byte, error)
	// RecvAppend reads one message and appends it to dst, as
	// Framer.AppendMessage does: a packet in dst's storage lasts only
	// until the caller writes there again.
	RecvAppend(dst []byte) ([]byte, error)
	// SetDeadline bounds both directions.
	SetDeadline(t time.Time) error
	// RemoteAddr identifies the peer.
	RemoteAddr() net.Addr
	// Close releases the channel.
	Close() error
}

// Listener accepts framed connections.
type Listener interface {
	// Accept waits for the next connection.
	Accept() (Conn, error)
	// Addr is the bound address.
	Addr() net.Addr
	// Close stops accepting.
	Close() error
}

// ---- framers ----

// grow returns dst extended by n bytes: in dst's storage when they fit,
// else in one new allocation, which for a nil dst is of n bytes exactly.
func grow(dst []byte, n int) []byte {
	return slices.Grow(dst, n)[:len(dst)+n]
}

// HTTPFramer frames HTTP/1.x requests and responses: start line, header
// block, then a body of Content-Length bytes (0 when absent). Messages
// carrying conflicting Content-Length headers are rejected — accepting
// the last value would desynchronise the stream for the rest of the
// connection; identical repeats are tolerated per RFC 7230 §3.3.2.
type HTTPFramer struct{}

var _ Framer = HTTPFramer{}

// ReadMessage implements Framer.
func (f HTTPFramer) ReadMessage(r *bufio.Reader) ([]byte, error) { return f.AppendMessage(nil, r) }

// AppendMessage implements Framer. The header block is gathered on the
// stack, line by line out of the reader's buffer, and goes to dst with
// the body read straight behind it once Content-Length is known. Every
// head line ends in CRLF (ErrBareLF), so the head ends where the parsers
// end it: at the first CRLF CRLF.
func (HTTPFramer) AppendMessage(dst []byte, r *bufio.Reader) ([]byte, error) {
	var stack [1024]byte
	head := stack[:0]
	contentLength := 0
	seenLength := false
	for {
		lineStart := len(head)
		for {
			part, err := r.ReadSlice('\n')
			head = append(head, part...)
			if len(head) > MaxMessageSize {
				return dst, ErrMessageTooLarge
			}
			if err == nil {
				break
			}
			if err == bufio.ErrBufferFull {
				continue // a line longer than the reader's buffer
			}
			if err == io.EOF && lineStart == 0 {
				return dst, io.EOF
			}
			return dst, fmt.Errorf("network: http header: %w", err)
		}
		if len(head)-lineStart < 2 || head[len(head)-2] != '\r' {
			return dst, ErrBareLF
		}
		line := head[lineStart : len(head)-2]
		if len(line) == 0 {
			break
		}
		if k, v, ok := bytes.Cut(line, []byte(":")); ok && bytes.EqualFold(bytes.TrimSpace(k), []byte("Content-Length")) {
			n, err := strconv.Atoi(string(bytes.TrimSpace(v)))
			if err != nil || n < 0 {
				return dst, fmt.Errorf("network: bad Content-Length %q", string(v))
			}
			if seenLength && n != contentLength {
				return dst, fmt.Errorf("network: conflicting Content-Length headers (%d vs %d)", contentLength, n)
			}
			contentLength = n
			seenLength = true
		}
	}
	if contentLength > MaxMessageSize-len(head) {
		return dst, ErrMessageTooLarge
	}
	packet := grow(dst, len(head)+contentLength)
	body := packet[len(dst)+copy(packet[len(dst):], head):]
	if _, err := io.ReadFull(r, body); err != nil {
		return dst, fmt.Errorf("network: http body: %w", err)
	}
	return packet, nil
}

// WriteMessage implements Framer.
func (HTTPFramer) WriteMessage(w io.Writer, data []byte) error {
	_, err := w.Write(data)
	return err
}

// GIOPFramer frames GIOP messages: a 12-byte header whose last 4 bytes are
// the big-endian body size.
type GIOPFramer struct{}

var _ Framer = GIOPFramer{}

// ReadMessage implements Framer.
func (f GIOPFramer) ReadMessage(r *bufio.Reader) ([]byte, error) { return f.AppendMessage(nil, r) }

// AppendMessage implements Framer. The header is looked at in the
// reader's buffer, so the message goes to dst in one read, header and
// body together.
func (GIOPFramer) AppendMessage(dst []byte, r *bufio.Reader) ([]byte, error) {
	hdr, err := r.Peek(12)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return dst, err
	}
	if string(hdr[:4]) != "GIOP" {
		return dst, fmt.Errorf("network: bad GIOP magic %q", hdr[:4])
	}
	n := binary.BigEndian.Uint32(hdr[8:12])
	if n > MaxMessageSize-12 {
		return dst, ErrMessageTooLarge
	}
	msg := grow(dst, 12+int(n))
	if _, err := io.ReadFull(r, msg[len(dst):]); err != nil {
		return dst, fmt.Errorf("network: short GIOP body: %w", err)
	}
	return msg, nil
}

// WriteMessage implements Framer. The MessageSize header field is patched
// to the actual body length so composers need not precompute it — in a
// pooled copy, never in data, which is the caller's (the engine replays it),
// and the copy goes out in one Write, which keeps none of it (io.Writer).
func (GIOPFramer) WriteMessage(w io.Writer, data []byte) error {
	if len(data) < 12 {
		return fmt.Errorf("network: GIOP message shorter than header (%d bytes)", len(data))
	}
	buf := bufpool.Get()
	defer bufpool.Put(buf)
	buf.Write(data)
	out := buf.Bytes()
	binary.BigEndian.PutUint32(out[8:12], uint32(len(data)-12))
	_, err := w.Write(out)
	return err
}

// Datagram frames the message-per-datagram protocols (SSDP, SLP): the UDP
// transport keeps a datagram's boundaries, so a message is a datagram and
// there is nothing to frame. A stream read is refused.
type Datagram struct{}

var _ Framer = Datagram{}

// ReadMessage implements Framer; a stream read is refused.
func (f Datagram) ReadMessage(r *bufio.Reader) ([]byte, error) { return f.AppendMessage(nil, r) }

// AppendMessage implements Framer; a stream read is refused.
func (Datagram) AppendMessage(dst []byte, _ *bufio.Reader) ([]byte, error) {
	return dst, errors.New("network: datagram protocol over a stream transport")
}

// WriteMessage implements Framer.
func (Datagram) WriteMessage(w io.Writer, data []byte) error {
	_, err := w.Write(data)
	return err
}

// SemanticsOf is how a protocol framed by f travels: Datagram over udp,
// every other framer over tcp. A colour's transport is its binder's
// framer, so nothing else states it.
func SemanticsOf(f Framer) Semantics {
	if _, ok := f.(Datagram); ok {
		return Semantics{Transport: "udp"}
	}
	return Semantics{Transport: "tcp"}
}

// ---- stream connections ----

// readers holds the read buffers of stream connections. A connection
// takes one on its first Recv (a PeekConn when it is made) and puts it
// back when it is closed, so a connection that lives for one exchange
// costs no buffer of its own. The buffer stays attached between messages:
// a persistent session pays no pool round trip per message.
var readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, PeekSize) }}

func getReader(c net.Conn) *bufio.Reader {
	r := readers.Get().(*bufio.Reader)
	r.Reset(c)
	return r
}

// putReader drops what r holds unread, and its connection, before
// pooling it: the next connection starts with an empty buffer.
func putReader(r *bufio.Reader) {
	r.Reset(nil)
	readers.Put(r)
}

// Who holds a stream connection's reader. Recv moves idle → reading →
// idle; Close moves either to closed. The reader goes back to the pool
// once, by whichever of the two ends last: Close from idle, or the Recv
// that Close interrupted — never while a framer is reading from it.
const (
	connIdle int32 = iota
	connReading
	connClosed
)

type streamConn struct {
	c      net.Conn
	framer Framer
	state  atomic.Int32
	r      *bufio.Reader // nil until the first Recv; see connIdle
}

var _ Conn = (*streamConn)(nil)

// NewStreamConn wraps a net.Conn with a framer.
func NewStreamConn(c net.Conn, framer Framer) Conn {
	return &streamConn{c: c, framer: framer}
}

func (s *streamConn) Send(data []byte) error {
	return s.framer.WriteMessage(s.c, data)
}

func (s *streamConn) Recv() ([]byte, error) { return s.RecvAppend(nil) }

// RecvAppend reads one message. Like Send it is for one goroutine at a
// time; Close may run beside it.
func (s *streamConn) RecvAppend(dst []byte) ([]byte, error) {
	if !s.state.CompareAndSwap(connIdle, connReading) {
		return dst, ErrClosed
	}
	if s.r == nil {
		s.r = getReader(s.c)
	}
	data, err := s.framer.AppendMessage(dst, s.r)
	if !s.state.CompareAndSwap(connReading, connIdle) {
		// Closed while reading: the reader was left to this Recv. What it
		// returns was copied out of the reader, so the reader can go.
		putReader(s.r)
		s.r = nil
	}
	return data, err
}

func (s *streamConn) SetDeadline(t time.Time) error { return s.c.SetDeadline(t) }
func (s *streamConn) RemoteAddr() net.Addr          { return s.c.RemoteAddr() }

func (s *streamConn) Close() error {
	if s.state.Swap(connClosed) == connIdle && s.r != nil {
		putReader(s.r)
		s.r = nil
	}
	return s.c.Close()
}

type streamListener struct {
	l      net.Listener
	framer Framer
}

var _ Listener = (*streamListener)(nil)

func (sl *streamListener) Accept() (Conn, error) {
	c, err := sl.l.Accept()
	if err != nil {
		return nil, err
	}
	return NewStreamConn(c, sl.framer), nil
}

func (sl *streamListener) Addr() net.Addr { return sl.l.Addr() }
func (sl *streamListener) Close() error   { return sl.l.Close() }

// ---- datagram connections ----

// datagramConn adapts a UDP socket to the Conn interface: one datagram is
// one message. On the listening side, replies go to the most recent
// sender, so a request/response server conn serves sequential peers; on
// the dialling side the peer is fixed. Close may be called from another
// goroutine (the mediator shutting a session down); Send/Recv are for one
// goroutine at a time.
type datagramConn struct {
	pc        net.PacketConn
	fixedPeer bool
	buf       []byte
	closed    atomic.Bool

	mu   sync.Mutex
	peer net.Addr
}

var _ Conn = (*datagramConn)(nil)

func (d *datagramConn) currentPeer() net.Addr {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.peer
}

func (d *datagramConn) Send(data []byte) error {
	if d.closed.Load() {
		return ErrClosed
	}
	peer := d.currentPeer()
	if peer == nil {
		return errors.New("network: datagram peer unknown")
	}
	_, err := d.pc.WriteTo(data, peer)
	return err
}

func (d *datagramConn) Recv() ([]byte, error) { return d.RecvAppend(nil) }

func (d *datagramConn) RecvAppend(dst []byte) ([]byte, error) {
	if d.closed.Load() {
		return dst, ErrClosed
	}
	n, addr, err := d.pc.ReadFrom(d.buf)
	if err != nil {
		return dst, err
	}
	if !d.fixedPeer {
		d.mu.Lock()
		d.peer = addr
		d.mu.Unlock()
	}
	out := grow(dst, n)
	copy(out[len(dst):], d.buf[:n])
	return out, nil
}

func (d *datagramConn) SetDeadline(t time.Time) error { return d.pc.SetDeadline(t) }

func (d *datagramConn) RemoteAddr() net.Addr {
	if peer := d.currentPeer(); peer != nil {
		return peer
	}
	return d.pc.LocalAddr()
}

func (d *datagramConn) Close() error {
	if d.closed.Swap(true) {
		return nil
	}
	return d.pc.Close()
}

// ---- engine ----

// Semantics describe how a protocol's messages travel; they mirror the
// attributes attached to k-colored transitions (Fig. 4). A colour's are
// SemanticsOf its binder's framer.
type Semantics struct {
	// Transport is "tcp" or "udp".
	Transport string
	// Multicast requests a multicast-capable UDP socket.
	Multicast bool
}

// Engine opens listeners and client connections with the right transport
// and framing. The zero value is ready to use.
type Engine struct {
	// DialTimeout bounds connection establishment in Dial (default
	// DefaultDialTimeout).
	DialTimeout time.Duration
}

// Listen binds a server endpoint.
func (Engine) Listen(sem Semantics, addr string, framer Framer) (Listener, error) {
	switch sem.Transport {
	case "", "tcp":
		l, err := net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("network: listen tcp %s: %w", addr, err)
		}
		return &streamListener{l: l, framer: framer}, nil
	case "udp":
		if sem.Multicast {
			udpAddr, err := net.ResolveUDPAddr("udp", addr)
			if err != nil {
				return nil, fmt.Errorf("network: resolve %s: %w", addr, err)
			}
			pc, err := net.ListenMulticastUDP("udp", nil, udpAddr)
			if err != nil {
				return nil, fmt.Errorf("network: multicast listen %s: %w", addr, err)
			}
			return &datagramListener{pc: pc}, nil
		}
		pc, err := net.ListenPacket("udp", addr)
		if err != nil {
			return nil, fmt.Errorf("network: listen udp %s: %w", addr, err)
		}
		return &datagramListener{pc: pc}, nil
	default:
		return nil, fmt.Errorf("network: unknown transport %q", sem.Transport)
	}
}

// Dial opens a client endpoint.
func (e Engine) Dial(sem Semantics, addr string, framer Framer) (Conn, error) {
	timeout := e.DialTimeout
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	switch sem.Transport {
	case "", "tcp":
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, fmt.Errorf("network: dial tcp %s: %w", addr, err)
		}
		return NewStreamConn(c, framer), nil
	case "udp":
		raddr, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return nil, fmt.Errorf("network: resolve %s: %w", addr, err)
		}
		pc, err := net.ListenPacket("udp", ":0")
		if err != nil {
			return nil, fmt.Errorf("network: udp socket: %w", err)
		}
		return &datagramConn{pc: pc, peer: raddr, fixedPeer: true, buf: make([]byte, 64*1024)}, nil
	default:
		return nil, fmt.Errorf("network: unknown transport %q", sem.Transport)
	}
}

// datagramListener hands out one pseudo-connection per listener; UDP has
// no accept semantics, so Accept returns a Conn bound to the socket that
// locks onto the first peer.
type datagramListener struct {
	pc   net.PacketConn
	used bool
}

var _ Listener = (*datagramListener)(nil)

func (dl *datagramListener) Accept() (Conn, error) {
	if dl.used {
		return nil, ErrClosed
	}
	dl.used = true
	return &datagramConn{pc: dl.pc, buf: make([]byte, 64*1024)}, nil
}

func (dl *datagramListener) Addr() net.Addr { return dl.pc.LocalAddr() }
func (dl *datagramListener) Close() error   { return dl.pc.Close() }

// PacketEndpoint is a UDP socket with per-packet peer addressing, for
// servers that answer many clients on one socket (discovery agents).
type PacketEndpoint interface {
	// RecvFrom reads one datagram and its source.
	RecvFrom() ([]byte, net.Addr, error)
	// SendTo writes one datagram to a peer.
	SendTo(data []byte, peer net.Addr) error
	// SetDeadline bounds both directions.
	SetDeadline(t time.Time) error
	// LocalAddr is the bound address.
	LocalAddr() net.Addr
	// Close releases the socket.
	Close() error
}

type packetEndpoint struct {
	pc  net.PacketConn
	buf []byte
}

var _ PacketEndpoint = (*packetEndpoint)(nil)

func (p *packetEndpoint) RecvFrom() ([]byte, net.Addr, error) {
	n, addr, err := p.pc.ReadFrom(p.buf)
	if err != nil {
		return nil, nil, err
	}
	out := make([]byte, n)
	copy(out, p.buf[:n])
	return out, addr, nil
}

func (p *packetEndpoint) SendTo(data []byte, peer net.Addr) error {
	_, err := p.pc.WriteTo(data, peer)
	return err
}

func (p *packetEndpoint) SetDeadline(t time.Time) error { return p.pc.SetDeadline(t) }
func (p *packetEndpoint) LocalAddr() net.Addr           { return p.pc.LocalAddr() }
func (p *packetEndpoint) Close() error                  { return p.pc.Close() }

// ListenPacket binds a UDP socket with per-packet addressing; sem may
// request multicast membership.
func (Engine) ListenPacket(sem Semantics, addr string) (PacketEndpoint, error) {
	if sem.Multicast {
		udpAddr, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return nil, fmt.Errorf("network: resolve %s: %w", addr, err)
		}
		pc, err := net.ListenMulticastUDP("udp", nil, udpAddr)
		if err != nil {
			return nil, fmt.Errorf("network: multicast listen %s: %w", addr, err)
		}
		return &packetEndpoint{pc: pc, buf: make([]byte, 64*1024)}, nil
	}
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("network: listen packet %s: %w", addr, err)
	}
	return &packetEndpoint{pc: pc, buf: make([]byte, 64*1024)}, nil
}

// Pipe returns two in-memory connected endpoints sharing a framer — the
// test transport.
func Pipe(framer Framer) (Conn, Conn) {
	a, b := net.Pipe()
	return NewStreamConn(a, framer), NewStreamConn(b, framer)
}

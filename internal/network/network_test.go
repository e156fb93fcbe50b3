package network

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// lengthPrefixFramer frames a message behind a 4-byte big-endian length.
// No protocol here is framed so: it is the stand-in these tests use where
// any framer will do.
type lengthPrefixFramer struct{}

func (f lengthPrefixFramer) ReadMessage(r *bufio.Reader) ([]byte, error) {
	return f.AppendMessage(nil, r)
}

func (lengthPrefixFramer) AppendMessage(dst []byte, r *bufio.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return dst, err
	}
	buf := append(dst, make([]byte, binary.BigEndian.Uint32(hdr[:]))...)
	_, err := io.ReadFull(r, buf[len(dst):])
	return buf, err
}

func (lengthPrefixFramer) WriteMessage(w io.Writer, data []byte) error {
	_, err := w.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(data))), data...))
	return err
}

func TestHTTPFramer(t *testing.T) {
	f := HTTPFramer{}
	raw := "POST /x HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\n\r\nhello"
	extra := "GET /y HTTP/1.1\r\n\r\n"
	r := bufio.NewReader(strings.NewReader(raw + extra))
	got, err := f.ReadMessage(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != raw {
		t.Errorf("first message = %q", got)
	}
	got2, err := f.ReadMessage(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(got2) != extra {
		t.Errorf("second message = %q", got2)
	}
	if _, err := f.ReadMessage(r); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestHTTPFramerErrors(t *testing.T) {
	f := HTTPFramer{}
	cases := []string{
		"GET /x HTTP/1.1\r\nContent-Length: nan\r\n\r\n",
		"GET /x HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
		"GET /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
		"GET /x HTTP/1.1\r\nHost: a",
	}
	for _, c := range cases {
		if _, err := f.ReadMessage(bufio.NewReader(strings.NewReader(c))); err == nil {
			t.Errorf("ReadMessage(%q) accepted", c)
		}
	}
	huge := "POST /x HTTP/1.1\r\nContent-Length: " + strconv.Itoa(MaxMessageSize+1) + "\r\n\r\n"
	if _, err := f.ReadMessage(bufio.NewReader(strings.NewReader(huge))); !errors.Is(err, ErrMessageTooLarge) {
		t.Errorf("oversize body err = %v", err)
	}
}

// TestHTTPFramerRefusesBareLF: a head line must end in CRLF. The parsers
// end a head at its first CRLF CRLF; a framer that ended a line at a bare
// LF framed the stream below as one 72-byte packet whose CRLF CRLF lay in
// the body, and ParseRequest then read a SOAPAction header out of the body
// and took "rest" for it.
func TestHTTPFramerRefusesBareLF(t *testing.T) {
	f := HTTPFramer{}
	for _, stream := range []string{
		"POST /soap HTTP/1.1\r\nContent-Length: 24\r\nX: y\n\r\nSOAPAction: evil\r\n\r\nrest",
		"GET /x HTTP/1.1\n\r\n",
		"GET /x HTTP/1.1\r\n\n",
		"\n",
	} {
		if got, err := f.ReadMessage(bufio.NewReader(strings.NewReader(stream))); !errors.Is(err, ErrBareLF) {
			t.Errorf("ReadMessage(%q) = %q, %v; want ErrBareLF", stream, got, err)
		}
	}
	// A CR inside a line is the line's; only its end must be CRLF.
	ok := "GET /x HTTP/1.1\r\nX: a\rb\r\n\r\n"
	if got, err := f.ReadMessage(bufio.NewReader(strings.NewReader(ok))); err != nil || string(got) != ok {
		t.Errorf("ReadMessage(%q) = %q, %v", ok, got, err)
	}
}

// TestAppendMessage: a framer appends the message behind what dst holds,
// in dst's storage when it fits and in a new allocation when it does not,
// and leaves dst as it was when the read fails.
func TestAppendMessage(t *testing.T) {
	giop := append([]byte("GIOP\x01\x00\x00\x01\x00\x00\x00\x07"), "payload"...)
	for name, c := range map[string]struct {
		framer Framer
		wire   string
	}{
		"http": {HTTPFramer{}, "POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"},
		"giop": {GIOPFramer{}, string(giop)},
	} {
		long := append(make([]byte, 0, 256), "keep"...)
		short := append(make([]byte, 0, 8), "keep"...)
		for _, dst := range [][]byte{long, short} {
			r := bufio.NewReader(strings.NewReader(c.wire))
			got, err := c.framer.AppendMessage(dst, r)
			if err != nil || string(got) != "keep"+c.wire {
				t.Fatalf("%s: AppendMessage into cap %d = %q, %v", name, cap(dst), got, err)
			}
			if inPlace := &got[0] == &dst[0]; inPlace != (cap(dst) >= len(got)) {
				t.Errorf("%s: a %d-byte message into cap %d was written in place: %v", name, len(c.wire), cap(dst), inPlace)
			}
			again, err := c.framer.AppendMessage(dst, r)
			if err != io.EOF || string(again) != "keep" {
				t.Errorf("%s: AppendMessage at the end of the stream = %q, %v; want dst as it was and io.EOF", name, again, err)
			}
		}
	}
}

// TestHTTPFramerConflictingContentLength: a message smuggling two
// different Content-Length values must be rejected outright — honouring
// either value desynchronises the framing for the rest of the stream.
func TestHTTPFramerConflictingContentLength(t *testing.T) {
	f := HTTPFramer{}
	conflicting := "POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 2\r\n\r\nhello"
	if _, err := f.ReadMessage(bufio.NewReader(strings.NewReader(conflicting))); err == nil {
		t.Error("conflicting Content-Length headers accepted")
	}
	// Identical repeats are tolerated (RFC 7230 §3.3.2) and frame once.
	duplicate := "POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello"
	got, err := f.ReadMessage(bufio.NewReader(strings.NewReader(duplicate)))
	if err != nil {
		t.Fatalf("identical duplicate rejected: %v", err)
	}
	if string(got) != duplicate {
		t.Errorf("message = %q", got)
	}
}

func TestGIOPFramer(t *testing.T) {
	f := GIOPFramer{}
	msg := append([]byte("GIOP\x01\x00\x00\x00"), 0, 0, 0, 0)
	body := []byte("payload")
	msg = append(msg, body...)
	var buf bytes.Buffer
	if err := f.WriteMessage(&buf, msg); err != nil {
		t.Fatal(err)
	}
	// Size must have been patched.
	if got := binary.BigEndian.Uint32(buf.Bytes()[8:12]); got != uint32(len(body)) {
		t.Errorf("patched size = %d, want %d", got, len(body))
	}
	got, err := f.ReadMessage(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if string(got[12:]) != "payload" {
		t.Errorf("body = %q", got[12:])
	}
	if err := f.WriteMessage(io.Discard, []byte("tiny")); err == nil {
		t.Error("short GIOP message accepted")
	}
	if _, err := f.ReadMessage(bufio.NewReader(strings.NewReader("NOTG\x00\x00\x00\x00\x00\x00\x00\x00"))); err == nil {
		t.Error("bad magic accepted")
	}
	huge := binary.BigEndian.AppendUint32([]byte("GIOP\x01\x00\x00\x00"), MaxMessageSize+1)
	if _, err := f.ReadMessage(bufio.NewReader(bytes.NewReader(huge))); !errors.Is(err, ErrMessageTooLarge) {
		t.Errorf("oversize body err = %v", err)
	}
}

func TestPipeExchange(t *testing.T) {
	a, b := Pipe(lengthPrefixFramer{})
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() {
		msg, err := b.Recv()
		if err != nil {
			done <- err
			return
		}
		done <- b.Send(append([]byte("echo:"), msg...))
	}()
	if err := a.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	reply, err := a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "echo:ping" {
		t.Errorf("reply = %q", reply)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestTCPListenDial(t *testing.T) {
	var eng Engine
	l, err := eng.Listen(Semantics{Transport: "tcp"}, "127.0.0.1:0", lengthPrefixFramer{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		defer c.Close()
		msg, err := c.Recv()
		if err != nil {
			t.Errorf("server recv: %v", err)
			return
		}
		if err := c.Send(msg); err != nil {
			t.Errorf("server send: %v", err)
		}
	}()
	c, err := eng.Dial(Semantics{Transport: "tcp"}, l.Addr().String(), lengthPrefixFramer{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte("round")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "round" {
		t.Errorf("echo = %q", got)
	}
	if c.RemoteAddr() == nil {
		t.Error("no remote addr")
	}
	wg.Wait()
}

func TestUDPExchange(t *testing.T) {
	var eng Engine
	l, err := eng.Listen(Semantics{Transport: "udp"}, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		msg, err := srv.Recv()
		if err != nil {
			t.Errorf("server recv: %v", err)
			return
		}
		if err := srv.Send(append([]byte("ack:"), msg...)); err != nil {
			t.Errorf("server send: %v", err)
		}
	}()
	c, err := eng.Dial(Semantics{Transport: "udp"}, l.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte("dgram")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "ack:dgram" {
		t.Errorf("reply = %q", got)
	}
	wg.Wait()
	// Second Accept on a datagram listener is refused.
	if _, err := l.Accept(); !errors.Is(err, ErrClosed) {
		t.Errorf("second accept err = %v", err)
	}
}

func TestDatagramConnStates(t *testing.T) {
	var eng Engine
	l, err := eng.Listen(Semantics{Transport: "udp"}, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := l.Accept()
	// Server cannot send before a peer is known.
	if err := srv.Send([]byte("x")); err == nil {
		t.Error("send without peer accepted")
	}
	if srv.RemoteAddr() == nil {
		t.Error("fallback addr missing")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close err = %v", err)
	}
	if _, err := srv.Recv(); !errors.Is(err, ErrClosed) {
		t.Errorf("recv after close err = %v", err)
	}
}

func TestUnknownTransport(t *testing.T) {
	var eng Engine
	if _, err := eng.Listen(Semantics{Transport: "carrier-pigeon"}, ":0", nil); err == nil {
		t.Error("unknown transport accepted for listen")
	}
	if _, err := eng.Dial(Semantics{Transport: "carrier-pigeon"}, "localhost:1", nil); err == nil {
		t.Error("unknown transport accepted for dial")
	}
}

func TestDialErrors(t *testing.T) {
	var eng Engine
	if _, err := eng.Dial(Semantics{Transport: "udp"}, "bad::addr::", nil); err == nil {
		t.Error("bad udp addr accepted")
	}
	if _, err := eng.Listen(Semantics{Transport: "tcp"}, "256.256.256.256:0", nil); err == nil {
		t.Error("bad tcp listen addr accepted")
	}
}

func BenchmarkPipeRoundTrip(b *testing.B) {
	a, c := Pipe(lengthPrefixFramer{})
	defer a.Close()
	defer c.Close()
	go func() {
		for {
			msg, err := c.Recv()
			if err != nil {
				return
			}
			if err := c.Send(msg); err != nil {
				return
			}
		}
	}()
	payload := bytes.Repeat([]byte("x"), 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(payload); err != nil {
			b.Fatal(err)
		}
		if _, err := a.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPacketEndpoint(t *testing.T) {
	var eng Engine
	srv, err := eng.ListenPacket(Semantics{Transport: "udp"}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.LocalAddr() == nil {
		t.Fatal("no local addr")
	}
	// Two independent clients get their replies at their own sockets.
	for i := 0; i < 2; i++ {
		c, err := eng.Dial(Semantics{Transport: "udp"}, srv.LocalAddr().String(), nil)
		if err != nil {
			t.Fatal(err)
		}
		msg := []byte{byte('a' + i)}
		if err := c.Send(msg); err != nil {
			t.Fatal(err)
		}
		if err := srv.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
			t.Fatal(err)
		}
		data, peer, err := srv.RecvFrom()
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(msg) {
			t.Errorf("data = %q", data)
		}
		if err := srv.SendTo(append([]byte("ack"), data...), peer); err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(2 * time.Second))
		reply, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if string(reply) != "ack"+string(msg) {
			t.Errorf("reply = %q", reply)
		}
		c.Close()
	}
}

func TestListenPacketMulticast(t *testing.T) {
	var eng Engine
	ep, err := eng.ListenPacket(Semantics{Transport: "udp", Multicast: true}, "239.255.250.250:0")
	if err != nil {
		t.Skipf("multicast unavailable in this environment: %v", err)
	}
	ep.Close()
}

func TestListenMulticastListener(t *testing.T) {
	var eng Engine
	l, err := eng.Listen(Semantics{Transport: "udp", Multicast: true}, "239.255.250.251:0", nil)
	if err != nil {
		t.Skipf("multicast unavailable: %v", err)
	}
	l.Close()
}

func TestListenPacketErrors(t *testing.T) {
	var eng Engine
	if _, err := eng.ListenPacket(Semantics{Transport: "udp"}, "bad::addr::"); err == nil {
		t.Error("bad addr accepted")
	}
	if _, err := eng.ListenPacket(Semantics{Transport: "udp", Multicast: true}, "bad::addr::"); err == nil {
		t.Error("bad multicast addr accepted")
	}
}

func TestDatagramServerRepliesToLatestPeer(t *testing.T) {
	var eng Engine
	l, err := eng.Listen(Semantics{Transport: "udp"}, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	serve := func() {
		msg, err := srv.Recv()
		if err != nil {
			return
		}
		srv.Send(append([]byte("re:"), msg...))
	}
	for i := 0; i < 2; i++ {
		c, err := eng.Dial(Semantics{Transport: "udp"}, l.Addr().String(), nil)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() { serve(); close(done) }()
		if err := c.Send([]byte{byte('0' + i)}); err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(2 * time.Second))
		reply, err := c.Recv()
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if string(reply) != "re:"+string(byte('0'+i)) {
			t.Errorf("client %d reply = %q", i, reply)
		}
		<-done
		c.Close()
	}
}

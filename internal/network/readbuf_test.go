package network

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"starlink/internal/testutil"
)

// rawPipe is a stream connection over one end of net.Pipe and the raw
// other end, for writing bytes no framer made.
func rawPipe(framer Framer) (*streamConn, net.Conn) {
	near, far := net.Pipe()
	return NewStreamConn(near, framer).(*streamConn), far
}

// distinctReaders takes two readers from the pool and puts them back. A
// reader pooled twice can come out twice.
func distinctReaders(t *testing.T) {
	t.Helper()
	a, b := readers.Get().(*bufio.Reader), readers.Get().(*bufio.Reader)
	if a == b {
		t.Error("the pool handed out one reader twice: it was put back twice")
	}
	readers.Put(a)
	readers.Put(b)
}

// TestCloseDuringRecv: Close from another goroutine while Recv is blocked
// halfway through a message. The Recv fails, the reader goes back to the
// pool once — by the Recv, after its read ended — and the next connection
// to take it reads its own bytes exactly, none of the half message the
// closed one left in it. Run it under -race -count=50.
func TestCloseDuringRecv(t *testing.T) {
	for i := 0; i < 20; i++ {
		s, far := rawPipe(lengthPrefixFramer{})
		done := make(chan error, 1)
		go func() {
			_, err := s.Recv()
			done <- err
		}()
		// Ten bytes announced, three sent: once Write returns they sit in
		// the reader's buffer and Recv waits for the rest.
		if _, err := far.Write([]byte{0, 0, 0, 10, 'o', 'l', 'd'}); err != nil {
			t.Fatal(err)
		}
		if got := s.state.Load(); got != connReading {
			t.Fatalf("state during a blocked Recv = %d, want %d", got, connReading)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err == nil {
			t.Fatal("Recv of a half message survived Close")
		}
		if s.r != nil {
			t.Fatal("the interrupted Recv kept the reader")
		}
		if _, err := s.Recv(); err != ErrClosed {
			t.Errorf("Recv after Close = %v, want ErrClosed", err)
		}
		s.Close() // a second Close returns nothing to the pool
		far.Close()
		distinctReaders(t)

		next, nextFar := rawPipe(lengthPrefixFramer{})
		want := []byte("fresh bytes")
		go lengthPrefixFramer{}.WriteMessage(nextFar, want)
		got, err := next.Recv()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("next connection read %q, %v; want %q", got, err, want)
		}
		next.Close()
		nextFar.Close()
	}
}

// TestCloseWhileIdle: Close between messages returns the reader at once;
// a connection closed before it ever read has none to return.
func TestCloseWhileIdle(t *testing.T) {
	s, far := rawPipe(lengthPrefixFramer{})
	defer far.Close()
	go lengthPrefixFramer{}.WriteMessage(far, []byte("one"))
	if _, err := s.Recv(); err != nil {
		t.Fatal(err)
	}
	if s.r == nil {
		t.Fatal("the reader left between messages")
	}
	s.Close()
	if s.r != nil {
		t.Error("Close while idle kept the reader")
	}
	distinctReaders(t)

	unread, unreadFar := rawPipe(lengthPrefixFramer{})
	unreadFar.Close()
	unread.Close()
	if unread.r != nil {
		t.Error("a connection that never read holds a reader")
	}
}

// TestPipelinedBytesStayWithTheirConn: two requests in one write leave
// the second in the first connection's reader after the first Recv. A
// second connection reading meanwhile gets a reader of its own, and the
// first still reads its second request exactly.
func TestPipelinedBytesStayWithTheirConn(t *testing.T) {
	first := "POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\none"
	second := "POST /b HTTP/1.1\r\nContent-Length: 3\r\n\r\ntwo"
	a, aFar := rawPipe(HTTPFramer{})
	defer a.Close()
	defer aFar.Close()
	go aFar.Write([]byte(first + second))
	if got, err := a.Recv(); err != nil || string(got) != first {
		t.Fatalf("a's first Recv = %q, %v", got, err)
	}
	if a.r.Buffered() != len(second) {
		t.Fatalf("a's reader holds %d bytes, want the %d of its second request", a.r.Buffered(), len(second))
	}

	other := "GET /other HTTP/1.1\r\n\r\n"
	b, bFar := rawPipe(HTTPFramer{})
	go bFar.Write([]byte(other))
	if got, err := b.Recv(); err != nil || string(got) != other {
		t.Fatalf("b's Recv = %q, %v", got, err)
	}
	if b.r == a.r {
		t.Fatal("two open connections share a reader")
	}
	b.Close()
	bFar.Close()

	if got, err := a.Recv(); err != nil || string(got) != second {
		t.Fatalf("a's second Recv = %q, %v; want %q", got, err, second)
	}
}

// TestFramedPacketOutlivesReader: what HTTPFramer and GIOPFramer return
// is the framer's own copy, so it is unchanged after its connection has
// closed and the reader it came through has served another one.
func TestFramedPacketOutlivesReader(t *testing.T) {
	giop := func(fill byte) []byte {
		msg := binary.BigEndian.AppendUint32([]byte("GIOP\x01\x00\x00\x00"), 64)
		return append(msg, bytes.Repeat([]byte{fill}, 64)...)
	}
	for name, c := range map[string]struct {
		framer        Framer
		first, second []byte
	}{
		"http": {HTTPFramer{}, []byte("POST /x HTTP/1.1\r\nContent-Length: 4\r\n\r\naaaa"), []byte("POST /y HTTP/1.1\r\nContent-Length: 4\r\n\r\nbbbb")},
		"giop": {GIOPFramer{}, giop('a'), giop('b')},
	} {
		s, far := rawPipe(c.framer)
		go far.Write(c.first)
		packet, err := s.Recv()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		kept := bytes.Clone(packet)
		s.Close()
		far.Close()

		next, nextFar := rawPipe(c.framer)
		go nextFar.Write(c.second)
		if got, err := next.Recv(); err != nil || !bytes.Equal(got, c.second) {
			t.Fatalf("%s: next Recv = %q, %v", name, got, err)
		}
		if !bytes.Equal(packet, kept) {
			t.Errorf("%s: the packet changed to %q after its reader served another connection", name, packet)
		}
		next.Close()
		nextFar.Close()
	}
}

// TestConnCycleAllocBudget: once the pool is warm, a loopback
// Dial → Send → Recv → Close allocates the sockets and the one message,
// not a 4 KB read buffer for each end of the connection. The sockets are
// most of it — Dial with a timeout and Accept come to about 1.8 KB on
// go1.24 — so the budget is 3 KB: one unpooled reader would break it, and
// with one per end the cycle allocated 10.2 KB.
func TestConnCycleAllocBudget(t *testing.T) {
	var eng Engine
	l, err := eng.Listen(Semantics{Transport: "tcp"}, "127.0.0.1:0", lengthPrefixFramer{})
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, func(c Conn) {
		for {
			msg, err := c.Recv()
			if err != nil || c.Send(msg) != nil {
				return
			}
		}
	})
	defer srv.Close()
	msg := []byte("ping")
	cycle := func() error {
		c, err := eng.Dial(Semantics{Transport: "tcp"}, srv.Addr(), lengthPrefixFramer{})
		if err != nil {
			return err
		}
		defer c.Close()
		if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
			return err
		}
		if err := c.Send(msg); err != nil {
			return err
		}
		_, err = c.Recv()
		return err
	}
	if err := cycle(); err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := cycle(); err != nil {
				b.Fatal(err)
			}
		}
	})
	if testutil.RaceEnabled {
		return
	}
	if perCycle := res.AllocedBytesPerOp(); perCycle > 3<<10 {
		t.Errorf("a Dial/Send/Recv/Close cycle allocated %d bytes, budget 3 KB", perCycle)
	}
}

package network

import (
	"net"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"starlink/internal/testutil"
)

// flakyListener fails its first Accept calls the way a process out of
// file descriptors does, then behaves.
type flakyListener struct {
	Listener
	failures atomic.Int32
}

func (l *flakyListener) Accept() (Conn, error) {
	if l.failures.Add(-1) >= 0 {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
	}
	return l.Listener.Accept()
}

// TestAcceptLoopSurvivesAcceptErrors: three failed accepts must not end
// the loop — the connection that follows is served — and closing the
// listener must.
func TestAcceptLoopSurvivesAcceptErrors(t *testing.T) {
	inner, err := Engine{}.Listen(Semantics{}, "127.0.0.1:0", lengthPrefixFramer{})
	if err != nil {
		t.Fatal(err)
	}
	l := &flakyListener{Listener: inner}
	l.failures.Store(3)
	served := make(chan Conn, 1) // one connection is dialled
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		AcceptLoop(l.Accept, func(c Conn) { served <- c })
	}()
	client, err := Engine{}.Dial(Semantics{}, l.Addr().String(), lengthPrefixFramer{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	select {
	case c := <-served:
		c.Close()
	case <-returned:
		t.Fatal("the accept loop returned on an accept error; the listener is still open")
	case <-time.After(5 * time.Second):
		t.Fatal("no connection served after the accept errors")
	}
	if n := l.failures.Load(); n >= 0 {
		t.Fatalf("%d scripted accept failures were never reached", n+1)
	}
	l.Close()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("the accept loop did not return after the listener closed")
	}
}

// TestAcceptLoopEndsWithDatagramListener: a datagram listener hands out
// its one pseudo-connection and then reports ErrClosed, which ends the
// loop without a Close.
func TestAcceptLoopEndsWithDatagramListener(t *testing.T) {
	l, err := Engine{}.Listen(Semantics{Transport: "udp"}, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conns := 0
	AcceptLoop(l.Accept, func(Conn) { conns++ })
	if conns != 1 {
		t.Errorf("served %d connections, want 1", conns)
	}
}

// TestServeSurvivesAcceptErrors: a server whose listener is out of file
// descriptors for its first two accepts serves the connection behind them,
// and Close — the second one too — returns with every goroutine joined.
func TestServeSurvivesAcceptErrors(t *testing.T) {
	testutil.NoLeaks(t, func() {
		inner, err := Engine{}.Listen(Semantics{}, "127.0.0.1:0", lengthPrefixFramer{})
		if err != nil {
			t.Fatal(err)
		}
		l := &flakyListener{Listener: inner}
		l.failures.Store(2)
		srv := Serve(l, func(c Conn) {
			for {
				data, err := c.Recv()
				if err != nil {
					return
				}
				if c.Send(data) != nil {
					return
				}
			}
		})
		client, err := Engine{}.Dial(Semantics{}, srv.Addr(), lengthPrefixFramer{})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		client.SetDeadline(time.Now().Add(5 * time.Second))
		if err := client.Send([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		if got, err := client.Recv(); err != nil || string(got) != "ping" {
			t.Fatalf("echo through the server = %q, %v; it stopped accepting at the first accept error", got, err)
		}
		if n := l.failures.Load(); n >= 0 {
			t.Fatalf("%d scripted accept failures were never reached", n+1)
		}
		// The handler is still in Recv: Close has a live connection to close.
		if err := srv.Close(); err != nil {
			t.Errorf("Close = %v", err)
		}
		if err := srv.Close(); err != nil {
			t.Errorf("second Close = %v, want nil", err)
		}
		if _, err := client.Recv(); err == nil {
			t.Error("the connection outlived Close")
		}
	})
}

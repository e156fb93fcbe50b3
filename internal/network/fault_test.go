package network

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// pipePair returns two connected FaultConn-wrappable endpoints.
func pipePair() (Conn, Conn) {
	return Pipe(lengthPrefixFramer{})
}

func TestFaultConnPassthrough(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	fa := NewFaultConn(a)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := fa.Send([]byte("hello")); err != nil {
			t.Error(err)
		}
	}()
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Errorf("got %q", got)
	}
	wg.Wait()
}

func TestFaultConnScriptedSendError(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	fa := NewFaultConn(a)
	boom := errors.New("boom")
	// Fail the second send only.
	fa.ScriptSend(Fault{After: 1, Err: boom})

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := b.Recv(); err != nil {
			t.Error(err)
		}
		if _, err := b.Recv(); err != nil {
			t.Error(err)
		}
	}()
	if err := fa.Send([]byte("one")); err != nil {
		t.Fatalf("first send: %v", err)
	}
	if err := fa.Send([]byte("two")); !errors.Is(err, boom) {
		t.Fatalf("second send err = %v, want boom", err)
	}
	// The script is consumed: the next send goes through.
	if err := fa.Send([]byte("three")); err != nil {
		t.Fatalf("third send: %v", err)
	}
	<-done
}

func TestFaultConnScriptedRecvDefaultsToErrInjected(t *testing.T) {
	a, _ := pipePair()
	defer a.Close()
	fa := NewFaultConn(a)
	fa.ScriptRecv(Fault{})
	if _, err := fa.Recv(); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}

func TestFaultConnDropSend(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	fa := NewFaultConn(a)
	fa.ScriptSend(Fault{Drop: true})

	// The dropped message reports success but never arrives.
	if err := fa.Send([]byte("lost")); err != nil {
		t.Fatal(err)
	}
	go fa.Send([]byte("kept"))
	b.SetDeadline(time.Now().Add(2 * time.Second))
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "kept" {
		t.Errorf("got %q, want the message after the dropped one", got)
	}
}

func TestFaultConnDelay(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	fa := NewFaultConn(a)
	fa.ScriptSend(Fault{Delay: 30 * time.Millisecond, Err: ErrInjected})
	start := time.Now()
	if err := fa.Send([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("fault fired after %v, want >= 30ms", elapsed)
	}
}

func TestIsTransportError(t *testing.T) {
	transport := []error{
		io.EOF,
		io.ErrUnexpectedEOF,
		io.ErrClosedPipe,
		net.ErrClosed,
		ErrClosed,
		ErrInjected,
		&net.OpError{Op: "read", Err: errors.New("connection reset by peer")},
	}
	for _, err := range transport {
		if !IsTransportError(err) {
			t.Errorf("IsTransportError(%v) = false, want true", err)
		}
	}
	protocol := []error{
		nil,
		ErrMessageTooLarge,
		errors.New("network: bad Content-Length \"x\""),
		errors.New("parse error"),
	}
	for _, err := range protocol {
		if IsTransportError(err) {
			t.Errorf("IsTransportError(%v) = true, want false", err)
		}
	}
	// A real dead-socket error from the stack classifies as transport.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	var eng Engine
	if _, err := eng.Dial(Semantics{Transport: "tcp"}, addr, lengthPrefixFramer{}); !IsTransportError(err) {
		t.Errorf("refused dial classified as non-transport: %v", err)
	}
}

func TestEngineDialTimeoutConfigurable(t *testing.T) {
	// A live listener accepts regardless of the timeout setting.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	eng := Engine{DialTimeout: 500 * time.Millisecond}
	conn, err := eng.Dial(Semantics{Transport: "tcp"}, l.Addr().String(), lengthPrefixFramer{})
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// Zero falls back to the default rather than an instant timeout.
	if DefaultDialTimeout != 10*time.Second {
		t.Errorf("DefaultDialTimeout = %v", DefaultDialTimeout)
	}
}

// TestRecvAppend: each Conn appends what it receives to dst, in dst's
// storage, whether the message comes over a stream, as a datagram, or
// through a FaultConn that drops the one before it.
func TestRecvAppend(t *testing.T) {
	var eng Engine
	l, err := eng.Listen(Semantics{Transport: "udp"}, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	udpServer, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	udpClient, err := eng.Dial(Semantics{Transport: "udp"}, l.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer udpClient.Close()
	streamClient, streamServer := pipePair()
	defer streamClient.Close()
	defer streamServer.Close()
	faultClient, faultServer := pipePair()
	defer faultClient.Close()
	defer faultServer.Close()
	dropping := NewFaultConn(faultServer)
	dropping.ScriptRecv(Fault{Drop: true})

	for name, c := range map[string]struct {
		from, to Conn
		sends    []string
	}{
		"stream":   {streamClient, streamServer, []string{"message"}},
		"datagram": {udpClient, udpServer, []string{"message"}},
		"fault":    {faultClient, dropping, []string{"dropped", "message"}},
	} {
		go func() {
			for _, m := range c.sends {
				c.from.Send([]byte(m))
			}
		}()
		if err := c.to.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		dst := append(make([]byte, 0, 64), "keep"...)
		got, err := c.to.RecvAppend(dst)
		if err != nil || string(got) != "keepmessage" || &got[0] != &dst[0] {
			t.Errorf("%s: RecvAppend = %q, %v; want \"keepmessage\" in dst's storage", name, got, err)
		}
	}
}

package main

import (
	"sync"

	"starlink/internal/network"
)

// exchange is one request and its reply as they crossed a tee, whole
// framed messages.
type exchange struct {
	request, reply []byte
}

// tee is a framed TCP relay that records what it forwards: every message
// a client sends is passed to the upstream address and every reply passed
// back, one request then one reply at a time, which is how every protocol
// the benchmark drives behaves.
type tee struct {
	listener network.Listener
	upstream string
	framer   network.Framer

	mu        sync.Mutex
	exchanges []exchange
	conns     []network.Conn
	closed    bool
	wg        sync.WaitGroup
}

func startTee(upstream string, framer network.Framer) (*tee, error) {
	l, err := network.Engine{}.Listen(network.Semantics{Transport: "tcp"}, "127.0.0.1:0", framer)
	if err != nil {
		return nil, err
	}
	t := &tee{listener: l, upstream: upstream, framer: framer}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for {
			down, err := l.Accept()
			if err != nil {
				return // listener closed
			}
			t.wg.Add(1)
			go t.relay(down)
		}
	}()
	return t, nil
}

func (t *tee) addr() string { return t.listener.Addr().String() }

// track registers a connection for close, refusing it once the tee closed.
func (t *tee) track(c network.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	t.conns = append(t.conns, c)
	return true
}

func (t *tee) relay(down network.Conn) {
	defer t.wg.Done()
	defer down.Close()
	up, err := network.Engine{}.Dial(network.Semantics{Transport: "tcp"}, t.upstream, t.framer)
	if err != nil {
		return
	}
	defer up.Close()
	if !t.track(down) || !t.track(up) {
		return
	}
	for {
		req, err := down.Recv()
		if err != nil {
			return
		}
		if up.Send(req) != nil {
			return
		}
		rep, err := up.Recv()
		if err != nil {
			return
		}
		t.mu.Lock()
		t.exchanges = append(t.exchanges, exchange{request: req, reply: rep})
		t.mu.Unlock()
		if down.Send(rep) != nil {
			return
		}
	}
}

// captured returns the exchanges recorded so far, in order.
func (t *tee) captured() []exchange {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]exchange(nil), t.exchanges...)
}

// close stops the relay and waits for its goroutines.
func (t *tee) close() {
	t.listener.Close()
	t.mu.Lock()
	conns := t.conns
	t.closed = true
	t.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	t.wg.Wait()
}

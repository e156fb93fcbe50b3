package network

import (
	"errors"
	"net"
	"sync"
	"time"
)

// AcceptLoop hands every connection accept yields to serve until the
// listener is closed: accept reporting net.ErrClosed or ErrClosed (the
// datagram listener's one-shot Accept ends that way) is the only thing
// that returns. Any other error — EMFILE or ECONNABORTED under
// connection churn — is survived: the loop sleeps a backoff that starts
// at 5 ms and doubles to a 1 s cap, as net/http's Serve does, and tries
// again, so a burst of failures cannot leave a process that is up but no
// longer accepts. serve must not block; it owns the connection.
func AcceptLoop[C any](accept func() (C, error), serve func(C)) {
	var delay time.Duration
	for {
		conn, err := accept()
		if err == nil {
			delay = 0
			serve(conn)
			continue
		}
		if errors.Is(err, net.ErrClosed) || errors.Is(err, ErrClosed) {
			return
		}
		delay = min(max(2*delay, 5*time.Millisecond), time.Second)
		time.Sleep(delay)
	}
}

// Server is a listener being served: one goroutine per connection, each
// running the handler Serve was given, under the accept loop above.
type Server struct {
	listener Listener

	mu     sync.Mutex
	conns  map[Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Serve starts handing every connection l yields to handle, each on a
// goroutine of its own. The server owns l and the connections: a
// connection is closed when handle returns, and all of them by Close.
func Serve(l Listener, handle func(Conn)) *Server {
	s := &Server{listener: l, conns: make(map[Conn]struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		AcceptLoop(l.Accept, func(c Conn) {
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				c.Close()
				return
			}
			s.conns[c] = struct{}{}
			s.wg.Add(1)
			s.mu.Unlock()
			go func() {
				defer s.wg.Done()
				handle(c)
				c.Close()
				s.mu.Lock()
				delete(s.conns, c)
				s.mu.Unlock()
			}()
		})
	}()
	return s
}

// Addr returns the bound address ("host:port").
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Close stops accepting, closes the live connections and returns once
// every handler has. A second Close waits the same way and returns nil.
func (s *Server) Close() error {
	s.mu.Lock()
	var err error
	if !s.closed {
		s.closed = true
		err = s.listener.Close()
		for c := range s.conns {
			c.Close()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

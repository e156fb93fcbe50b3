package network

import (
	"errors"
	"net"
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

// Fault injection and failure classification. FaultConn is the test
// transport the engine's failure suites script against; IsTransportError
// is how the automata engine decides whether a failed service exchange
// is worth retrying on a fresh connection.
package network

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// ErrInjected is the default error returned by scripted FaultConn faults.
var ErrInjected = errors.New("network: injected fault")

// IsTransportError reports whether err looks like a transport-level
// failure (peer gone, connection reset, timeout, dial refused) rather
// than a protocol-level one (malformed frame, oversized message). Only
// transport errors are worth retrying on a fresh connection: a protocol
// error would just reproduce.
func IsTransportError(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrMessageTooLarge) {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, ErrClosed) || errors.Is(err, ErrInjected) {
		return true
	}
	var netErr net.Error
	if errors.As(err, &netErr) {
		return true
	}
	var opErr *net.OpError
	return errors.As(err, &opErr)
}

// Fault is one scripted fault point of a FaultConn. Faults of a
// direction are consumed in order; each Send/Recv call consumes at most
// the next fault whose After count has been reached.
type Fault struct {
	// After is the number of successful operations in this direction
	// before the fault fires: 0 fires on the very next call.
	After int
	// Delay is slept before the fault acts (simulates a slow peer).
	Delay time.Duration
	// Err is returned by the faulted call; nil defaults to ErrInjected
	// unless Drop is set.
	Err error
	// Drop makes Send discard the message while reporting success, and
	// Recv skip one inbound message and deliver the following one.
	Drop bool
}

// FaultConn wraps any Conn with scripted error, delay and drop points so
// tests can reproduce mid-exchange transport failures deterministically.
// It is safe for the one-sender/one-receiver use the engine makes of a
// Conn.
type FaultConn struct {
	// Inner is the wrapped transport.
	Inner Conn

	mu           sync.Mutex
	sendScript   []Fault
	recvScript   []Fault
	sends, recvs int
}

var _ Conn = (*FaultConn)(nil)

// NewFaultConn wraps inner with an empty fault script.
func NewFaultConn(inner Conn) *FaultConn { return &FaultConn{Inner: inner} }

// ScriptSend appends faults to the send script.
func (f *FaultConn) ScriptSend(faults ...Fault) {
	f.mu.Lock()
	f.sendScript = append(f.sendScript, faults...)
	f.mu.Unlock()
}

// ScriptRecv appends faults to the receive script.
func (f *FaultConn) ScriptRecv(faults ...Fault) {
	f.mu.Lock()
	f.recvScript = append(f.recvScript, faults...)
	f.mu.Unlock()
}

// next pops the head fault when its After count has been reached.
func next(script *[]Fault, done int) (Fault, bool) {
	if len(*script) == 0 || (*script)[0].After > done {
		return Fault{}, false
	}
	fault := (*script)[0]
	*script = (*script)[1:]
	return fault, true
}

// Send implements Conn, consulting the send script first.
func (f *FaultConn) Send(data []byte) error {
	f.mu.Lock()
	fault, fired := next(&f.sendScript, f.sends)
	if !fired {
		f.sends++
	}
	f.mu.Unlock()
	if fired {
		if fault.Delay > 0 {
			time.Sleep(fault.Delay)
		}
		if fault.Drop {
			return nil
		}
		if fault.Err != nil {
			return fault.Err
		}
		return ErrInjected
	}
	return f.Inner.Send(data)
}

// Recv implements Conn.
func (f *FaultConn) Recv() ([]byte, error) { return f.RecvAppend(nil) }

// RecvAppend implements Conn, consulting the receive script first.
func (f *FaultConn) RecvAppend(dst []byte) ([]byte, error) {
	f.mu.Lock()
	fault, fired := next(&f.recvScript, f.recvs)
	if !fired {
		f.recvs++
	}
	f.mu.Unlock()
	if fired {
		if fault.Delay > 0 {
			time.Sleep(fault.Delay)
		}
		if fault.Drop {
			// Swallow one inbound message, deliver the next.
			if _, err := f.Inner.RecvAppend(dst); err != nil {
				return dst, err
			}
			return f.Inner.RecvAppend(dst)
		}
		if fault.Err != nil {
			return dst, fault.Err
		}
		return dst, ErrInjected
	}
	return f.Inner.RecvAppend(dst)
}

// SetDeadline implements Conn.
func (f *FaultConn) SetDeadline(t time.Time) error { return f.Inner.SetDeadline(t) }

// RemoteAddr implements Conn.
func (f *FaultConn) RemoteAddr() net.Addr { return f.Inner.RemoteAddr() }

// Close implements Conn.
func (f *FaultConn) Close() error { return f.Inner.Close() }

// Package bufpool is the shared encode-buffer pool for the wire codecs
// that render into a bytes.Buffer (httpwire, jsonrpc, and the GIOP framer's
// patched copy of a message; the binary and XML MDL engines pool writers of
// their own, which carry more than a buffer, under the same discipline). Every Marshal/Compose on the mediation hot path runs per
// message, and the engine retains the returned wire bytes (fault
// recovery replays the last request), so codecs cannot hand out their
// scratch buffers directly. The discipline is: render into a pooled
// buffer, copy out a right-sized slice, return the buffer to the pool.
// The copy is one allocation of exactly the message size; the render
// scratch — which grows geometrically and dominated the old per-call
// cost — is amortised away.
package bufpool

import (
	"bytes"
	"sync"
)

// maxRetain bounds the capacity of buffers returned to the pool. A
// single oversized message (e.g. a photo feed) would otherwise pin its
// high-water-mark buffer forever.
const maxRetain = 64 << 10

var pool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Get returns an empty buffer. Callers must return it with Put and must
// not retain its contents past the Put — copy out with Bytes first.
func Get() *bytes.Buffer {
	return pool.Get().(*bytes.Buffer)
}

// Put resets b and returns it to the pool. Buffers that grew past
// maxRetain are dropped instead, so one huge message does not pin its
// scratch space for the life of the process.
func Put(b *bytes.Buffer) {
	if b == nil || b.Cap() > maxRetain {
		return
	}
	b.Reset()
	pool.Put(b)
}

// Bytes copies b's contents into a fresh right-sized slice, safe to
// retain after the buffer is pooled again.
func Bytes(b *bytes.Buffer) []byte {
	return append([]byte(nil), b.Bytes()...)
}

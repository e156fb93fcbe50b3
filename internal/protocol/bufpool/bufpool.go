// Package bufpool is the shared render-buffer pool of the two wire
// writers that still render into a bytes.Buffer: jsonrpc's body encoder
// and the GIOP framer's patched copy of a message. Each renders into a
// pooled buffer, takes what it needs out of it — a right-sized copy
// (Bytes), or one Write — and puts the buffer back, so the scratch, which
// grows geometrically, is paid for once and not per message.
//
// MaxRetain is the one retention cap of every growing byte buffer pooled
// on the message path: these, the MDL engines' writers and readers, the
// binders' body buffers and the engine's per-flow packet buffers.
package bufpool

import (
	"bytes"
	"sync"
)

// MaxRetain bounds the capacity of a buffer put back in a pool. A single
// oversized message (e.g. a photo feed) would otherwise pin its
// high-water-mark buffer for the life of the process; a buffer that grew
// past it is dropped instead.
const MaxRetain = 64 << 10

var pool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Get returns an empty buffer. Callers must return it with Put and must
// not retain its contents past the Put — copy out with Bytes first.
func Get() *bytes.Buffer {
	return pool.Get().(*bytes.Buffer)
}

// Put resets b and returns it to the pool, unless it grew past
// MaxRetain.
func Put(b *bytes.Buffer) {
	if b == nil || b.Cap() > MaxRetain {
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

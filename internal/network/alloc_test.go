package network

import (
	"bufio"
	"bytes"
	"io"
	"runtime"
	"strings"
	"testing"

	"starlink/internal/testutil"
)

// TestReadMessageAllocBudget: a message is copied once between the socket
// and whoever parses it. Reading a 20 KB HTTP response allocates the one
// packet, a tenth over its size at most — not a string per header line, a
// body buffer and a growing copy of both — and a GIOP message its one
// buffer.
func TestReadMessageAllocBudget(t *testing.T) {
	http := []byte("HTTP/1.1 200 OK\r\nContent-Type: application/atom+xml\r\nContent-Length: 20480\r\n\r\n" + strings.Repeat("x", 20<<10))
	giop := append([]byte("GIOP\x01\x00\x00\x01\x00\x00\x01\xf4"), make([]byte, 500)...)
	for name, c := range map[string]struct {
		framer Framer
		wire   []byte
		allocs float64
	}{
		"http": {HTTPFramer{}, http, 1},
		"giop": {GIOPFramer{}, giop, 1},
	} {
		src := bytes.NewReader(c.wire)
		r := bufio.NewReader(src)
		read := func() {
			src.Reset(c.wire)
			r.Reset(src)
			got, err := c.framer.ReadMessage(r)
			if err != nil || len(got) != len(c.wire) {
				t.Fatalf("%s: ReadMessage = %d bytes, %v", name, len(got), err)
			}
			if _, err := c.framer.ReadMessage(r); err != io.EOF {
				t.Fatalf("%s: after the message: %v, want io.EOF", name, err)
			}
		}
		allocs := testing.AllocsPerRun(100, read)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 100
		for i := 0; i < runs; i++ {
			read()
		}
		runtime.ReadMemStats(&after)
		perRead := float64(after.TotalAlloc-before.TotalAlloc) / runs
		if testutil.RaceEnabled {
			continue
		}
		if allocs > c.allocs {
			t.Errorf("%s: reading one message allocated %.0f times, budget %.0f", name, allocs, c.allocs)
		}
		if budget := 1.1 * float64(len(c.wire)); perRead > budget {
			t.Errorf("%s: reading a %d-byte message allocated %.0f bytes, budget %.0f", name, len(c.wire), perRead, budget)
		}
	}
}

// retainingWriter keeps a copy of every write, and counts them.
type retainingWriter struct {
	writes int
	last   []byte
}

func (w *retainingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.last = append(w.last[:0], p...)
	return len(p), nil
}

// TestWriteMessageAllocBudget: a GIOP message is patched in a pooled copy,
// so once the pool is warm sending one allocates nothing; it still goes out
// in one Write, with its MessageSize set, and the caller's bytes — which the
// engine may send again — are left as they were.
func TestWriteMessageAllocBudget(t *testing.T) {
	msg := append([]byte("GIOP\x01\x00\x00\x01\xde\xad\xbe\xef"), bytes.Repeat([]byte{7}, 500)...)
	sent := bytes.Clone(msg)
	want := bytes.Clone(msg)
	copy(want[8:12], []byte{0, 0, 1, 0xf4})
	var w retainingWriter
	for i := 0; i < 2; i++ {
		if err := (GIOPFramer{}).WriteMessage(&w, msg); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.last, want) {
			t.Fatalf("send %d wrote % x..., want % x...", i+1, w.last[:16], want[:16])
		}
		if !bytes.Equal(msg, sent) {
			t.Fatalf("send %d changed the caller's bytes: % x...", i+1, msg[:16])
		}
	}
	w.writes = 0
	allocs := testing.AllocsPerRun(100, func() {
		if err := (GIOPFramer{}).WriteMessage(&w, msg); err != nil {
			t.Fatal(err)
		}
	})
	if w.writes != 101 {
		t.Errorf("101 messages went out in %d writes", w.writes)
	}
	if testutil.RaceEnabled {
		return
	}
	if allocs > 0 {
		t.Errorf("writing one message allocated %.0f times, budget 0", allocs)
	}
}

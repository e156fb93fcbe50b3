package network_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"
	"testing"

	"starlink/internal/network"
	"starlink/internal/protocol/httpwire"
)

// framed reads a stream message by message, as ReadMessage frames it and
// as AppendMessage frames it into no buffer, a short dirty one and a long
// dirty one, and fails t where the four disagree on a packet or an error,
// or a packet exceeds network.MaxMessageSize. It returns the packets.
func framed(t *testing.T, framer network.Framer, stream []byte) [][]byte {
	dirty := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = 0xaa
		}
		return b[:0]
	}
	// The smallest buffer bufio allows, so a head line longer than it is
	// read in pieces.
	reader := func() *bufio.Reader { return bufio.NewReaderSize(bytes.NewReader(stream), 16) }
	owned := reader()
	appended := []*bufio.Reader{reader(), reader(), reader()}
	dsts := [][]byte{nil, dirty(7), dirty(4096)}
	var packets [][]byte
	for {
		want, wantErr := framer.ReadMessage(owned)
		for i, r := range appended {
			got, err := framer.AppendMessage(dsts[i][:0], r)
			if !bytes.Equal(got, want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("AppendMessage into cap %d = %q, %v; ReadMessage = %q, %v", cap(dsts[i]), got, err, want, wantErr)
			}
			if cap(got) > cap(dsts[i]) {
				dsts[i] = got
			}
		}
		if wantErr != nil {
			return packets
		}
		if len(want) > network.MaxMessageSize {
			t.Fatalf("a %d-byte packet, past MaxMessageSize", len(want))
		}
		packets = append(packets, want)
	}
}

// FuzzHTTPFramer: the framer and the parsers agree on where a head ends.
// Every packet httpwire parses has a body exactly as long as the
// Content-Length the framer read it by.
func FuzzHTTPFramer(f *testing.F) {
	for _, seed := range []string{
		"POST /x HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\n\r\nhelloGET /y HTTP/1.1\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Type: text/xml\r\nContent-Length: 7\r\n\r\n<a>b</a",
		"POST /soap HTTP/1.1\r\nContent-Length: 24\r\nX: y\n\r\nSOAPAction: evil\r\n\r\nrest",
		"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello",
		"POST /x HTTP/1.1\r\ncontent-length:  +3 \r\n\r\nabc",
		"GET /x HTTP/1.1\r\nX: a\rb\r\n\r\n",
		"GET /x HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		for _, packet := range framed(t, network.HTTPFramer{}, stream) {
			var headers httpwire.Headers
			var body []byte
			if req, err := httpwire.ParseRequest(packet); err == nil {
				headers, body = req.Headers, req.Body
			} else if resp, err := httpwire.ParseResponse(packet); err == nil {
				headers, body = resp.Headers, resp.Body
			} else {
				continue
			}
			length := 0
			if v := headers.Get("Content-Length"); v != "" {
				var err error
				if length, err = strconv.Atoi(v); err != nil {
					t.Fatalf("framed %q by a Content-Length httpwire reads as %q", packet, v)
				}
			}
			if len(body) != length {
				t.Fatalf("framed %q: httpwire parses a %d-byte body, Content-Length %d", packet, len(body), length)
			}
		}
	})
}

// FuzzGIOPFramer: every packet is as long as the size its header states.
func FuzzGIOPFramer(f *testing.F) {
	msg := func(body string) []byte {
		return append(binary.BigEndian.AppendUint32([]byte("GIOP\x01\x00\x00\x00"), uint32(len(body))), body...)
	}
	f.Add(append(msg("payload"), msg("")...))
	f.Add(msg("x")[:14])
	f.Add([]byte("GIO"))
	f.Add([]byte("NOTG\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add(binary.BigEndian.AppendUint32([]byte("GIOP\x01\x00\x00\x00"), network.MaxMessageSize))
	f.Fuzz(func(t *testing.T, stream []byte) {
		for _, packet := range framed(t, network.GIOPFramer{}, stream) {
			if len(packet) < 12 || string(packet[:4]) != "GIOP" || len(packet)-12 != int(binary.BigEndian.Uint32(packet[8:12])) {
				t.Fatalf("framed %q, which its header does not describe", packet)
			}
		}
	})
}

package ssdp

import "testing"

// FuzzParseSearch: no datagram panics the parser, and a search it accepts
// marshals to one it parses back to the same search.
func FuzzParseSearch(f *testing.F) {
	f.Add(SearchRequest{ST: printerURN, MX: 2}.Marshal())
	f.Add([]byte("M-SEARCH * HTTP/1.1\r\nst: ssdp:all\r\nMx: 1\r\n\r\n"))
	f.Add([]byte("M-SEARCH * HTTP/1.1\r\nMX: 1\r\n\r\n"))
	f.Add([]byte("M-SEARCH * HTTP/1.1\r\nST: a\r\nST: b\r\nMX: -3x\r\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSearch(data)
		if err != nil {
			return
		}
		back, err := ParseSearch(s.Marshal())
		if err != nil {
			t.Fatalf("%+v: re-parse failed: %v", s, err)
		}
		if back != s {
			t.Fatalf("round trip %+v -> %+v", s, back)
		}
	})
}

// FuzzParseResponse: the same for the unicast answer to a search.
func FuzzParseResponse(f *testing.F) {
	f.Add(SearchResponse{ST: printerURN, USN: "uuid:x", Location: "http://x/d.xml"}.Marshal())
	f.Add([]byte("HTTP/1.1 200 OK\r\nLocation: http://y\r\nst: z\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 404 Not Found\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 200\r\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ParseResponse(data)
		if err != nil {
			return
		}
		back, err := ParseResponse(r.Marshal())
		if err != nil {
			t.Fatalf("%+v: re-parse failed: %v", r, err)
		}
		if back != r {
			t.Fatalf("round trip %+v -> %+v", r, back)
		}
	})
}

package httpwire

import (
	"bytes"
	"testing"
)

func FuzzParseRequest(f *testing.F) {
	f.Add([]byte("GET /x HTTP/1.1\r\nHost: a\r\n\r\n"))
	f.Add([]byte("POST /p?a=1 HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi"))
	f.Add([]byte("M-SEARCH * HTTP/1.1\r\nST: x\r\n\r\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseRequest(data)
		// RequestBody reads the head by ParseRequest's grammar in place:
		// it refuses what ParseRequest refuses, and finds the same target
		// and body.
		target, body, inPlace := RequestBody(data)
		if (err == nil) != (inPlace == nil) || err == nil && (string(target) != req.Target || !bytes.Equal(body, req.Body)) {
			t.Fatalf("ParseRequest(%q) = %v, RequestBody %q %q %v", data, err, target, body, inPlace)
		}
		if err != nil {
			return
		}
		// Successful parses must survive a marshal/parse round trip.
		back, err := ParseRequest(req.Marshal())
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if back.Method != req.Method || back.Target != req.Target {
			t.Fatalf("round trip changed request line: %q %q", back.Method, back.Target)
		}
		req.QueryValue("a") // must not panic
	})
}

func FuzzParseResponse(f *testing.F) {
	f.Add([]byte("HTTP/1.1 200 OK\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 +201\r\nX: y\r\n\r\nbody"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nno colon\r\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := ParseResponse(data)
		// ResponseBody reads the head by ParseResponse's grammar in
		// place: it refuses what ParseResponse refuses, and finds the same
		// status and body.
		status, body, inPlace := ResponseBody(data)
		if (err == nil) != (inPlace == nil) || err == nil && (status != resp.Status || !bytes.Equal(body, resp.Body)) {
			t.Fatalf("ParseResponse(%q) = %v, ResponseBody %d %q %v", data, err, status, body, inPlace)
		}
		if err != nil {
			return
		}
		if _, err := ParseResponse(resp.Marshal()); err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
	})
}

package ssdp

import (
	"errors"
	"strings"
	"testing"
)

const printerURN = "urn:schemas-upnp-org:service:Printer:1"

func startResponder(t *testing.T) *Responder {
	t.Helper()
	r, err := NewResponder("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	r.Register(SearchResponse{
		ST:       printerURN,
		USN:      "uuid:p1::" + printerURN,
		Location: "http://printer1.example/desc.xml",
	})
	r.Register(SearchResponse{
		ST:       printerURN,
		USN:      "uuid:p2::" + printerURN,
		Location: "http://printer2.example/desc.xml",
	})
	return r
}

func TestSearchRoundTrip(t *testing.T) {
	r := startResponder(t)
	responses, err := Search(r.Addr(), printerURN, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(responses) != 2 {
		t.Fatalf("responses = %+v", responses)
	}
	if responses[0].Location != "http://printer1.example/desc.xml" {
		t.Errorf("location = %q", responses[0].Location)
	}
	if responses[1].USN != "uuid:p2::"+printerURN {
		t.Errorf("usn = %q", responses[1].USN)
	}
}

func TestSearchAll(t *testing.T) {
	r := startResponder(t)
	responses, err := Search(r.Addr(), "ssdp:all", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(responses) != 2 {
		t.Errorf("ssdp:all responses = %d", len(responses))
	}
}

func TestSearchNoMatch(t *testing.T) {
	r := startResponder(t)
	if _, err := Search(r.Addr(), "urn:nothing", 1, 1); !errors.Is(err, ErrNoResponse) {
		t.Errorf("err = %v, want ErrNoResponse", err)
	}
}

func TestMessageMarshalParse(t *testing.T) {
	req := SearchRequest{ST: printerURN, MX: 2}
	wire := req.Marshal()
	s := string(wire)
	if !strings.HasPrefix(s, "M-SEARCH * HTTP/1.1\r\n") {
		t.Errorf("request line: %q", s)
	}
	if !strings.Contains(s, `MAN: "ssdp:discover"`) {
		t.Errorf("MAN header missing: %q", s)
	}
	back, err := ParseSearch(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back != req {
		t.Errorf("round trip = %+v", back)
	}

	resp := SearchResponse{ST: printerURN, USN: "uuid:x", Location: "http://x"}
	rback, err := ParseResponse(resp.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if rback != resp {
		t.Errorf("response round trip = %+v", rback)
	}
}

// TestHeaderNamesIgnoreCase: SSDP field names are matched without regard
// to case (RFC 7230 §3.2), so a device that writes "Location:" or "st:" is
// understood like one that writes them in capitals.
func TestHeaderNamesIgnoreCase(t *testing.T) {
	search, err := ParseSearch([]byte("M-SEARCH * HTTP/1.1\r\nHost: 239.255.255.250:1900\r\nMan: \"ssdp:discover\"\r\nmx: 2\r\nst: " + printerURN + "\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := (SearchRequest{ST: printerURN, MX: 2}); search != want {
		t.Errorf("mixed-case search = %+v, want %+v", search, want)
	}
	resp, err := ParseResponse([]byte("HTTP/1.1 200 OK\r\nCache-Control: max-age=1800\r\nLocation: http://printer3.example/desc.xml\r\nSt: " + printerURN + "\r\nUsn: uuid:p3\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := (SearchResponse{ST: printerURN, USN: "uuid:p3", Location: "http://printer3.example/desc.xml"}); resp != want {
		t.Errorf("mixed-case response = %+v, want %+v", resp, want)
	}
}

func TestParseErrors(t *testing.T) {
	bad := [][]byte{
		nil,
		[]byte("GET / HTTP/1.1\r\n\r\n"),
		[]byte("M-SEARCH /wrong HTTP/1.1\r\n\r\n"),
		[]byte("M-SEARCH * HTTP/1.1\r\nMX: 1\r\n\r\n"), // no ST
	}
	for _, raw := range bad {
		if _, err := ParseSearch(raw); !errors.Is(err, ErrMalformed) {
			t.Errorf("ParseSearch(%q) err = %v", raw, err)
		}
	}
	if _, err := ParseResponse([]byte("HTTP/1.1 404 Not Found\r\n\r\n")); !errors.Is(err, ErrMalformed) {
		t.Errorf("non-200 response err = %v", err)
	}
	if _, err := ParseResponse([]byte("junk")); !errors.Is(err, ErrMalformed) {
		t.Errorf("junk response err = %v", err)
	}
}

func TestResponderIgnoresGarbage(t *testing.T) {
	r := startResponder(t)
	// Garbage datagrams must not kill the responder.
	responses, err := Search(r.Addr(), printerURN, 1, 1)
	if err != nil || len(responses) != 1 {
		t.Fatalf("pre-garbage search: %v", err)
	}
	// (Search ignores anything unparsable; the responder ignores non
	// M-SEARCH datagrams by construction, verified by the next search.)
	responses, err = Search(r.Addr(), printerURN, 1, 1)
	if err != nil || len(responses) != 1 {
		t.Fatalf("post-garbage search: %v", err)
	}
}

func TestResponderCloseIdempotent(t *testing.T) {
	r, err := NewResponder("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

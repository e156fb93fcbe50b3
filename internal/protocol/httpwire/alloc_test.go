package httpwire

import (
	"testing"

	"starlink/internal/testutil"
)

// TestRoundTripAllocBudget guards the pooled Marshal path: one
// request/response marshal+parse round-trip must stay within a fixed
// allocation budget, so buffer-pool regressions show up as test
// failures rather than throughput loss. A parsed message is three
// allocations: its head's one copy, its headers, one slice of their number,
// and the struct.
func TestRoundTripAllocBudget(t *testing.T) {
	req := &Request{
		Method: "POST",
		Target: "/services/rest/?method=flickr.photos.search",
		Headers: Headers{
			{"Content-Type", "application/x-www-form-urlencoded"},
			{"Host", "api.flickr.com"},
		},
		Body: []byte("text=shibuya&per_page=2"),
	}
	resp := &Response{
		Status:  200,
		Headers: Headers{{"Content-Type", "text/xml"}},
		Body:    []byte(`<rsp stat="ok"></rsp>`),
	}
	allocs := testing.AllocsPerRun(200, func() {
		wreq := req.Marshal()
		if _, err := ParseRequest(wreq); err != nil {
			t.Fatal(err)
		}
		wresp := resp.Marshal()
		if _, err := ParseResponse(wresp); err != nil {
			t.Fatal(err)
		}
	})
	if testutil.RaceEnabled {
		t.Skipf("race detector enabled; measured %.1f allocs/op unasserted", allocs)
	}
	if allocs > 8 {
		t.Errorf("request+response round-trip allocated %.1f times per op, budget 8", allocs)
	}
}

// TestMarshalAllocBudget: Marshal works out the message's length before it
// writes it, so a message is one allocation, and AppendTo into a buffer
// that has room for it is none; it writes there what Marshal returns,
// behind what the buffer holds.
func TestMarshalAllocBudget(t *testing.T) {
	for _, m := range []interface {
		Marshal() []byte
		AppendTo([]byte) []byte
	}{
		&Request{Method: "POST", Target: "/soap", Headers: Headers{{"SOAPAction", `"Plus"`}, {"Content-Length", "99"}},
			Body: []byte("<x/>")},
		&Request{Method: "GET", Target: "/", Proto: "HTTP/1.0"},
		&Response{Status: 201, Headers: Headers{{"Content-Type", "text/xml"}}, Body: make([]byte, 12345)},
		&Response{Status: 404, Reason: "Gone Fishing"},
	} {
		want := m.Marshal()
		dst := append(make([]byte, 0, 16<<10), "keep"...)
		if got := m.AppendTo(dst); string(got) != "keep"+string(want) || &got[0] != &dst[0] {
			t.Errorf("AppendTo = %.80q, want \"keep\"%.80q in the buffer's storage", got, want)
		}
		owned := testing.AllocsPerRun(100, func() { m.Marshal() })
		borrowed := testing.AllocsPerRun(100, func() { m.AppendTo(dst) })
		if testutil.RaceEnabled {
			continue
		}
		if owned != 1 || borrowed != 0 {
			t.Errorf("Marshal of %.80q allocated %.0f times and AppendTo %.0f, want 1 and 0", want, owned, borrowed)
		}
	}
}

// TestBodyInPlaceAllocBudget: RequestBody and ResponseBody check a head
// where it stands and hand back the body where it is, so reading a
// packet's body through them allocates nothing; ParseRequest and
// ParseResponse, which read the head by the same grammar, cost three each.
func TestBodyInPlaceAllocBudget(t *testing.T) {
	req := (&Request{Method: "POST", Target: "/soap", Headers: Headers{{"Content-Type", "text/xml"}}, Body: []byte("<a/>")}).Marshal()
	resp := (&Response{Status: 200, Headers: Headers{{"Content-Type", "text/xml"}}, Body: []byte("<b/>")}).Marshal()
	allocs := testing.AllocsPerRun(200, func() {
		if target, body, err := RequestBody(req); err != nil || string(target) != "/soap" || string(body) != "<a/>" {
			t.Fatal(target, body, err)
		}
		if status, body, err := ResponseBody(resp); err != nil || status != 200 || string(body) != "<b/>" {
			t.Fatal(status, body, err)
		}
	})
	if testutil.RaceEnabled {
		t.Skipf("race detector enabled; measured %.1f allocs/op unasserted", allocs)
	}
	if allocs != 0 {
		t.Errorf("reading a request's and a response's body in place allocated %.1f times, want 0", allocs)
	}
}

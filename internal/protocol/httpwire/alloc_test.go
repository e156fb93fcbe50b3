package httpwire

import (
	"testing"

	"starlink/internal/testutil"
)

// TestRoundTripAllocBudget guards the pooled Marshal path: one
// request/response marshal+parse round-trip must stay within a fixed
// allocation budget, so buffer-pool regressions show up as test
// failures rather than throughput loss. A parsed message's headers are one
// slice of their number.
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
	if allocs > 10 {
		t.Errorf("request+response round-trip allocated %.1f times per op, budget 10", allocs)
	}
}

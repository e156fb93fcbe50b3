package soap

import (
	"testing"

	"starlink/internal/testutil"
)

// TestRoundTripAllocBudget guards the direct writer and the token decoder:
// one request marshal+parse round-trip is the document, the list of params
// and the strings the reader has not seen before (the method's name; a
// one-byte string costs nothing): 4 measured, where the field tree in
// between made it 20. The budget leaves one.
func TestRoundTripAllocBudget(t *testing.T) {
	params := []Param{{Name: "a", Value: "2"}, {Name: "b", Value: "3"}}
	allocs := testing.AllocsPerRun(200, func() {
		wire, err := MarshalRequest("add", params)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ParseRequest(wire); err != nil {
			t.Fatal(err)
		}
	})
	if testutil.RaceEnabled {
		t.Skipf("race detector enabled; measured %.1f allocs/op unasserted", allocs)
	}
	if allocs > 5 {
		t.Errorf("marshal+parse round-trip allocated %.1f times per op, budget 5", allocs)
	}
}

package soap

import (
	"testing"

	"starlink/internal/testutil"
)

// TestRoundTripAllocBudget guards the direct writer and the scanner: one
// request marshal+parse round-trip must stay within a fixed allocation
// budget.
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
	if allocs > 20 {
		t.Errorf("marshal+parse round-trip allocated %.1f times per op, budget 20", allocs)
	}
}

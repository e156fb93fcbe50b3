package xmlrpc

import (
	"testing"

	"starlink/internal/testutil"
)

// TestRoundTripAllocBudget guards the direct writer and the scanner: one call
// marshal+parse round-trip must stay within a fixed allocation budget.
func TestRoundTripAllocBudget(t *testing.T) {
	allocs := testing.AllocsPerRun(200, func() {
		wire, err := MarshalCall("add", int64(2), int64(3))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ParseCall(wire); err != nil {
			t.Fatal(err)
		}
	})
	if testutil.RaceEnabled {
		t.Skipf("race detector enabled; measured %.1f allocs/op unasserted", allocs)
	}
	if allocs > 25 {
		t.Errorf("marshal+parse round-trip allocated %.1f times per op, budget 25", allocs)
	}
}

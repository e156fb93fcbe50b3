package giop

import (
	"testing"

	"starlink/internal/message"
	"starlink/internal/testutil"
)

// TestRoundTripAllocBudget guards the pooled writer and the parse slabs:
// composing one GIOP request is the packet, parsing it the eight allocations
// binenc.TestParseAllocBudget counts. Nine measured; the budget leaves one.
func TestRoundTripAllocBudget(t *testing.T) {
	codec, err := NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	req := NewRequest(7, "Adder", "add", []*message.Field{IntParam(2), IntParam(3)})
	allocs := testing.AllocsPerRun(200, func() {
		wire, err := codec.Compose(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := codec.Parse(wire); err != nil {
			t.Fatal(err)
		}
	})
	if testutil.RaceEnabled {
		t.Skipf("race detector enabled; measured %.1f allocs/op unasserted", allocs)
	}
	if allocs > 10 {
		t.Errorf("compose+parse round-trip allocated %.1f times per op, budget 10", allocs)
	}
}

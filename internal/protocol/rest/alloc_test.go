package rest

import (
	"testing"

	"starlink/internal/testutil"
)

// TestRoundTripAllocBudget guards the direct writer and the token decoder: one feed
// marshal+parse round-trip must stay within a fixed allocation budget.
func TestRoundTripAllocBudget(t *testing.T) {
	feed := Feed{
		Title: "comments",
		Entries: []Entry{
			{ID: "c1", Title: "first", Summary: "nice shot"},
			{ID: "c2", Title: "second", Summary: "great light"},
		},
	}
	allocs := testing.AllocsPerRun(200, func() {
		wire, err := AppendFeed(nil, feed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseFeed(wire); err != nil {
			t.Fatal(err)
		}
	})
	if testutil.RaceEnabled {
		t.Skipf("race detector enabled; measured %.1f allocs/op unasserted", allocs)
	}
	if allocs > 10 {
		t.Errorf("marshal+parse round-trip allocated %.1f times per op, budget 10", allocs)
	}
}

package xmlrpc

import (
	"fmt"
	"testing"

	"starlink/internal/testutil"
)

// TestRoundTripAllocBudget guards the direct writer and the token decoder:
// one call marshal+parse round-trip must stay within a fixed allocation
// budget.
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
	if allocs > 3 {
		t.Errorf("marshal+parse round-trip allocated %.1f times per op, budget 3", allocs)
	}
}

// TestParseResponseAllocBudget pins the decoder to what its result is made
// of, on the reply the search_large workload reads: fifty three-member
// structs. A struct is its map; a string its bytes and the interface box
// Value forces; member names are interned and no field tree is built. The
// walk over a tree this replaces allocated 1 991 times here.
func TestParseResponseAllocBudget(t *testing.T) {
	photos := make([]Value, 50)
	for i := range photos {
		photos[i] = map[string]Value{
			"id":    fmt.Sprintf("photo-%04d", i),
			"owner": "alice",
			"title": fmt.Sprintf("Tree at dawn #%d", i),
		}
	}
	wire, err := MarshalResponse(map[string]Value{"photos": photos, "total": int64(len(photos))})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ParseResponse(wire); err != nil {
			t.Fatal(err)
		}
	})
	if testutil.RaceEnabled {
		t.Skipf("race detector enabled; measured %.1f allocs/op unasserted", allocs)
	}
	if allocs > 450 {
		t.Errorf("parsing a 50-struct response allocated %.0f times, budget 450", allocs)
	}
}

package message

import (
	"testing"

	"starlink/internal/testutil"
)

// allocFixture is a tree deep and wide enough that a sloppy path walk
// (splitting the path into a step slice) would show up immediately.
func allocFixture() *Message {
	return New("HTTPOK",
		NewStruct("Body",
			NewStruct("feed",
				NewStruct("entry",
					NewPrimitive("id", TypeString, "1"),
					NewPrimitive("title", TypeString, "first"),
				),
				NewStruct("entry",
					NewPrimitive("id", TypeString, "2"),
					NewPrimitive("title", TypeString, "second"),
				),
			),
		),
		NewPrimitive("Status", TypeInt64, 200),
	)
}

// TestLookupAllocBudget pins Lookup's zero-allocation contract: path
// components are scanned in place, never split into a slice.
func TestLookupAllocBudget(t *testing.T) {
	m := allocFixture()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := m.Lookup("Body.feed.entry[1].title"); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Lookup("Status"); err != nil {
			t.Fatal(err)
		}
	})
	if testutil.RaceEnabled {
		t.Skipf("race detector enabled; measured %.1f allocs/op unasserted", allocs)
	}
	if allocs > 0 {
		t.Errorf("Lookup allocated %.1f times per op, budget 0", allocs)
	}
}

// TestSetAllocBudget pins the overwrite fast path: assigning to an
// existing primitive field allocates nothing.
func TestSetAllocBudget(t *testing.T) {
	m := allocFixture()
	allocs := testing.AllocsPerRun(200, func() {
		if err := m.Set("Body.feed.entry[0].title", TypeString, "rewritten"); err != nil {
			t.Fatal(err)
		}
	})
	if testutil.RaceEnabled {
		t.Skipf("race detector enabled; measured %.1f allocs/op unasserted", allocs)
	}
	if allocs > 0 {
		t.Errorf("Set overwrite allocated %.1f times per op, budget 0", allocs)
	}
}

// TestCloneAllocBudget pins what a deep copy costs: one allocation for the
// nodes and one for the child lists, whatever the tree's size; a message
// adds itself. A leaf is its node alone.
func TestCloneAllocBudget(t *testing.T) {
	m := allocFixture()
	body, leaf := m.Fields[0], m.Fields[1]
	for _, tc := range []struct {
		name   string
		clone  func()
		budget float64
	}{
		{"field", func() { body.Clone() }, 2},
		{"leaf", func() { leaf.Clone() }, 1},
		{"message", func() { m.Clone() }, 3},
	} {
		allocs := testing.AllocsPerRun(200, tc.clone)
		if testutil.RaceEnabled {
			t.Skipf("race detector enabled; measured %.1f allocs/op unasserted", allocs)
		}
		if allocs != tc.budget {
			t.Errorf("%s: Clone allocated %.1f times per op, want %.0f", tc.name, allocs, tc.budget)
		}
	}
}

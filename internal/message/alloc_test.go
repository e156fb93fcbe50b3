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

// TestScalarAllocBudget pins what this package's value representation is
// for: a scalar costs its node and nothing beside it, and moving one into a
// node that exists costs nothing. Bytes alone sit behind a pointer.
func TestScalarAllocBudget(t *testing.T) {
	// Values the compiler cannot fold into static data.
	s, n, x, raw := string(make([]byte, 40)), int64(1)<<40, 2.5, make([]byte, 8)
	var sink *Field
	var node Field
	from, num := NewString("from", s), NewString("num", " 12345678901 ")
	for _, tc := range []struct {
		name   string
		run    func()
		budget float64
	}{
		{"NewString", func() { sink = NewString("x", s) }, 1},
		{"NewInt64", func() { sink = NewInt64("x", n) }, 1},
		{"NewUint64", func() { sink = NewUint64("x", uint64(n)) }, 1},
		{"NewBool", func() { sink = NewBool("x", true) }, 1},
		{"NewFloat64", func() { sink = NewFloat64("x", x) }, 1},
		{"NewBytes", func() { sink = NewBytes("x", raw) }, 2},
		{"setters", func() { node.SetText(s); node.SetInt64(n); node.SetFloat64(x); node.SetBool(true) }, 0},
		{"CopyScalar", func() { node.CopyScalar(from) }, 0},
		{"readers", func() { _, _, _, _ = from.Text(), num.Int64(), num.Uint64(), num.Float64() }, 0},
	} {
		allocs := testing.AllocsPerRun(200, tc.run)
		if testutil.RaceEnabled {
			t.Skipf("race detector enabled; measured %.1f allocs/op unasserted", allocs)
		}
		if allocs != tc.budget {
			t.Errorf("%s allocated %.1f times per op, want %.0f", tc.name, allocs, tc.budget)
		}
	}
	_ = sink
}

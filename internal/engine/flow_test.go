package engine

import (
	"testing"

	"starlink/internal/automata"
	"starlink/internal/casestudy"
	"starlink/internal/message"
	"starlink/internal/mtl"
	"starlink/internal/testutil"
)

// TestFlowStepAllocBudget: walking the automaton costs nothing of its
// own. A steady-state Add⊕Plus traversal, driven through next with
// prebuilt messages, allocates what its two γ programs allocate when they
// run alone on the same Env — the field nodes they write — and not one
// allocation more: events and actions are values, the Env and the bound
// messages are recycled by reset.
func TestFlowStepAllocBudget(t *testing.T) {
	merged, err := automata.Merge(casestudy.AddUsage(), casestudy.PlusUsage(), automata.MergeOptions{
		Name: "Add+Plus", Equiv: casestudy.AddPlusEquivalence(),
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPlan(merged, merged.Color1, nil)
	if err != nil {
		t.Fatal(err)
	}
	request := message.New("Add", message.NewInt64("x", 20), message.NewInt64("y", 22))
	reply := message.New("Plus.reply", message.NewInt64("result", 42))
	var f flow
	var cache mtl.Cache
	traverse := func() {
		act := f.reset(p, &cache)
		for act.kind != kDone {
			var ev event
			switch act.kind {
			case kRead:
				ev = event{op: "Add", msg: request}
			case kRecv:
				ev = event{msg: reply}
			}
			var err error
			if act, err = f.next(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	traverse()
	walk := testing.AllocsPerRun(200, traverse)
	var gammas []*mtl.CompiledProgram
	for _, st := range p.steps {
		if st.gamma != nil {
			gammas = append(gammas, st.gamma)
		}
	}
	alone := testing.AllocsPerRun(200, func() {
		for _, msg := range f.bound {
			msg.Fields = msg.Fields[:0]
		}
		for _, g := range gammas {
			if err := g.Exec(f.env); err != nil {
				t.Fatal(err)
			}
		}
	})
	if testutil.RaceEnabled {
		t.Skipf("race detector enabled; measured %.1f allocs per traversal and %.1f for its γ alone, unasserted", walk, alone)
	}
	if walk > alone {
		t.Errorf("a traversal allocates %.1f, its γ programs alone %.1f: the step adds %.1f", walk, alone, walk-alone)
	}
	t.Logf("%.1f allocations per traversal, %.1f of them its γ programs'", walk, alone)
}

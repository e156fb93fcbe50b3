package automata_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"starlink/internal/automata"
	"starlink/internal/mtl"
)

// randomLinearUsage builds a random linear API usage automaton with n
// operations; field labels are drawn from the given vocabulary with the
// given prefix so two automata can be made semantically alignable.
func randomLinearUsage(_ *rand.Rand, name, prefix string, n int, color int) *automata.Automaton {
	a := &automata.Automaton{
		Name: name, Color: color, Start: "s0",
		Messages: map[string]automata.MsgDef{},
	}
	a.States = []string{"s0"}
	cur := "s0"
	for i := 0; i < n; i++ {
		op := fmt.Sprintf("%s.op%d", prefix, i)
		mid := fmt.Sprintf("s%dm", i)
		next := fmt.Sprintf("s%d", i+1)
		a.States = append(a.States, mid, next)
		a.Transitions = append(a.Transitions,
			automata.Transition{From: cur, To: mid, Action: automata.Send, Message: op},
			automata.Transition{From: mid, To: next, Action: automata.Receive, Message: op + ".reply"},
		)
		// Arity depends only on the operation index so two automata built
		// with the same n have alignable signatures.
		nf := 1 + i%3
		var req, rep []string
		for f := 0; f < nf; f++ {
			req = append(req, fmt.Sprintf("%s_f%d_%d", prefix, i, f))
		}
		rep = append(rep, fmt.Sprintf("%s_r%d", prefix, i))
		a.Messages[op] = automata.MsgDef{Name: op, Fields: req}
		a.Messages[op+".reply"] = automata.MsgDef{Name: op + ".reply", Fields: rep}
		cur = next
	}
	a.Final = []string{cur}
	return a
}

// alignedPair returns two random automata with the same operation count
// plus the equivalence table that aligns them field-by-field.
func alignedPair(r *rand.Rand, n int) (*automata.Automaton, *automata.Automaton, *automata.Equivalence) {
	a1 := randomLinearUsage(r, "A1", "a", n, 1)
	a2 := randomLinearUsage(r, "A2", "b", n, 2)
	eq := automata.NewEquivalence()
	for i := 0; i < n; i++ {
		for f := 0; f < 3; f++ {
			eq.Add(fmt.Sprintf("a_f%d_%d", i, f), fmt.Sprintf("b_f%d_%d", i, f))
		}
		eq.Add(fmt.Sprintf("a_r%d", i), fmt.Sprintf("b_r%d", i))
	}
	return a1, a2, eq
}

// TestQuickAlignedMergeIsStrong: automata with field-aligned operations
// always merge strongly, with every operation resolved.
func TestQuickAlignedMergeIsStrong(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		a1, a2, eq := alignedPair(r, n)
		m, err := automata.Merge(a1, a2, automata.MergeOptions{Equiv: eq})
		if err != nil {
			return false
		}
		if m.Strength != automata.StronglyMerged {
			return false
		}
		if len(m.Pairings) != n {
			return false
		}
		for _, p := range m.Pairings {
			if p.Kind == automata.Unmatched {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickMergedStructureInvariants: every merge satisfies the
// structural invariants the engine relies on — Merged.Validate, exactly one
// final state, every γ program syntactically valid MTL, and colors
// confined to {Color1, Color2}.
func TestQuickMergedStructureInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		a1, a2, eq := alignedPair(r, n)
		// Shuffle a2's reply fields into a2's requests occasionally to get
		// from-history and unmatched variety.
		if r.Intn(2) == 0 {
			a2 = randomLinearUsage(r, "A2", "b", 1+r.Intn(n), 2)
		}
		m, err := automata.Merge(a1, a2, automata.MergeOptions{Equiv: eq})
		if err != nil {
			return true // not mergeable is a legal outcome
		}
		if m.Validate() != nil || len(m.Final) != 1 {
			return false
		}
		for _, tr := range m.Transitions {
			switch tr.Kind {
			case automata.KindGamma:
				src := stripComments(tr.MTL)
				if _, err := mtl.Parse(src); err != nil {
					return false
				}
			case automata.KindMessage:
				if tr.Color != m.Color1 && tr.Color != m.Color2 {
					return false
				}
			default:
				return false
			}
		}
		// Every non-final state has exactly one outgoing transition
		// (linear merges), and the final state none.
		for _, s := range m.States {
			outs := len(m.Out(s.Name))
			if m.IsFinal(s.Name) {
				if outs != 0 {
					return false
				}
			} else if outs != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func stripComments(src string) string {
	var out []string
	for _, l := range strings.Split(src, "\n") {
		if strings.HasPrefix(strings.TrimSpace(l), "#") {
			continue
		}
		out = append(out, l)
	}
	return strings.Join(out, "\n")
}

// TestQuickMergeXMLRoundTrip: merged automata survive XML serialization.
func TestQuickMergeXMLRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a1, a2, eq := alignedPair(r, 1+r.Intn(4))
		m, err := automata.Merge(a1, a2, automata.MergeOptions{Equiv: eq})
		if err != nil {
			return true
		}
		data, err := m.EncodeXML()
		if err != nil {
			return false
		}
		back, err := automata.UnmarshalMerged(data)
		if err != nil {
			return false
		}
		if len(back.States) != len(m.States) || len(back.Transitions) != len(m.Transitions) {
			return false
		}
		for i := range m.Transitions {
			a, b := m.Transitions[i], back.Transitions[i]
			if a.Kind != b.Kind || a.From != b.From || a.To != b.To || a.Message != b.Message {
				return false
			}
			if a.Kind == automata.KindGamma && strings.TrimSpace(a.MTL) != strings.TrimSpace(b.MTL) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

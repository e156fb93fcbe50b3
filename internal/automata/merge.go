package automata

import (
	"fmt"
	"slices"
	"strings"
)

// Strength classifies a merged automaton per Section 3.3: strongly merged
// when every non-intertwined invocation's reply is semantically derivable
// from replies already received; weakly merged otherwise.
type Strength int

const (
	// StronglyMerged: full interoperation is preserved.
	StronglyMerged Strength = iota + 1
	// WeaklyMerged: some replies cannot be derived and will be defaulted.
	WeaklyMerged
)

// String renders the strength.
func (s Strength) String() string {
	switch s {
	case StronglyMerged:
		return "strongly merged"
	case WeaklyMerged:
		return "weakly merged"
	default:
		return "strength(" + fmt.Sprint(int(s)) + ")"
	}
}

// PairKind says how one A1 operation was resolved during the merge.
type PairKind int

const (
	// Intertwined: mapped to one or more A2 operations (Definition 5).
	Intertwined PairKind = iota + 1
	// FromHistory: answered purely from previously exchanged data — the
	// extra/missing-message mismatch (Fig. 10).
	FromHistory
	// Unmatched: no mapping found; the reply will be defaulted (weak).
	Unmatched
)

// String renders the pairing kind.
func (k PairKind) String() string {
	switch k {
	case Intertwined:
		return "intertwined"
	case FromHistory:
		return "from-history"
	case Unmatched:
		return "unmatched"
	default:
		return "pairkind(" + fmt.Sprint(int(k)) + ")"
	}
}

// Pairing records how one A1 operation was merged.
type Pairing struct {
	// A1Request and A1Reply are the client-side operation's messages.
	A1Request, A1Reply string
	// Kind is the resolution.
	Kind PairKind
	// A2Ops are the service-side operations invoked, in order.
	A2Ops []Operation
}

// MergedKind distinguishes message transitions from γ-transitions.
type MergedKind int

const (
	// KindMessage is an ordinary colored send/receive edge.
	KindMessage MergedKind = iota + 1
	// KindGamma is a translation edge carrying MTL (Definition 8's P set).
	KindGamma
)

// MergedTransition is one edge of a merged k-colored automaton.
type MergedTransition struct {
	// From and To are merged state names.
	From, To string
	// Kind is message or gamma.
	Kind MergedKind
	// Color is the side a message edge belongs to (1 or 2).
	Color int
	// Action and Message describe a message edge (application
	// perspective: ! is the application invoking, ? its reply).
	Action  Action
	Message string
	// MTL is the translation program of a gamma edge.
	MTL string
}

// String renders the transition.
func (t MergedTransition) String() string {
	if t.Kind == KindGamma {
		return fmt.Sprintf("%s --γ--> %s", t.From, t.To)
	}
	return fmt.Sprintf("%s --[c%d]%s%s--> %s", t.From, t.Color, t.Action, t.Message, t.To)
}

// MergedState is a state of the merged automaton with its color set;
// bicolored states are the γ boundaries of Fig. 3.
type MergedState struct {
	// Name is the state name ("m0", "m1", ...).
	Name string
	// Colors lists the colors the state belongs to.
	Colors []int
}

// Bicolored reports whether the state carries both colors.
func (s MergedState) Bicolored() bool { return len(s.Colors) > 1 }

// Merged is a k-colored merged automaton A¹S1 ⊕ A²S2 (Definition 8).
type Merged struct {
	// Name identifies the merged automaton.
	Name string
	// Color1 and Color2 are the two colors (normally 1 and 2).
	Color1, Color2 int
	// Start is the initial state.
	Start string
	// Final are the accepting states.
	Final []string
	// States in creation order.
	States []MergedState
	// Transitions in creation order.
	Transitions []MergedTransition
	// Strength is the Section 3.3 classification.
	Strength Strength
	// Pairings records how each A1 operation was resolved.
	Pairings []Pairing
}

// Out returns transitions leaving a state.
func (m *Merged) Out(state string) []MergedTransition {
	var out []MergedTransition
	for _, t := range m.Transitions {
		if t.From == state {
			out = append(out, t)
		}
	}
	return out
}

// BicoloredStates lists the γ-boundary states.
func (m *Merged) BicoloredStates() []string {
	var out []string
	for _, s := range m.States {
		if s.Bicolored() {
			out = append(out, s.Name)
		}
	}
	return out
}

// IsFinal reports whether state is accepting.
func (m *Merged) IsFinal(state string) bool {
	for _, f := range m.Final {
		if f == state {
			return true
		}
	}
	return false
}

// Validate checks that a traversal can walk the automaton from its start to
// its end: the start and the final states are declared, no two states
// share a name, every transition joins declared states, none leaves a final
// state, and every state lies on a path from the start to a final state. The
// last rule refuses a state no traversal enters, a dead end, and a cycle
// with no way out — a loop of γ transitions, say, which a traversal would
// walk for ever without an action of either party. It is the twin of
// Automaton.Validate: UnmarshalMerged calls it, and so does whatever runs a
// merged automaton it did not read.
func (m *Merged) Validate() error {
	index := make(map[string]int, len(m.States))
	for i, s := range m.States {
		if _, dup := index[s.Name]; dup || s.Name == "" {
			return fmt.Errorf("%w: %s: empty or duplicate state name %q", ErrInvalid, m.Name, s.Name)
		}
		index[s.Name] = i
	}
	start, ok := index[m.Start]
	if !ok {
		return fmt.Errorf("%w: %s: start state %q not declared", ErrInvalid, m.Name, m.Start)
	}
	if len(m.Final) == 0 {
		return fmt.Errorf("%w: %s: no final states", ErrInvalid, m.Name)
	}
	var finals []int
	for _, f := range m.Final {
		i, ok := index[f]
		if !ok {
			return fmt.Errorf("%w: %s: final state %q not declared", ErrInvalid, m.Name, f)
		}
		finals = append(finals, i)
	}
	out := make([][]int, len(m.States))
	in := make([][]int, len(m.States))
	for _, t := range m.Transitions {
		from, okFrom := index[t.From]
		to, okTo := index[t.To]
		if !okFrom || !okTo {
			return fmt.Errorf("%w: %s: transition %s names an undeclared state", ErrInvalid, m.Name, t)
		}
		if m.IsFinal(t.From) {
			return fmt.Errorf("%w: %s: transition %s leaves final state %q", ErrInvalid, m.Name, t, t.From)
		}
		out[from] = append(out[from], to)
		in[to] = append(in[to], from)
	}
	order, reached := closure([]int{start}, out)
	_, ends := closure(finals, in)
	// Of the states a traversal enters and cannot leave for a final state,
	// the one it meets last is where it is stuck: a dead end, or a cycle.
	for k := len(order) - 1; k >= 0; k-- {
		if !ends[order[k]] {
			return fmt.Errorf("%w: %s: state %q has no path to a final state", ErrInvalid, m.Name, m.States[order[k]].Name)
		}
	}
	for i, s := range m.States {
		if !reached[i] {
			return fmt.Errorf("%w: %s: state %q unreachable from start", ErrInvalid, m.Name, s.Name)
		}
	}
	return nil
}

// closure lists the states the edges lead to from the states given, those
// included, in the order a breadth-first walk meets them, and marks them.
func closure(from []int, edges [][]int) (order []int, seen []bool) {
	seen = make([]bool, len(edges))
	order = slices.Clone(from)
	for _, i := range order {
		seen[i] = true
	}
	for k := 0; k < len(order); k++ {
		for _, j := range edges[order[k]] {
			if !seen[j] {
				seen[j] = true
				order = append(order, j)
			}
		}
	}
	return order, seen
}

// MergeOptions configure the automatic merge.
type MergeOptions struct {
	// Name of the resulting automaton; defaults to "A1+A2".
	Name string
	// Equiv is the semantic-equivalence relation over field labels.
	Equiv *Equivalence
	// MaxChain caps the number of A2 operations one A1 operation may
	// trigger (the one-to-many mismatch); default 3.
	MaxChain int
}

// fieldSource remembers where a semantic value was last seen: the state
// handle its message is bound to and the field label inside that message.
type fieldSource struct {
	handle string
	label  string
}

// mergeBuilder accumulates the merged automaton.
type mergeBuilder struct {
	m       *Merged
	equiv   *Equivalence
	history []fieldSource
	counter int
}

func (b *mergeBuilder) newState(colors ...int) string {
	name := fmt.Sprintf("m%d", b.counter)
	b.counter++
	b.m.States = append(b.m.States, MergedState{Name: name, Colors: colors})
	return name
}

func (b *mergeBuilder) colorState(name string, color int) {
	for i := range b.m.States {
		if b.m.States[i].Name != name {
			continue
		}
		for _, c := range b.m.States[i].Colors {
			if c == color {
				return
			}
		}
		b.m.States[i].Colors = append(b.m.States[i].Colors, color)
		return
	}
}

func (b *mergeBuilder) addMsg(from, to string, color int, action Action, msg string) {
	b.m.Transitions = append(b.m.Transitions, MergedTransition{
		From: from, To: to, Kind: KindMessage, Color: color, Action: action, Message: msg,
	})
}

func (b *mergeBuilder) addGamma(from, to, mtl string) {
	b.m.Transitions = append(b.m.Transitions, MergedTransition{
		From: from, To: to, Kind: KindGamma, MTL: mtl,
	})
}

// remember records all fields of a message bound at handle.
func (b *mergeBuilder) remember(handle string, def MsgDef) {
	for _, f := range def.Fields {
		b.history = append(b.history, fieldSource{handle: handle, label: f})
	}
}

func (b *mergeBuilder) historyLabels() []string {
	out := make([]string, len(b.history))
	for i, h := range b.history {
		out[i] = h.label
	}
	return out
}

// findSource locates the most recent history entry equivalent to label.
func (b *mergeBuilder) findSource(label string) (fieldSource, bool) {
	for i := len(b.history) - 1; i >= 0; i-- {
		if b.equiv.Equivalent(label, b.history[i].label) {
			return b.history[i], true
		}
	}
	return fieldSource{}, false
}

// genTranslation emits MTL assigning every field of target (bound at
// dstHandle) from the current history. Missing optional fields are
// skipped; missing mandatory fields yield a comment so the gap is visible
// in the generated model.
func (b *mergeBuilder) genTranslation(dstHandle string, target MsgDef) string {
	var sb strings.Builder
	mandatory := map[string]bool{}
	for _, f := range target.MandatoryFields() {
		mandatory[f] = true
	}
	for _, f := range target.Fields {
		src, ok := b.findSource(f)
		if !ok {
			if mandatory[f] {
				fmt.Fprintf(&sb, "# unresolved mandatory field %q\n", f)
			}
			continue
		}
		fmt.Fprintf(&sb, "%s.Msg.%s = %s.Msg.%s\n", dstHandle, f, src.handle, src.label)
	}
	return sb.String()
}

// Merge constructs the k-colored merged automaton of a1 (color 1, the
// application whose requests arrive) and a2 (color 2, the application
// being invoked), following Definitions 5-8. Both automata are read as
// call graphs (Operations); each a1 operation is resolved by intertwining,
// by derivation from history, or — weakly — left unmatched.
func Merge(a1, a2 *Automaton, opts MergeOptions) (*Merged, error) {
	if err := a1.Validate(); err != nil {
		return nil, err
	}
	if err := a2.Validate(); err != nil {
		return nil, err
	}
	equiv := opts.Equiv
	if equiv == nil {
		equiv = NewEquivalence()
	}
	maxChain := opts.MaxChain
	if maxChain <= 0 {
		maxChain = 3
	}
	name := opts.Name
	if name == "" {
		name = a1.Name + "+" + a2.Name
	}
	c1, c2 := a1.Color, a2.Color
	if c1 == 0 {
		c1 = 1
	}
	if c2 == 0 || c2 == c1 {
		c2 = c1 + 1
	}

	b := &mergeBuilder{
		m:     &Merged{Name: name, Color1: c1, Color2: c2},
		equiv: equiv,
	}
	ops1 := a1.Operations()
	ops2 := a2.Operations()
	consumed := make([]bool, len(ops2))

	cur := b.newState(c1)
	b.m.Start = cur
	intertwinedCount := 0

	for _, op1 := range ops1 {
		reqDef1 := a1.MsgDefOf(op1.Request)
		var replyDef1 MsgDef
		if op1.Reply != "" {
			replyDef1 = a1.MsgDefOf(op1.Reply)
		}

		// The client's request arrives (color 1, ! from the application's
		// perspective) and is bound at afterReq.
		afterReq := b.newState(c1)
		b.addMsg(cur, afterReq, c1, Send, op1.Request)
		b.remember(afterReq, reqDef1)

		// Resolution order: (1) if the client's reply is already fully
		// derivable from the exchange history, no remote call is needed —
		// the extra/missing-message mismatch of Fig. 10; (2) otherwise
		// intertwine with a chain of unconsumed A2 operations whose
		// requests are derivable and which, together, make the A1 reply
		// derivable (Definition 5, extended to one-to-many); (3) otherwise
		// the operation is unmatched and the merge is weak.
		fromHistory := op1.Reply != "" && equiv.MessageEquivalent(replyDef1, b.historyLabels())
		var chain []int
		if !fromHistory {
			chain = findChain(b, a2, ops2, consumed, replyDef1, maxChain)
		}

		pairing := Pairing{A1Request: op1.Request, A1Reply: op1.Reply}
		switch {
		case fromHistory:
			pairing.Kind = FromHistory
			cur = b.answerClient(afterReq, op1, replyDef1, c1)
		case len(chain) > 0:
			pairing.Kind = Intertwined
			intertwinedCount++
			prev := afterReq
			for _, k := range chain {
				consumed[k] = true
				op2 := ops2[k]
				pairing.A2Ops = append(pairing.A2Ops, op2)
				reqDef2 := a2.MsgDefOf(op2.Request)
				// γ into color-2 territory: prev becomes bicolored.
				b.colorState(prev, c2)
				afterReq2 := b.newState(c2)
				b.addGamma(prev, afterReq2, b.genTranslation(afterReq2, reqDef2))
				// Sent messages are composed by the γ translation at the
				// send transition's From state, so history references that
				// handle (received messages bind at the To state).
				sent2 := b.newState(c2)
				b.addMsg(afterReq2, sent2, c2, Send, op2.Request)
				b.remember(afterReq2, reqDef2)
				prev = sent2
				if op2.Reply != "" {
					replyDef2 := a2.MsgDefOf(op2.Reply)
					got2 := b.newState(c2)
					b.addMsg(prev, got2, c2, Receive, op2.Reply)
					b.remember(got2, replyDef2)
					prev = got2
				}
			}
			// γ back to color 1 and answer the client.
			b.colorState(prev, c1)
			cur = b.answerClient(prev, op1, replyDef1, c1)
		default:
			pairing.Kind = Unmatched
			if op1.Reply != "" {
				cur = b.answerClient(afterReq, op1, replyDef1, c1)
			} else {
				cur = afterReq
			}
		}
		b.m.Pairings = append(b.m.Pairings, pairing)
	}

	if intertwinedCount == 0 {
		return nil, fmt.Errorf("%w: no operation of %s could be intertwined with %s",
			ErrNotMergeable, a1.Name, a2.Name)
	}
	b.m.Final = []string{cur}
	b.m.Strength = StronglyMerged
	for _, p := range b.m.Pairings {
		if p.Kind == Unmatched {
			b.m.Strength = WeaklyMerged
			break
		}
	}
	return b.m, nil
}

// Mergeable implements the Definition 7 predicate: A1 may interact with
// A2 under the given equivalence iff their colored API usage protocols
// are mergeable, i.e. at least one operation can be intertwined so that a
// final state of the product is reachable.
func Mergeable(a1, a2 *Automaton, eq *Equivalence) bool {
	_, err := Merge(a1, a2, MergeOptions{Equiv: eq})
	return err == nil
}

// answerClient emits the γ translation composing the client reply and the
// color-1 receive edge, returning the new current state.
func (b *mergeBuilder) answerClient(from string, op1 Operation, replyDef1 MsgDef, c1 int) string {
	if op1.Reply == "" {
		return from
	}
	beforeReply := b.newState(c1)
	b.addGamma(from, beforeReply, b.genTranslation(beforeReply, replyDef1))
	done := b.newState(c1)
	b.addMsg(beforeReply, done, c1, Receive, op1.Reply)
	b.remember(beforeReply, replyDef1)
	return done
}

// findChain searches the unconsumed A2 operations for a chain satisfying
// the intertwining conditions. It returns the indices of the chain (empty
// when none exists). The first element may be any unconsumed operation
// (ordering mismatch); extensions are taken in order (one-to-many).
func findChain(b *mergeBuilder, a2 *Automaton, ops2 []Operation, consumed []bool, replyDef1 MsgDef, maxChain int) []int {
	avail := b.historyLabels()
	for k := range ops2 {
		if consumed[k] {
			continue
		}
		reqDef2 := a2.MsgDefOf(ops2[k].Request)
		if !b.equiv.MessageEquivalent(reqDef2, avail) {
			continue
		}
		// Tentatively build the chain.
		chain := []int{k}
		gained := append([]string{}, avail...)
		gained = append(gained, reqDef2.Fields...)
		if ops2[k].Reply != "" {
			gained = append(gained, a2.MsgDefOf(ops2[k].Reply).Fields...)
		}
		next := k + 1
		for len(chain) < maxChain && replyDef1.Name != "" && !b.equiv.MessageEquivalent(replyDef1, gained) {
			// Extend with the next unconsumed op whose request is derivable.
			for next < len(ops2) && consumed[next] {
				next++
			}
			if next >= len(ops2) {
				break
			}
			nd := a2.MsgDefOf(ops2[next].Request)
			if !b.equiv.MessageEquivalent(nd, gained) {
				break
			}
			chain = append(chain, next)
			gained = append(gained, nd.Fields...)
			if ops2[next].Reply != "" {
				gained = append(gained, a2.MsgDefOf(ops2[next].Reply).Fields...)
			}
			next++
		}
		if replyDef1.Name == "" || b.equiv.MessageEquivalent(replyDef1, gained) {
			return chain
		}
	}
	return nil
}

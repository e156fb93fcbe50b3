// Package automata implements Starlink's colored automata: the models of
// API usage protocols and middleware protocols (paper Section 3), the
// semantic-equivalence and intertwining operators over them, and the
// automatic construction of merged k-colored automata with γ-transitions
// (Definitions 1-8, Figs. 2-3).
package automata

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Action is the kind of a message transition: the paper's Act = {!, ?}.
type Action int

const (
	// Send is "!": invoke a remote operation / emit a message.
	Send Action = iota + 1
	// Receive is "?": receive the reply of a previous invocation.
	Receive
)

// String renders the action with the paper's notation.
func (a Action) String() string {
	switch a {
	case Send:
		return "!"
	case Receive:
		return "?"
	default:
		return "action(" + fmt.Sprint(int(a)) + ")"
	}
}

// ParseAction resolves "send"/"!"/"receive"/"?" to an Action.
func ParseAction(s string) (Action, error) {
	switch strings.ToLower(s) {
	case "send", "!":
		return Send, nil
	case "receive", "recv", "?":
		return Receive, nil
	default:
		return 0, fmt.Errorf("unknown action %q", s)
	}
}

// Errors reported by the automata layer.
var (
	// ErrInvalid is wrapped by all validation errors.
	ErrInvalid = errors.New("automata: invalid automaton")
	// ErrNotMergeable is returned when two automata cannot be merged
	// (Definition 7 fails: no final state of the product is reachable).
	ErrNotMergeable = errors.New("automata: automata are not mergeable")
)

// MsgDef is the abstract-message template attached to transitions: the
// message name and its field labels. Mandatory fields participate in
// Definition 2's Mfields set; when none is marked, all fields are
// mandatory.
type MsgDef struct {
	// Name identifies the abstract message / action label.
	Name string
	// Fields are the field labels, in declaration order.
	Fields []string
	// Optional marks the subset of Fields that are NOT mandatory.
	Optional []string
}

// MandatoryFields returns the message's mandatory field labels, sorted.
func (m MsgDef) MandatoryFields() []string {
	opt := make(map[string]bool, len(m.Optional))
	for _, f := range m.Optional {
		opt[f] = true
	}
	out := make([]string, 0, len(m.Fields))
	for _, f := range m.Fields {
		if !opt[f] {
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out
}

// Transition is one labelled edge: s1 --(action message)--> s2.
type Transition struct {
	// From and To are state names.
	From, To string
	// Action is Send or Receive.
	Action Action
	// Message names the MsgDef carried by the edge.
	Message string
}

// String renders "s0 --!m--> s1".
func (t Transition) String() string {
	return fmt.Sprintf("%s --%s%s--> %s", t.From, t.Action, t.Message, t.To)
}

// Automaton is a colored API usage (or protocol) automaton: the 6-tuple
// (Q, M, q0, F, Act, →) of Section 3.1 plus the color of Section 3.3. The
// network semantics the paper attaches to a color are not here: a color
// travels the way the protocol bound to it frames its messages (the
// `side` line of a .mediator spec).
type Automaton struct {
	// Name identifies the automaton ("AFlickr").
	Name string
	// Color is the k in k-colored (1 or 2 in a pairwise merge).
	Color int
	// Start is q0.
	Start string
	// Final is F.
	Final []string
	// States is Q, in declaration order.
	States []string
	// Transitions is →.
	Transitions []Transition
	// Messages is M, keyed by name.
	Messages map[string]MsgDef
}

// IsFinal reports whether state is in F.
func (a *Automaton) IsFinal(state string) bool {
	for _, f := range a.Final {
		if f == state {
			return true
		}
	}
	return false
}

// HasState reports whether state is in Q.
func (a *Automaton) HasState(state string) bool {
	for _, s := range a.States {
		if s == state {
			return true
		}
	}
	return false
}

// Out returns the transitions leaving state.
func (a *Automaton) Out(state string) []Transition {
	var out []Transition
	for _, t := range a.Transitions {
		if t.From == state {
			out = append(out, t)
		}
	}
	return out
}

// MsgDefOf returns the message template for name; if the automaton has no
// explicit definition, an empty template with that name is returned.
func (a *Automaton) MsgDefOf(name string) MsgDef {
	if d, ok := a.Messages[name]; ok {
		return d
	}
	return MsgDef{Name: name}
}

// Validate checks structural well-formedness: a start state, all
// transition endpoints declared, final states declared, every transition
// message resolvable, and every state reachable from the start.
func (a *Automaton) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("%w: missing name", ErrInvalid)
	}
	if a.Start == "" {
		return fmt.Errorf("%w: %s: missing start state", ErrInvalid, a.Name)
	}
	if !a.HasState(a.Start) {
		return fmt.Errorf("%w: %s: start state %q not declared", ErrInvalid, a.Name, a.Start)
	}
	if len(a.Final) == 0 {
		return fmt.Errorf("%w: %s: no final states", ErrInvalid, a.Name)
	}
	for _, f := range a.Final {
		if !a.HasState(f) {
			return fmt.Errorf("%w: %s: final state %q not declared", ErrInvalid, a.Name, f)
		}
	}
	seen := make(map[string]bool, len(a.States))
	for _, s := range a.States {
		if s == "" {
			return fmt.Errorf("%w: %s: empty state name", ErrInvalid, a.Name)
		}
		if seen[s] {
			return fmt.Errorf("%w: %s: duplicate state %q", ErrInvalid, a.Name, s)
		}
		seen[s] = true
	}
	for _, t := range a.Transitions {
		if !seen[t.From] || !seen[t.To] {
			return fmt.Errorf("%w: %s: transition %s references undeclared state", ErrInvalid, a.Name, t)
		}
		if t.Action != Send && t.Action != Receive {
			return fmt.Errorf("%w: %s: transition %s has no action", ErrInvalid, a.Name, t)
		}
		if t.Message == "" {
			return fmt.Errorf("%w: %s: transition %s has no message", ErrInvalid, a.Name, t)
		}
	}
	// Reachability.
	reach := map[string]bool{a.Start: true}
	queue := []string{a.Start}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, t := range a.Out(s) {
			if !reach[t.To] {
				reach[t.To] = true
				queue = append(queue, t.To)
			}
		}
	}
	for _, s := range a.States {
		if !reach[s] {
			return fmt.Errorf("%w: %s: state %q unreachable from start", ErrInvalid, a.Name, s)
		}
	}
	finalReachable := false
	for _, f := range a.Final {
		if reach[f] {
			finalReachable = true
			break
		}
	}
	if !finalReachable {
		return fmt.Errorf("%w: %s: no final state reachable", ErrInvalid, a.Name)
	}
	return nil
}

// Operations returns the automaton's invocation sequence along the unique
// path of Send transitions from the start (each invocation being a !m
// optionally followed by ?reply) — the "call graph" reading of Section
// 3.1. Branching automata return the operations in BFS order.
type Operation struct {
	// Request is the sent message.
	Request string
	// Reply is the received reply message ("" if none).
	Reply string
	// FromState is the state before the send.
	FromState string
}

// Operations lists the invoke/reply pairs of the automaton in traversal
// order.
func (a *Automaton) Operations() []Operation {
	var ops []Operation
	visited := map[string]bool{}
	state := a.Start
	for !visited[state] {
		visited[state] = true
		outs := a.Out(state)
		if len(outs) == 0 {
			break
		}
		t := outs[0]
		if t.Action != Send {
			state = t.To
			continue
		}
		op := Operation{Request: t.Message, FromState: state}
		// A following Receive on the next state is the reply.
		for _, rt := range a.Out(t.To) {
			if rt.Action == Receive {
				op.Reply = rt.Message
				t = rt
				break
			}
		}
		ops = append(ops, op)
		state = t.To
	}
	return ops
}

// Equivalence is the semantic-equivalence relation ≅ over field labels of
// the two automata being merged (Definition 2). It substitutes for the
// ontology/semantic model the paper leaves to future work: the developer
// (or a generator) states which field labels denote the same concept.
// The relation is symmetric and reflexive by construction.
type Equivalence struct {
	pairs map[[2]string]bool
}

// NewEquivalence builds the relation from alias pairs.
func NewEquivalence(pairs ...[2]string) *Equivalence {
	e := &Equivalence{pairs: make(map[[2]string]bool, len(pairs)*2)}
	for _, p := range pairs {
		e.Add(p[0], p[1])
	}
	return e
}

// ParsePairs reads the line form the developer-provided tables are kept
// in under models/ (.equiv, and .typemap for MTL's maptype): one
// "left = right" pair per line, blank lines and # comments skipped. want
// is what the error for a line without "=" says the line should hold.
func ParsePairs(doc, want string) ([][2]string, error) {
	var pairs [][2]string
	for lineNo, line := range strings.Split(doc, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		a, b, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("line %d: want %q", lineNo+1, want)
		}
		pairs = append(pairs, [2]string{strings.TrimSpace(a), strings.TrimSpace(b)})
	}
	return pairs, nil
}

// Add declares two field labels semantically equivalent.
func (e *Equivalence) Add(a, b string) {
	if e.pairs == nil {
		e.pairs = make(map[[2]string]bool)
	}
	e.pairs[[2]string{a, b}] = true
	e.pairs[[2]string{b, a}] = true
}

// Equivalent reports whether two labels denote the same concept.
func (e *Equivalence) Equivalent(a, b string) bool {
	if a == b {
		return true
	}
	if e == nil || e.pairs == nil {
		return false
	}
	return e.pairs[[2]string{a, b}]
}

// FindSource returns the first label of candidates equivalent to want, and
// whether one exists.
func (e *Equivalence) FindSource(want string, candidates []string) (string, bool) {
	for _, c := range candidates {
		if e.Equivalent(want, c) {
			return c, true
		}
	}
	return "", false
}

// MessageEquivalent implements Definition 2: n ≅ m⃗ holds iff every
// mandatory field of n has a semantically equivalent field in some message
// of the sequence m⃗ (given here as the union of their field labels).
func (e *Equivalence) MessageEquivalent(n MsgDef, history []string) bool {
	for _, f := range n.MandatoryFields() {
		if _, ok := e.FindSource(f, history); !ok {
			return false
		}
	}
	return true
}

package automata

import (
	"fmt"
	"strings"
)

// DOT renders the automaton in Graphviz format, mirroring the visual
// notation of Fig. 2 (double circles for accepting states, !/? edge
// labels).
func (a *Automaton) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n  node [shape=circle];\n", a.Name)
	for _, s := range a.States {
		shape := "circle"
		if a.IsFinal(s) {
			shape = "doublecircle"
		}
		fmt.Fprintf(&b, "  %q [shape=%s];\n", s, shape)
	}
	fmt.Fprintf(&b, "  _start [shape=point];\n  _start -> %q;\n", a.Start)
	for _, t := range a.Transitions {
		fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", t.From, t.To, t.Action.String()+t.Message)
	}
	b.WriteString("}\n")
	return b.String()
}

// DOT renders the merged automaton, coloring states per side and drawing
// bicolored states as the two-tone γ boundaries of Fig. 3.
func (m *Merged) DOT() string { return m.NotedDOT(nil) }

// NotedDOT is DOT with note(t) appended to the label of each transition's
// edge — a live hit count, say; a nil note appends nothing.
func (m *Merged) NotedDOT(note func(MergedTransition) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n  node [shape=circle, style=filled];\n", m.Name)
	palette := map[int]string{m.Color1: "lightblue", m.Color2: "lightsalmon"}
	for _, s := range m.States {
		fill := "white"
		switch {
		case s.Bicolored():
			fill = "lightblue;0.5:lightsalmon"
		case len(s.Colors) == 1:
			fill = palette[s.Colors[0]]
		}
		shape := "circle"
		if m.IsFinal(s.Name) {
			shape = "doublecircle"
		}
		fmt.Fprintf(&b, "  %q [shape=%s, fillcolor=%q];\n", s.Name, shape, fill)
	}
	fmt.Fprintf(&b, "  _start [shape=point];\n  _start -> %q;\n", m.Start)
	for _, t := range m.Transitions {
		label, style := t.Action.String()+t.Message, ""
		if t.Kind == KindGamma {
			label, style = "γ", ", style=dashed"
		}
		if note != nil {
			label += note(t)
		}
		fmt.Fprintf(&b, "  %q -> %q [label=%q%s];\n", t.From, t.To, label, style)
	}
	b.WriteString("}\n")
	return b.String()
}

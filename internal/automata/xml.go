package automata

import (
	"encoding/xml"
	"fmt"
	"io"
	"slices"
	"strings"
)

// The XML vocabulary below is the "XML-based Starlink language for
// k-colored automata" of Section 5.1: the on-disk form of both API usage
// automata and merged automata under models/.

type xmlAutomaton struct {
	XMLName     xml.Name        `xml:"automaton"`
	Name        string          `xml:"name,attr"`
	Color       int             `xml:"color,attr"`
	Start       string          `xml:"start,attr"`
	Network     *struct{}       `xml:"network"` // refused, see UnmarshalAutomaton
	Messages    []xmlMessage    `xml:"message"`
	States      []xmlState      `xml:"state"`
	Transitions []xmlTransition `xml:"transition"`
}

type xmlMessage struct {
	Name   string     `xml:"name,attr"`
	Fields []xmlField `xml:"field"`
}

type xmlField struct {
	Name     string `xml:"name,attr"`
	Optional bool   `xml:"optional,attr,omitempty"`
}

type xmlState struct {
	Name  string `xml:"name,attr"`
	Final bool   `xml:"final,attr,omitempty"`
}

type xmlTransition struct {
	From    string `xml:"from,attr"`
	To      string `xml:"to,attr"`
	Action  string `xml:"action,attr"`
	Message string `xml:"message,attr"`
}

// EncodeXML renders the automaton in the Starlink XML vocabulary.
func (a *Automaton) EncodeXML() ([]byte, error) {
	xa := xmlAutomaton{Name: a.Name, Color: a.Color, Start: a.Start}
	for _, name := range sortedMsgNames(a.Messages) {
		d := a.Messages[name]
		xm := xmlMessage{Name: d.Name}
		opt := make(map[string]bool, len(d.Optional))
		for _, o := range d.Optional {
			opt[o] = true
		}
		for _, f := range d.Fields {
			xm.Fields = append(xm.Fields, xmlField{Name: f, Optional: opt[f]})
		}
		xa.Messages = append(xa.Messages, xm)
	}
	for _, s := range a.States {
		xa.States = append(xa.States, xmlState{Name: s, Final: a.IsFinal(s)})
	}
	for _, t := range a.Transitions {
		action := "send"
		if t.Action == Receive {
			action = "receive"
		}
		xa.Transitions = append(xa.Transitions, xmlTransition{
			From: t.From, To: t.To, Action: action, Message: t.Message,
		})
	}
	out, err := xml.MarshalIndent(xa, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("automata: marshal %s: %w", a.Name, err)
	}
	return append([]byte(xml.Header), append(out, '\n')...), nil
}

func sortedMsgNames(m map[string]MsgDef) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	// insertion sort keeps this dependency-free and deterministic
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// UnmarshalAutomaton parses the Starlink XML vocabulary.
func UnmarshalAutomaton(r io.Reader) (*Automaton, error) {
	var xa xmlAutomaton
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&xa); err != nil {
		return nil, fmt.Errorf("automata: decode: %w", err)
	}
	a := &Automaton{
		Name:     xa.Name,
		Color:    xa.Color,
		Start:    xa.Start,
		Messages: make(map[string]MsgDef, len(xa.Messages)),
	}
	if xa.Network != nil {
		return nil, fmt.Errorf("%w: %s: <network> is not part of an automaton: a colour's transport and MDL are those of the protocol on its `side` line in the .mediator spec", ErrInvalid, xa.Name)
	}
	for _, xm := range xa.Messages {
		d := MsgDef{Name: xm.Name}
		for _, f := range xm.Fields {
			// A label declared twice has no one optionality to write back.
			if slices.Contains(d.Fields, f.Name) {
				return nil, fmt.Errorf("%w: %s: message %q declares field %q twice", ErrInvalid, xa.Name, xm.Name, f.Name)
			}
			d.Fields = append(d.Fields, f.Name)
			if f.Optional {
				d.Optional = append(d.Optional, f.Name)
			}
		}
		a.Messages[d.Name] = d
	}
	for _, xs := range xa.States {
		a.States = append(a.States, xs.Name)
		if xs.Final {
			a.Final = append(a.Final, xs.Name)
		}
	}
	for _, xt := range xa.Transitions {
		act, err := ParseAction(xt.Action)
		if err != nil {
			return nil, fmt.Errorf("automata: %s: transition %s->%s: %w", xa.Name, xt.From, xt.To, err)
		}
		a.Transitions = append(a.Transitions, Transition{
			From: xt.From, To: xt.To, Action: act, Message: xt.Message,
		})
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// ParseAutomaton parses an automaton from a string.
func ParseAutomaton(s string) (*Automaton, error) {
	return UnmarshalAutomaton(strings.NewReader(s))
}

type xmlMerged struct {
	XMLName     xml.Name             `xml:"merged"`
	Name        string               `xml:"name,attr"`
	Color1      int                  `xml:"color1,attr"`
	Color2      int                  `xml:"color2,attr"`
	Start       string               `xml:"start,attr"`
	Strength    string               `xml:"strength,attr"`
	States      []xmlMergedState     `xml:"state"`
	Transitions []xmlMergedTransient `xml:"transition"`
	Finals      []xmlState           `xml:"final"`
}

type xmlMergedState struct {
	Name   string `xml:"name,attr"`
	Colors string `xml:"colors,attr"`
}

type xmlMergedTransient struct {
	Kind    string  `xml:"kind,attr"`
	From    string  `xml:"from,attr"`
	To      string  `xml:"to,attr"`
	Color   int     `xml:"color,attr,omitempty"`
	Action  string  `xml:"action,attr,omitempty"`
	Message string  `xml:"message,attr,omitempty"`
	MTL     *xmlMTL `xml:"mtl"`
}

// xmlMTL is a γ-transition's program. It is written as a CDATA block, so
// a model file holds the MTL as it is typed — real newlines, bare quotes,
// `<` and `&` — and read as character data, which also accepts the
// escaped one-line form (&#xA;, &#34;) files were written in before.
type xmlMTL struct {
	Src string `xml:",cdata"`
}

var crlf = strings.NewReplacer("\r\n", "\n", "\r", "\n")

// EncodeXML renders the merged automaton.
func (m *Merged) EncodeXML() ([]byte, error) {
	strength := "strong"
	if m.Strength == WeaklyMerged {
		strength = "weak"
	}
	xm := xmlMerged{
		Name: m.Name, Color1: m.Color1, Color2: m.Color2,
		Start: m.Start, Strength: strength,
	}
	for _, s := range m.States {
		parts := make([]string, len(s.Colors))
		for i, c := range s.Colors {
			parts[i] = fmt.Sprint(c)
		}
		xm.States = append(xm.States, xmlMergedState{Name: s.Name, Colors: strings.Join(parts, ",")})
	}
	for _, t := range m.Transitions {
		xt := xmlMergedTransient{From: t.From, To: t.To}
		if t.Kind == KindGamma {
			xt.Kind = "gamma"
			if t.MTL != "" {
				xt.MTL = &xmlMTL{Src: t.MTL}
			}
		} else {
			xt.Kind = "message"
			xt.Color = t.Color
			xt.Action = "send"
			if t.Action == Receive {
				xt.Action = "receive"
			}
			xt.Message = t.Message
		}
		xm.Transitions = append(xm.Transitions, xt)
	}
	for _, f := range m.Final {
		xm.Finals = append(xm.Finals, xmlState{Name: f})
	}
	out, err := xml.MarshalIndent(xm, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("automata: marshal merged %s: %w", m.Name, err)
	}
	return append([]byte(xml.Header), append(out, '\n')...), nil
}

// UnmarshalMerged parses a merged automaton from its XML form.
func UnmarshalMerged(r io.Reader) (*Merged, error) {
	var xm xmlMerged
	if err := xml.NewDecoder(r).Decode(&xm); err != nil {
		return nil, fmt.Errorf("automata: decode merged: %w", err)
	}
	m := &Merged{
		Name: xm.Name, Color1: xm.Color1, Color2: xm.Color2, Start: xm.Start,
		Strength: StronglyMerged,
	}
	if xm.Strength == "weak" {
		m.Strength = WeaklyMerged
	}
	for _, xs := range xm.States {
		st := MergedState{Name: xs.Name}
		for _, c := range strings.Split(xs.Colors, ",") {
			c = strings.TrimSpace(c)
			if c == "" {
				continue
			}
			var n int
			if _, err := fmt.Sscanf(c, "%d", &n); err != nil {
				return nil, fmt.Errorf("automata: merged state %q: bad color %q", xs.Name, c)
			}
			st.Colors = append(st.Colors, n)
		}
		m.States = append(m.States, st)
	}
	for _, xt := range xm.Transitions {
		t := MergedTransition{From: xt.From, To: xt.To}
		switch xt.Kind {
		case "gamma":
			t.Kind = KindGamma
			if xt.MTL != nil {
				// XML turns a literal CR into LF, and a CDATA block cannot
				// carry one, so a CR written as &#xD; is read as LF too.
				t.MTL = crlf.Replace(xt.MTL.Src)
			}
		case "message":
			t.Kind = KindMessage
			t.Color = xt.Color
			act, err := ParseAction(xt.Action)
			if err != nil {
				return nil, fmt.Errorf("automata: merged transition %s->%s: %w", xt.From, xt.To, err)
			}
			t.Action = act
			t.Message = xt.Message
		default:
			return nil, fmt.Errorf("automata: merged transition %s->%s: unknown kind %q", xt.From, xt.To, xt.Kind)
		}
		m.Transitions = append(m.Transitions, t)
	}
	for _, f := range xm.Finals {
		m.Final = append(m.Final, f.Name)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

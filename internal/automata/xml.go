package automata

import (
	"encoding/xml"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"starlink/internal/mdl/xmlenc"
)

// The XML vocabulary below is the "XML-based Starlink language for
// k-colored automata" of Section 5.1: the on-disk form of both API usage
// automata and merged automata under models/. EncodeXML marshals the
// structs; UnmarshalAutomaton and UnmarshalMerged read a document through
// xmlenc.Reader straight into the result, which is what encoding/xml made
// of the document when it filled them (oracle_test.go holds the two to
// each other).

type xmlAutomaton struct {
	XMLName     xml.Name        `xml:"automaton"`
	Name        string          `xml:"name,attr"`
	Color       int             `xml:"color,attr"`
	Start       string          `xml:"start,attr"`
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

// UnmarshalAutomaton reads a usage automaton from its XML form. The
// document is read through xmlenc.Reader, straight into the result, and
// means what encoding/xml made of it when it filled the structs above:
// the root element must be <automaton>; elements and attributes are
// matched by their local names and the others skipped; of two attributes
// of one name the last counts; a number or a flag is trimmed and parsed,
// and an empty one is zero. A document that does not read is an error
// that says so; one that reads but is no automaton is ErrInvalid.
func UnmarshalAutomaton(data []byte) (*Automaton, error) {
	r := xmlenc.NewReader(data)
	defer r.Release()
	a, err := readAutomaton(r)
	if err != nil {
		return nil, decodeError(err)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// ParseAutomaton parses an automaton from a string.
func ParseAutomaton(s string) (*Automaton, error) {
	return UnmarshalAutomaton([]byte(s))
}

func readAutomaton(r *xmlenc.Reader) (*Automaton, error) {
	if err := readRoot(r, "automaton"); err != nil {
		return nil, err
	}
	a := &Automaton{Messages: map[string]MsgDef{}}
	for i, at := range r.Attrs() {
		var err error
		switch string(r.AttrName(i)) {
		case "name":
			a.Name = at.Value
		case "color":
			a.Color, err = attrInt("color", at.Value)
		case "start":
			a.Start = at.Value
		}
		if err != nil {
			return nil, err
		}
	}
	for {
		elem, err := r.Find("message", "state", "transition", "network")
		switch elem {
		case "":
			return a, err
		case "network":
			return nil, fmt.Errorf("%w: %s: <network> is not part of an automaton: a colour's transport and MDL are those of the protocol on its `side` line in the .mediator spec", ErrInvalid, a.Name)
		case "message":
			err = readMessage(r, a)
		case "state":
			err = readState(r, a)
		case "transition":
			err = readTransition(r, a)
		}
		if err != nil {
			return nil, err
		}
	}
}

// readMessage reads the open <message> into a.Messages.
func readMessage(r *xmlenc.Reader, a *Automaton) error {
	var d MsgDef
	for i, at := range r.Attrs() {
		if string(r.AttrName(i)) == "name" {
			d.Name = at.Value
		}
	}
	// The engine and the binders look a message up by its name.
	if _, dup := a.Messages[d.Name]; dup {
		return fmt.Errorf("%w: %s: message %q declared twice", ErrInvalid, a.Name, d.Name)
	}
	for {
		elem, err := r.Find("field")
		if err != nil {
			return err
		}
		if elem == "" {
			a.Messages[d.Name] = d
			return nil
		}
		var f string
		var optional bool
		for i, at := range r.Attrs() {
			switch string(r.AttrName(i)) {
			case "name":
				f = at.Value
			case "optional":
				optional, err = attrBool("optional", at.Value)
			}
			if err != nil {
				return err
			}
		}
		// A label declared twice has no one optionality to write back.
		if slices.Contains(d.Fields, f) {
			return fmt.Errorf("%w: %s: message %q declares field %q twice", ErrInvalid, a.Name, d.Name, f)
		}
		d.Fields = append(d.Fields, f)
		if optional {
			d.Optional = append(d.Optional, f)
		}
		if err := r.Skip(); err != nil {
			return err
		}
	}
}

// readState reads the open <state> into a.States, and a.Final if it is
// final.
func readState(r *xmlenc.Reader, a *Automaton) error {
	var s string
	var final bool
	for i, at := range r.Attrs() {
		var err error
		switch string(r.AttrName(i)) {
		case "name":
			s = at.Value
		case "final":
			final, err = attrBool("final", at.Value)
		}
		if err != nil {
			return err
		}
	}
	a.States = append(a.States, s)
	if final {
		a.Final = append(a.Final, s)
	}
	return r.Skip()
}

// readTransition reads the open <transition> into a.Transitions.
func readTransition(r *xmlenc.Reader, a *Automaton) error {
	var t Transition
	var action string
	for i, at := range r.Attrs() {
		switch string(r.AttrName(i)) {
		case "from":
			t.From = at.Value
		case "to":
			t.To = at.Value
		case "action":
			action = at.Value
		case "message":
			t.Message = at.Value
		}
	}
	act, err := ParseAction(action)
	if err != nil {
		return fmt.Errorf("%w: %s: transition %s->%s: %v", ErrInvalid, a.Name, t.From, t.To, err)
	}
	t.Action = act
	a.Transitions = append(a.Transitions, t)
	return r.Skip()
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

// UnmarshalMerged reads a merged automaton from its XML form, the way
// UnmarshalAutomaton reads a usage automaton; a γ's program is the
// character data of its last <mtl>.
func UnmarshalMerged(data []byte) (*Merged, error) {
	r := xmlenc.NewReader(data)
	defer r.Release()
	m, err := readMerged(r)
	if err != nil {
		return nil, decodeError(err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

func readMerged(r *xmlenc.Reader) (*Merged, error) {
	if err := readRoot(r, "merged"); err != nil {
		return nil, err
	}
	m := &Merged{Strength: StronglyMerged}
	for i, at := range r.Attrs() {
		var err error
		switch string(r.AttrName(i)) {
		case "name":
			m.Name = at.Value
		case "color1":
			m.Color1, err = attrInt("color1", at.Value)
		case "color2":
			m.Color2, err = attrInt("color2", at.Value)
		case "start":
			m.Start = at.Value
		case "strength":
			m.Strength = StronglyMerged
			if at.Value == "weak" {
				m.Strength = WeaklyMerged
			}
		}
		if err != nil {
			return nil, err
		}
	}
	for {
		elem, err := r.Find("state", "transition", "final")
		switch elem {
		case "":
			return m, err
		case "state":
			err = readMergedState(r, m)
		case "transition":
			err = readMergedTransition(r, m)
		case "final":
			err = readFinal(r, m)
		}
		if err != nil {
			return nil, err
		}
	}
}

// readMergedState reads the open <state> into m.States.
func readMergedState(r *xmlenc.Reader, m *Merged) error {
	var st MergedState
	var colors string
	for i, at := range r.Attrs() {
		switch string(r.AttrName(i)) {
		case "name":
			st.Name = at.Value
		case "colors":
			colors = at.Value
		}
	}
	for colors != "" {
		var c string
		c, colors, _ = strings.Cut(colors, ",")
		if c = strings.TrimSpace(c); c == "" {
			continue
		}
		n, err := strconv.Atoi(c)
		if err != nil {
			return fmt.Errorf("%w: %s: merged state %q: bad color %q", ErrInvalid, m.Name, st.Name, c)
		}
		st.Colors = append(st.Colors, n)
	}
	m.States = append(m.States, st)
	return r.Skip()
}

// readMergedTransition reads the open <transition> into m.Transitions.
func readMergedTransition(r *xmlenc.Reader, m *Merged) error {
	var t MergedTransition
	var kind, action, message string
	var color int
	for i, at := range r.Attrs() {
		var err error
		switch string(r.AttrName(i)) {
		case "kind":
			kind = at.Value
		case "from":
			t.From = at.Value
		case "to":
			t.To = at.Value
		case "color":
			color, err = attrInt("color", at.Value)
		case "action":
			action = at.Value
		case "message":
			message = at.Value
		}
		if err != nil {
			return err
		}
	}
	switch kind {
	case "gamma":
		t.Kind = KindGamma
		for {
			elem, err := r.Find("mtl")
			if err != nil {
				return err
			}
			if elem == "" {
				break
			}
			src, _, err := r.Content()
			if err != nil {
				return err
			}
			t.MTL = string(src)
			// XML turns a literal CR into LF, and a CDATA block cannot
			// carry one, so a CR written as &#xD; is read as LF too.
			if strings.IndexByte(t.MTL, '\r') >= 0 {
				t.MTL = crlf.Replace(t.MTL)
			}
		}
	case "message":
		act, err := ParseAction(action)
		if err != nil {
			return fmt.Errorf("%w: %s: merged transition %s->%s: %v", ErrInvalid, m.Name, t.From, t.To, err)
		}
		t.Kind, t.Color, t.Action, t.Message = KindMessage, color, act, message
		if err := r.Skip(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: %s: merged transition %s->%s: unknown kind %q", ErrInvalid, m.Name, t.From, t.To, kind)
	}
	m.Transitions = append(m.Transitions, t)
	return nil
}

// readFinal reads the open <final> into m.Final.
func readFinal(r *xmlenc.Reader, m *Merged) error {
	var f string
	for i, at := range r.Attrs() {
		var err error
		switch string(r.AttrName(i)) {
		case "name":
			f = at.Value
		case "final":
			// Nothing reads it, but encoding/xml read a <final> as a
			// <state>, so it has to parse.
			_, err = attrBool("final", at.Value)
		}
		if err != nil {
			return err
		}
	}
	m.Final = append(m.Final, f)
	return r.Skip()
}

// readRoot reads the start tag of the root element, which must be named
// want.
func readRoot(r *xmlenc.Reader, want string) error {
	if _, err := r.Next(); err != nil {
		return err
	}
	if name := r.Name(); string(name) != want {
		return fmt.Errorf("root element <%s> is not <%s>", name, want)
	}
	return nil
}

// decodeError says that a document did not read, unless it read and is
// no automaton: ErrInvalid stays as it is.
func decodeError(err error) error {
	if errors.Is(err, ErrInvalid) {
		return err
	}
	return fmt.Errorf("automata: decode: %w", err)
}

// attrInt and attrBool read a number and a flag as encoding/xml read them
// into an int and a bool: an empty attribute is zero, any other is trimmed
// and must parse.
func attrInt(name, v string) (int, error) {
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil {
		return 0, fmt.Errorf("attribute %s: %w", name, err)
	}
	return n, nil
}

func attrBool(name, v string) (bool, error) {
	if v == "" {
		return false, nil
	}
	b, err := strconv.ParseBool(strings.TrimSpace(v))
	if err != nil {
		return false, fmt.Errorf("attribute %s: %w", name, err)
	}
	return b, nil
}

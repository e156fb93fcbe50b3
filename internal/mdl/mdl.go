// Package mdl implements Starlink's Message Description Language.
//
// An MDL document describes the wire format of a protocol's messages so
// that message parsers (wire bytes -> abstract message) and composers
// (abstract message -> wire bytes) can be generated automatically at
// runtime (paper Section 4.1, Fig. 5). The framework is deliberately
// flexible about the concrete language: specialised engines exist for
// binary messages (package binenc), text messages (package textenc) and
// XML messages (package xmlenc), all sharing the document syntax parsed
// here.
//
// The concrete syntax follows the paper:
//
//	# GIOP message formats
//	<MDL:GIOP:binary>
//	<Message:GIOPRequest>
//	<Rule:MessageType=0>
//	<RequestID:32>
//	<ObjectKeyLength:32>
//	<ObjectKey:ObjectKeyLength:bytes>
//	<align:64>
//	<ParameterArray:cdrseq>
//	<End:Message>
//
// Each directive is an angle-bracketed, colon-separated tuple. The header
// directive <MDL:name:encoding> names the spec and selects an engine.
// <Message:...> opens a message layout, <End:Message> closes it, and
// <Rule:Field=Value> adds a discriminator: when a packet is parsed against
// a multi-message spec, the message whose rules all hold is selected, and
// when composing, rule fields are filled in automatically. All other
// directives are layout items whose meaning is engine-specific.
package mdl

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"

	"starlink/internal/message"
)

// Encoding names for the built-in engines.
const (
	EncodingBinary = "binary"
	EncodingText   = "text"
	EncodingXML    = "xml"
)

// Errors reported by the MDL layer.
var (
	// ErrNoMessageMatch is returned by Parse when no message layout in the
	// spec matches the packet.
	ErrNoMessageMatch = errors.New("mdl: no message layout matches packet")
	// ErrUnknownMessage is returned by Compose when the abstract message
	// names a layout absent from the spec.
	ErrUnknownMessage = errors.New("mdl: unknown message layout")
	// ErrSyntax is wrapped by all document syntax errors.
	ErrSyntax = errors.New("mdl: syntax error")
)

// Rule is a discriminator constraint <Rule:Field=Value>.
type Rule struct {
	// Field is the label of the constrained field.
	Field string
	// Value is the required value, compared textually.
	Value string
}

// Item is one engine-specific layout directive: the colon-separated parts
// inside the angle brackets, plus the source line for diagnostics.
type Item struct {
	// Parts holds the colon-separated components, e.g. ["RequestID", "32"].
	Parts []string
	// Line is the 1-based source line of the directive.
	Line int
}

// Label returns the first part — by convention the field label.
func (it Item) Label() string {
	if len(it.Parts) == 0 {
		return ""
	}
	return it.Parts[0]
}

// Arg returns part i, or "" when absent.
func (it Item) Arg(i int) string {
	if i >= len(it.Parts) {
		return ""
	}
	return it.Parts[i]
}

// MessageSpec is the layout of one message kind.
type MessageSpec struct {
	// Name identifies the layout ("GIOPRequest").
	Name string
	// Rules are the discriminators that select and pre-fill the layout.
	Rules []Rule
	// Items are the ordered layout directives.
	Items []Item
}

// Rule returns the rule for a field label, if any.
func (ms *MessageSpec) Rule(field string) (Rule, bool) {
	for _, r := range ms.Rules {
		if r.Field == field {
			return r, true
		}
	}
	return Rule{}, false
}

// Spec is a parsed MDL document.
type Spec struct {
	// Name is the spec name from the <MDL:name:encoding> header.
	Name string
	// Encoding selects the engine: "binary", "text" or "xml".
	Encoding string
	// Messages are the layouts, in document order.
	Messages []*MessageSpec
}

// Message returns the layout with the given name, or nil.
func (s *Spec) Message(name string) *MessageSpec {
	for _, m := range s.Messages {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Parse reads an MDL document.
func Parse(r io.Reader) (*Spec, error) {
	spec := &Spec{}
	var cur *MessageSpec
	sc := bufio.NewScanner(r)
	// bufio's own first buffer, grown as a long line needs, up to 1 MiB.
	sc.Buffer(nil, 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		// A line may carry several <...> directives (as in Fig. 5).
		for text != "" {
			open := strings.IndexByte(text, '<')
			if open < 0 {
				break
			}
			closeIdx := strings.IndexByte(text, '>')
			if closeIdx < open {
				return nil, fmt.Errorf("%w: line %d: unterminated directive", ErrSyntax, line)
			}
			body := text[open+1 : closeIdx]
			text = text[closeIdx+1:]
			if err := spec.apply(body, line, &cur); err != nil {
				return nil, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("mdl: read: %w", err)
	}
	if cur != nil {
		return nil, fmt.Errorf("%w: message %q not closed with <End:Message>", ErrSyntax, cur.Name)
	}
	if len(spec.Messages) == 0 {
		return nil, fmt.Errorf("%w: document defines no messages", ErrSyntax)
	}
	return spec, nil
}

// ParseString parses an MDL document held in a string.
func ParseString(s string) (*Spec, error) { return Parse(strings.NewReader(s)) }

func (s *Spec) apply(body string, line int, cur **MessageSpec) error {
	parts := strings.Split(body, ":")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	switch parts[0] {
	case "MDL":
		if len(parts) < 3 {
			return fmt.Errorf("%w: line %d: header needs <MDL:name:encoding>", ErrSyntax, line)
		}
		s.Name, s.Encoding = parts[1], parts[2]
		return nil
	case "Message":
		if *cur != nil {
			return fmt.Errorf("%w: line %d: nested <Message> inside %q", ErrSyntax, line, (*cur).Name)
		}
		if len(parts) < 2 || parts[1] == "" {
			return fmt.Errorf("%w: line %d: <Message> needs a name", ErrSyntax, line)
		}
		*cur = &MessageSpec{Name: parts[1]}
		return nil
	case "End":
		// Only <End:Message> closes the layout; other <End:...> directives
		// (e.g. <End:Repeat>) are engine items.
		if len(parts) >= 2 && parts[1] != "Message" {
			if *cur == nil {
				return fmt.Errorf("%w: line %d: directive <%s> outside a message", ErrSyntax, line, body)
			}
			(*cur).Items = append((*cur).Items, Item{Parts: parts, Line: line})
			return nil
		}
		if *cur == nil {
			return fmt.Errorf("%w: line %d: <End:Message> outside a message", ErrSyntax, line)
		}
		s.Messages = append(s.Messages, *cur)
		*cur = nil
		return nil
	case "Rule":
		if *cur == nil {
			return fmt.Errorf("%w: line %d: <Rule> outside a message", ErrSyntax, line)
		}
		if len(parts) < 2 {
			return fmt.Errorf("%w: line %d: <Rule:Field=Value>", ErrSyntax, line)
		}
		eq := strings.SplitN(strings.Join(parts[1:], ":"), "=", 2)
		if len(eq) != 2 {
			return fmt.Errorf("%w: line %d: <Rule:Field=Value>", ErrSyntax, line)
		}
		(*cur).Rules = append((*cur).Rules, Rule{Field: strings.TrimSpace(eq[0]), Value: strings.TrimSpace(eq[1])})
		return nil
	default:
		if *cur == nil {
			return fmt.Errorf("%w: line %d: directive <%s> outside a message", ErrSyntax, line, body)
		}
		(*cur).Items = append((*cur).Items, Item{Parts: parts, Line: line})
		return nil
	}
}

// Codec is a generated parser/composer pair specialised from an MDL spec.
// Parse transforms one network message into its abstract representation;
// Compose performs the reverse. Implementations are stateless and safe for
// concurrent use.
type Codec interface {
	// Parse decodes the wire bytes of one message into a message of its
	// own, the heap's: ParseIn(nil, data).
	Parse(data []byte) (*message.Message, error)
	// ParseIn decodes the wire bytes of one message into st, where the
	// message is valid until st is reset (message.Store).
	ParseIn(st *message.Store, data []byte) (*message.Message, error)
	// Compose encodes an abstract message to wire bytes of their own, the
	// caller's to keep: AppendCompose(nil, msg).
	Compose(msg *message.Message) ([]byte, error)
	// AppendCompose encodes an abstract message and appends its wire bytes
	// to dst: in dst's storage when they fit, else in one new allocation.
	// On an error dst comes back as it was.
	AppendCompose(dst []byte, msg *message.Message) ([]byte, error)
}

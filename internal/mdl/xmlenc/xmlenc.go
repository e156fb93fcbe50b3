// Package xmlenc is the MDL engine for XML-bodied protocols (XML-RPC,
// SOAP envelopes, Atom/GData feeds).
//
// The engine maps an XML document onto the abstract message model
// generically:
//
//   - an element becomes a structured field labelled with its local name;
//   - an attribute becomes a child primitive labelled "@name" — "@p" for
//     a declaration xmlns:p, "@uri:name" for a prefixed attribute whose
//     prefix is declared, "@prefix:name" when it is not;
//   - an element containing only character data becomes a primitive string
//     field, its text untouched;
//   - character data beside attributes or child elements becomes a last
//     child "#text", trimmed, and is dropped when it is blank.
//
// One hand-written Reader — a pull tokeniser; DecodeTree builds the field
// tree from its tokens, the XML-RPC and Atom decoders read them into
// shapes of their own — and one Writer (EncodeDoc, and what the protocol
// layers write their documents with) are the only places XML meets bytes;
// DESIGN.md, "XML codec", says what the Reader deliberately leaves out.
//
// A message layout needs only a discriminator on the document's root
// element:
//
//	<MDL:XMLRPC:xml>
//	<Message:MethodCall>
//	<Rule:root=methodCall>
//	<End:Message>
//
// Parse selects the layout whose root rule matches and exposes the root's
// children as the message's top-level fields. Compose re-serialises them
// under the rule's root element. Additional <Rule:path=value> rules may
// pin field values for dispatch between layouts sharing a root (e.g. SOAP
// requests vs replies).
package xmlenc

import (
	"errors"
	"fmt"
	"strings"

	"starlink/internal/mdl"
	"starlink/internal/message"
)

// Errors reported by the XML engine.
var (
	// ErrBadSpec is wrapped by all layout validation errors.
	ErrBadSpec = errors.New("xmlenc: invalid layout")
	// ErrMalformed is wrapped when the packet is not well-formed XML.
	ErrMalformed = errors.New("xmlenc: malformed document")
)

type compiledMessage struct {
	spec *mdl.MessageSpec
	root string
	// attrs are root-element attributes to emit on compose, from layout
	// items of the form <@xmlns:ns=value> ... encoded as <Name:attr:value>.
	attrs []rootAttr
}

type rootAttr struct{ name, value string }

// Codec interprets an XML MDL spec.
type Codec struct {
	spec     *mdl.Spec
	messages []*compiledMessage
	byName   map[string]*compiledMessage
}

var _ mdl.Codec = (*Codec)(nil)

// New compiles an XML MDL spec into a codec.
func New(spec *mdl.Spec) (mdl.Codec, error) {
	c := &Codec{spec: spec, byName: make(map[string]*compiledMessage, len(spec.Messages))}
	for _, ms := range spec.Messages {
		cm := &compiledMessage{spec: ms}
		for _, r := range ms.Rules {
			if r.Field == "root" {
				cm.root = r.Value
			}
		}
		if cm.root == "" {
			return nil, fmt.Errorf("%w: message %q needs a <Rule:root=...> discriminator", ErrBadSpec, ms.Name)
		}
		for _, it := range ms.Items {
			if it.Arg(1) != "attr" {
				return nil, fmt.Errorf("%w: message %q: unknown item %q (only <Name:attr:value> is allowed)",
					ErrBadSpec, ms.Name, it.Label())
			}
			cm.attrs = append(cm.attrs, rootAttr{it.Label(), strings.Join(it.Parts[2:], ":")})
		}
		c.messages = append(c.messages, cm)
		c.byName[ms.Name] = cm
	}
	return c, nil
}

// Parse decodes an XML document, dispatching on the root element and any
// additional value rules.
func (c *Codec) Parse(data []byte) (*message.Message, error) { return c.ParseIn(nil, data) }

// ParseIn is Parse with the message made in st (mdl.Codec); the tree under
// it is the heap's, as DecodeTree makes it.
func (c *Codec) ParseIn(st *message.Store, data []byte) (*message.Message, error) {
	root, err := DecodeTree(data)
	if err != nil {
		return nil, err
	}
	for _, cm := range c.messages {
		if cm.root != root.Label {
			continue
		}
		msg := st.Message(cm.spec.Name)
		msg.Fields = root.Children
		if valueRulesHold(cm, msg) {
			return msg, nil
		}
	}
	return nil, fmt.Errorf("%w: root element %q", mdl.ErrNoMessageMatch, root.Label)
}

func valueRulesHold(cm *compiledMessage, msg *message.Message) bool {
	for _, r := range cm.spec.Rules {
		if r.Field == "root" {
			continue
		}
		got, err := msg.GetString(r.Field)
		if err != nil || got != r.Value {
			return false
		}
	}
	return true
}

// Compose serialises the abstract message under its layout's root
// element: AppendCompose(nil, msg).
func (c *Codec) Compose(msg *message.Message) ([]byte, error) {
	return c.AppendCompose(nil, msg)
}

// AppendCompose is Compose into dst (Writer.AppendTo).
func (c *Codec) AppendCompose(dst []byte, msg *message.Message) ([]byte, error) {
	cm, ok := c.byName[msg.Name]
	if !ok {
		return dst, fmt.Errorf("%w: %q", mdl.ErrUnknownMessage, msg.Name)
	}
	w := newWriter(codecHeader)
	w.Open(cm.root)
	for _, a := range cm.attrs {
		w.Attr(a.name, a.value)
	}
	w.children(msg.Fields)
	w.Close()
	return w.AppendTo(dst)
}

// EncodeDoc renders f as a standalone document: the XML declaration and
// the element tree under f, the inverse of DecodeTree.
func EncodeDoc(f *message.Field) ([]byte, error) {
	w := NewDoc()
	w.Field(f)
	return w.Doc()
}

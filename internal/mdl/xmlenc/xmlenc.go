// Package xmlenc is where XML meets bytes: one hand-written Reader — a
// pull tokeniser — and one Writer. The XML-RPC, Atom and SOAP layers and
// the model loader read the Reader's tokens into shapes of their own, and
// the protocol layers write their documents with the Writer; DESIGN.md,
// "XML codec", says what the Reader deliberately leaves out. No MDL engine
// reads XML: an .mdl document that declares the xml encoding is refused
// when it loads.
//
// DecodeTree and EncodeDoc map a whole document onto the abstract message
// model generically, and back:
//
//   - an element becomes a structured field labelled with its local name;
//   - an attribute becomes a child primitive labelled "@name" — "@p" for
//     a declaration xmlns:p, "@uri:name" for a prefixed attribute whose
//     prefix is declared, "@prefix:name" when it is not;
//   - an element containing only character data becomes a primitive string
//     field, its text untouched;
//   - character data beside attributes or child elements becomes a last
//     child "#text", trimmed, and is dropped when it is blank.
package xmlenc

import (
	"errors"

	"starlink/internal/message"
)

// ErrMalformed is wrapped when a document is not well-formed XML.
var ErrMalformed = errors.New("xmlenc: malformed document")

// EncodeDoc renders f as a standalone document: the XML declaration and
// the element tree under f, the inverse of DecodeTree. Its callers are
// tests and bench/replay.go's mdl.xml_* rows, which time it.
func EncodeDoc(f *message.Field) ([]byte, error) {
	w := NewDoc()
	w.Field(f)
	return w.Doc()
}

package testutil

import (
	"bytes"
	"encoding/xml"
	"errors"
	"strings"
)

// XMLUnvalidated reports whether encoding/xml refused data, with err, for
// what xmlenc.Reader does not check (DESIGN.md §17): names against the XML
// name classes (a name with two colons among them), text against the
// character ranges, the form of comments and declarations (a <! that
// begins no comment or CDATA section is skipped to its '>'), CDATA ends
// and quoted '<', the version an XML declaration states, and whatever
// stands before the root element. What the Reader does check — tags that
// match, quoted attribute values, known references, a declared encoding —
// a decoder on it refuses as encoding/xml does. The oracles of xmlenc and
// of the automata decoders share this one list of allowed divergences.
func XMLUnvalidated(data []byte, err error) bool {
	var syntax *xml.SyntaxError
	switch {
	case strings.Contains(err.Error(), "declared but Decoder.CharsetReader is nil"):
		return false
	case refusedBeforeRoot(data):
		return true
	case !errors.As(err, &syntax):
		return strings.Contains(err.Error(), "xml: unsupported version")
	}
	for _, kind := range []string{
		"invalid XML name", "expected element name after <", "expected attribute name in element",
		"invalid UTF-8", "illegal character code", `invalid sequence "--" not allowed in comments`,
		"invalid <![ sequence", "invalid sequence <!- not part of <!--",
		"unescaped ]]> not in CDATA section", "unescaped < inside quoted string",
	} {
		if strings.HasPrefix(syntax.Msg, kind) {
			return true
		}
	}
	return false
}

// refusedBeforeRoot reports whether encoding/xml refuses data in the text
// or the markup ahead of the root element's start tag.
func refusedBeforeRoot(data []byte) bool {
	dec := xml.NewDecoder(bytes.NewReader(data))
	for {
		from := dec.InputOffset()
		tok, err := dec.Token()
		if err != nil {
			rest := data[from:]
			return len(rest) < 2 || rest[0] != '<' || rest[1] == '?' || rest[1] == '!'
		}
		if _, ok := tok.(xml.StartElement); ok {
			return false
		}
	}
}

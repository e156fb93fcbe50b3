package soap

import (
	"fmt"
	"strings"

	"starlink/internal/mdl/xmlenc"
	"starlink/internal/message"
)

// oracle is how ParseRequest and ParseResponse read an envelope before the
// xmlenc Reader: the whole field tree first, then a walk over it, moved here
// as it was. It is the reference the fuzzer holds the token decoder against.
//
// irregular records that the walk met one of the two things the decoder now
// reads differently on purpose (DESIGN.md, "The reader and its consumers"):
// an element read for its text that holds attributes or elements — the tree
// renders such a field as a bracketed list of its children, "[xsd:int 1]",
// which was never SOAP — or a Body that holds attributes and text but no
// element, whose text the walk took for an operation named "#text".
type oracle struct {
	irregular bool
}

func (o *oracle) text(f *message.Field) string {
	if !f.Type.Primitive() {
		o.irregular = true
	}
	return f.ValueString()
}

// bodyElement unwraps Envelope/Body and returns the single operation
// element.
func (o *oracle) bodyElement(data []byte) (*message.Field, error) {
	root, err := xmlenc.DecodeTree(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if root.Label != "Envelope" {
		return nil, fmt.Errorf("%w: root %q", ErrMalformed, root.Label)
	}
	body := root.Child("Body")
	if body == nil {
		return nil, fmt.Errorf("%w: no Body", ErrMalformed)
	}
	for _, c := range body.Children {
		if !strings.HasPrefix(c.Label, "@") {
			if c.Label == "#text" {
				o.irregular = true
			}
			return c, nil
		}
	}
	return nil, fmt.Errorf("%w: empty Body", ErrMalformed)
}

func (o *oracle) fieldParams(op *message.Field) []Param {
	var out []Param
	for _, c := range op.Children {
		if strings.HasPrefix(c.Label, "@") || c.Label == "#text" {
			continue
		}
		out = append(out, Param{Name: c.Label, Value: o.text(c)})
	}
	return out
}

func (o *oracle) parseRequest(data []byte) (method string, params []Param, err error) {
	op, err := o.bodyElement(data)
	if err != nil {
		return "", nil, err
	}
	if op.Label == "Fault" {
		return "", nil, o.parseFault(op)
	}
	return op.Label, o.fieldParams(op), nil
}

func (o *oracle) parseResponse(data []byte) (method string, results []Param, err error) {
	op, err := o.bodyElement(data)
	if err != nil {
		return "", nil, err
	}
	if op.Label == "Fault" {
		return "", nil, o.parseFault(op)
	}
	return strings.TrimSuffix(op.Label, "Response"), o.fieldParams(op), nil
}

func (o *oracle) parseFault(op *message.Field) error {
	f := &Fault{}
	if c := op.Child("faultcode"); c != nil {
		f.Code = o.text(c)
	}
	if c := op.Child("faultstring"); c != nil {
		f.Message = o.text(c)
	}
	return f
}

package rcache

import (
	"strings"

	"starlink/internal/message"
)

// Key field-separator control bytes. Using bytes that cannot appear in
// directive-validated operation names or in canonical value renderings
// of adjacent fields keeps the key unambiguous: two different message
// trees can never render to the same key string.
const (
	sepTop   = '\x1f' // between op, addr, and the field section
	sepField = '\x1e' // between sibling fields
	sepLabel = '\x1d' // between a field's label/type and its content
)

// Key renders the canonical cache key for an outbound service-side
// abstract message: the operation name, the resolved service address,
// and the message's field tree. The key is the exact canonical string
// (shard selection hashes it, but equality is on the full string), so
// distinct requests can never collide.
//
// When vary is non-empty, only the listed field paths participate —
// the spec's `vary=` clause — so requests differing in other fields
// share an entry. Otherwise every top-level field participates; a
// request's protocol id is its Message.ID, not a field, so two requests
// that differ only in it share a key.
func Key(op, addr string, msg *message.Message, vary []string) string {
	var b strings.Builder
	b.Grow(192)
	b.WriteString(op)
	b.WriteByte(sepTop)
	b.WriteString(addr)
	b.WriteByte(sepTop)
	if len(vary) > 0 {
		for _, path := range vary {
			b.WriteString(path)
			b.WriteByte(sepLabel)
			if f, err := msg.Lookup(path); err == nil {
				writeCanon(&b, f)
			}
			b.WriteByte(sepField)
		}
		return b.String()
	}
	for _, f := range msg.Fields {
		writeCanon(&b, f)
		b.WriteByte(sepField)
	}
	return b.String()
}

// writeCanon renders one field canonically: label, type tag, then the
// scalar value or the recursively rendered children.
func writeCanon(b *strings.Builder, f *message.Field) {
	b.WriteString(f.Label)
	b.WriteByte(sepLabel)
	b.WriteByte(byte('0' + int(f.Type)))
	b.WriteByte(sepLabel)
	if f.Type.Primitive() {
		b.WriteString(f.ValueString())
		return
	}
	b.WriteByte('{')
	for i, c := range f.Children {
		if i > 0 {
			b.WriteByte(sepField)
		}
		writeCanon(b, c)
	}
	b.WriteByte('}')
}

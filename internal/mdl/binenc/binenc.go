// Package binenc is the MDL engine for binary protocols.
//
// It compiles MDL layout items into a plan over a bit stream, supporting
// the constructs from the paper's GIOP example (Fig. 5):
//
//	<Name:N>              fixed field of N bits, unsigned integer
//	<Name:N:type>         fixed field of N bits; type = uint|int|bool|float|bytes|string
//	<Name:Ref>            variable field whose byte length is the value of the
//	                      previously parsed field Ref; type defaults to bytes
//	<Name:Ref:string>     as above, decoded as a NUL-terminated string (the
//	                      CDR string convention: the length includes the NUL)
//	<Name:eof>            raw bytes to the end of the packet
//	<Name:eof:string>     rest of packet as text
//	<Name:cdrseq>         self-describing CDR parameter sequence (see below)
//	<align:N>             skip to the next N-bit boundary (from body start)
//	<Repeat:Name:Count>   repeated group: the items up to <End:Repeat> are
//	                      parsed Count times (Count being the value of an
//	                      earlier field), yielding a structured field Name
//	                      with one "item" child per iteration; on compose,
//	                      Count is derived from the child count
//	<End:Repeat>          closes a repeated group
//
// When composing, fields that are referenced as the length of another field
// are computed automatically from the encoded size, and fields constrained
// by <Rule:Field=Value> are filled from the rule when absent from the
// abstract message.
//
// The paper's MDL leaves GIOP parameter bodies opaque (<ParameterArray:eof>)
// because interpreting them requires the IDL. This reproduction instead
// defines a self-describing CDR sequence (<Name:cdrseq>): a 4-byte count,
// then per parameter a 1-byte type tag followed by the CDR-encoded value
// with standard CDR alignment. This keeps the generic parser able to expose
// Parameter fields to the binding rules of Section 4.3 without an IDL
// compiler, while remaining valid CDR at the byte level.
//
// New resolves everything the document decides — which field sizes or
// counts which, each rule as a value of its field's type, how many fields a
// layout yields, the rules that sit at a fixed offset — so that a message
// costs no lookup by label on the way in, no map on the way out, and one
// slab of nodes (DESIGN.md §17, "The binary engine's plan").
package binenc

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"

	"starlink/internal/mdl"
	"starlink/internal/message"
	"starlink/internal/protocol/bufpool"
)

// Errors reported by the binary engine.
var (
	// ErrShortPacket is returned when the packet ends inside a field.
	ErrShortPacket = errors.New("binenc: packet too short")
	// ErrCountExceedsPacket reports a parameter or repeat count that what is
	// left of the packet cannot hold, found before anything is sized by it.
	ErrCountExceedsPacket = fmt.Errorf("%w: count exceeds what the packet can still hold", ErrShortPacket)
	// ErrBadSpec is wrapped by all layout validation errors.
	ErrBadSpec = errors.New("binenc: invalid layout")
)

// errRule is how a layout is left when the packet has just broken one of
// its rules: the next layout is tried, and nobody reads the text.
var errRule = errors.New("binenc: a rule of the layout does not hold")

// maxCount caps a parameter or repeat count whatever the packet could hold.
const maxCount = 1 << 16

// Parameter type tags for cdrseq sequences.
const (
	tagString byte = 1
	tagInt32  byte = 2
	tagInt64  byte = 3
	tagBool   byte = 4
	tagDouble byte = 5
	tagBytes  byte = 6
)

// What a cdrseq takes of a packet at the least: its count, and per
// parameter a tag and a one-byte value.
const (
	cdrSeqLeastBits   = 32
	cdrParamLeastSize = 2
)

type itemKind uint8

const (
	kindFixed itemKind = iota + 1
	kindLenFrom
	kindEOF
	kindCDRSeq
	kindAlign
	kindRepeat
)

// How Compose finds the value of a fixed item.
const (
	fromField  uint8 = iota // the message's field, else the item's default
	fromLength              // the encoded size of the variable item it sizes
	fromCount               // the child count of the group it counts
)

// item is one layout item with everything New could resolve about it.
type item struct {
	kind  itemKind
	typ   message.Type
	label string
	bits  int // kindFixed: the width; kindAlign: the boundary

	// Parsing. from names the field that holds this item's length
	// (kindLenFrom) or count (kindRepeat), ref is where that field lies: its
	// index among the fields of the item's own scope, or, outer set, among the
	// message's top-level fields; -1 when no field so named is in scope, and
	// no packet parses.
	from  string
	ref   int
	outer bool
	// check is the first rule that names this item, held against the field
	// as soon as it is read. Top-level items only, and the first of a label:
	// the field rulesHold looks at.
	check *rule

	// Composing. source says where a fixed item's value comes from: target is
	// the index, in the same item list, of the variable item a length field
	// sizes (-1: none in this scope, and the length is 0), counts the label of
	// the group a count field counts, def what is written when the message has
	// no such field — the value of the rule that names the label, else zero.
	source uint8
	target int
	counts string
	def    message.Field

	// kindRepeat: the group's body, how many fields one iteration yields and
	// how many bits of packet it takes at the least.
	items  []item
	fields int
	least  int
}

// yields reports whether parsing the item makes a field.
func (it *item) yields() bool { return it.kind != kindAlign }

// A rule's value is held against a field by number when the field is of an
// integer or boolean kind, by text otherwise.
const (
	ruleText  uint8 = iota
	ruleNum         // num is the field's value
	ruleNever       // the text is no value such a field renders as
)

// rule is one <Rule> of a layout, resolved against the field it names.
type rule struct {
	slot int // index of the top-level field; -1: the layout has none so named
	kind uint8
	text string
	num  uint64
}

// holds reports whether f, the field the rule names, has the rule's value:
// what comparing the field's text with the rule's decides, without the text.
func (r *rule) holds(f *message.Field) bool {
	switch r.kind {
	case ruleNum:
		return f.Uint64() == r.num
	case ruleNever:
		return false
	}
	return f.ValueString() == r.text
}

// prefixRule is a rule on a field that lies at the same bytes of every
// packet: it is held against the packet before anything is built.
type prefixRule struct {
	off, end int
	want     string
}

// layout is one compiled message layout. It is not written after New: one
// codec serves every client, server and binder of the process.
type layout struct {
	spec   *mdl.MessageSpec
	items  []item
	fields int // top-level fields a parse yields
	rules  []rule
	prefix []prefixRule
}

// Codec parses and composes the messages of a binary MDL spec.
type Codec struct {
	spec     *mdl.Spec
	messages []*layout
	byName   map[string]*layout
}

var _ mdl.Codec = (*Codec)(nil)

// New compiles a binary MDL spec into a codec.
func New(spec *mdl.Spec) (mdl.Codec, error) {
	c := &Codec{spec: spec, byName: make(map[string]*layout, len(spec.Messages))}
	for _, ms := range spec.Messages {
		cm, err := compileMessage(ms)
		if err != nil {
			return nil, err
		}
		c.messages = append(c.messages, cm)
		c.byName[ms.Name] = cm
	}
	return c, nil
}

func compileMessage(ms *mdl.MessageSpec) (*layout, error) {
	cm := &layout{spec: ms}
	// sizes maps a length field's label to the label of the field it sizes,
	// counted a count field's to the group it counts: what Compose derives.
	sizes, counted := map[string]string{}, map[string]string{}
	seen := map[string]bool{}
	// target points at the item list currently being filled; an open Repeat
	// group pushes a nested list.
	target := &cm.items
	var open *item
	for _, it := range ms.Items {
		label := it.Label()
		arg := it.Arg(1)
		switch {
		case label == "Repeat":
			if arg == "" || it.Arg(2) == "" {
				return nil, fmt.Errorf("%w: line %d: <Repeat:Name:CountField>", ErrBadSpec, it.Line)
			}
			if !seen[it.Arg(2)] {
				return nil, fmt.Errorf("%w: line %d: repeat count %q not declared earlier", ErrBadSpec, it.Line, it.Arg(2))
			}
			if open != nil {
				return nil, fmt.Errorf("%w: line %d: nested <Repeat> groups are not supported", ErrBadSpec, it.Line)
			}
			cm.items = append(cm.items, item{kind: kindRepeat, label: arg, typ: message.TypeArray, from: it.Arg(2)})
			open = &cm.items[len(cm.items)-1]
			counted[it.Arg(2)] = arg
			target = &open.items
			seen[arg] = true
			continue
		case label == "End" && arg == "Repeat":
			if open == nil {
				return nil, fmt.Errorf("%w: line %d: <End:Repeat> without <Repeat>", ErrBadSpec, it.Line)
			}
			open, target = nil, &cm.items
			continue
		case label == "align":
			n, err := strconv.Atoi(arg)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("%w: line %d: <align:%s>", ErrBadSpec, it.Line, arg)
			}
			*target = append(*target, item{kind: kindAlign, bits: n})
			continue
		case arg == "":
			return nil, fmt.Errorf("%w: line %d: field %q needs a length", ErrBadSpec, it.Line, label)
		case arg == "eof":
			typ := message.TypeBytes
			if it.Arg(2) == "string" {
				typ = message.TypeString
			}
			*target = append(*target, item{kind: kindEOF, label: label, typ: typ})
		case arg == "cdrseq":
			*target = append(*target, item{kind: kindCDRSeq, label: label, typ: message.TypeArray})
		default:
			if bits, err := strconv.Atoi(arg); err == nil {
				if bits <= 0 || bits > 1<<20 {
					return nil, fmt.Errorf("%w: line %d: field %q width %d bits", ErrBadSpec, it.Line, label, bits)
				}
				typ, err := fixedType(it.Arg(2), bits)
				if err != nil {
					return nil, fmt.Errorf("%w: line %d: %v", ErrBadSpec, it.Line, err)
				}
				*target = append(*target, item{kind: kindFixed, label: label, bits: bits, typ: typ})
			} else {
				// Length from a previously declared field.
				if !seen[arg] {
					return nil, fmt.Errorf("%w: line %d: field %q sized by %q which is not declared earlier",
						ErrBadSpec, it.Line, label, arg)
				}
				typ := message.TypeBytes
				switch it.Arg(2) {
				case "", "bytes":
				case "string":
					typ = message.TypeString
				default:
					return nil, fmt.Errorf("%w: line %d: variable field %q type %q", ErrBadSpec, it.Line, label, it.Arg(2))
				}
				*target = append(*target, item{kind: kindLenFrom, label: label, from: arg, typ: typ})
				sizes[arg] = label
			}
		}
		seen[label] = true
	}
	if open != nil {
		return nil, fmt.Errorf("%w: message %q: unclosed <Repeat>", ErrBadSpec, ms.Name)
	}
	cm.fields = resolve(ms, cm.items, nil, sizes, counted)
	cm.rules = make([]rule, len(ms.Rules))
	for i, r := range ms.Rules {
		cm.rules[i] = rule{slot: -1, text: r.Value}
		if it, slot := fieldOf(cm.items, r.Field); it != nil {
			cm.rules[i] = newRule(it.typ, slot, r.Value)
			if it.check == nil {
				it.check = &cm.rules[i]
			}
		}
	}
	cm.prefix = prefixRules(cm.items)
	return cm, nil
}

// resolve fills in what the items of one scope — a message, or with outer
// the message's items ahead of it, a repeated group's body — know once the
// list is whole: where each length and count is read from, what each fixed
// item is composed from, and the sizes of the groups. A name resolves as the
// interpreter's lookup by label did: the first field so labelled that the
// scope has read by then, else the first the message had read before the
// group. It returns the number of fields the scope yields.
func resolve(ms *mdl.MessageSpec, items, outer []item, sizes, counted map[string]string) int {
	fields := 0
	for i := range items {
		it := &items[i]
		if !it.yields() {
			continue
		}
		fields++
		switch it.kind {
		case kindLenFrom, kindRepeat:
			if _, it.ref = fieldOf(items[:i], it.from); it.ref < 0 && outer != nil {
				_, it.ref = fieldOf(outer, it.from)
				it.outer = true
			}
			if it.kind == kindLenFrom {
				break
			}
			it.fields = resolve(ms, it.items, items[:i], sizes, counted)
			for j := range it.items {
				switch sub := &it.items[j]; sub.kind {
				case kindFixed:
					it.least += sub.bits
				case kindCDRSeq:
					it.least += cdrSeqLeastBits
				}
			}
		case kindFixed:
			if sized, ok := sizes[it.label]; ok {
				it.source, it.target = fromLength, -1
				for j := range items {
					if items[j].kind == kindLenFrom && items[j].label == sized {
						it.target = j
					}
				}
			} else if group, ok := counted[it.label]; ok {
				it.source, it.counts = fromCount, group
			}
			it.def.Set(it.typ, nil)
			if r, ok := ms.Rule(it.label); ok {
				it.def = typed(it.typ, r.Value)
			}
		}
	}
	return fields
}

// fieldOf returns the first of items that yields a field labelled label,
// and that field's index among the fields items yield: nil and -1 when there
// is none.
func fieldOf(items []item, label string) (*item, int) {
	slot := 0
	for i := range items {
		if !items[i].yields() {
			continue
		}
		if items[i].label == label {
			return &items[i], slot
		}
		slot++
	}
	return nil, -1
}

// typed reads text the way a field of type typ composed from text reads it
// (Field's accessors: a number parsed, 0 when it is none).
func typed(typ message.Type, text string) (f message.Field) {
	f.SetText(text)
	switch typ {
	case message.TypeUint64:
		f.SetUint64(f.Uint64())
	case message.TypeInt64:
		f.SetInt64(f.Int64())
	case message.TypeBool:
		f.SetBool(f.Bool())
	case message.TypeFloat64:
		f.SetFloat64(f.Float64())
	}
	return f
}

// newRule resolves a rule's text against the type of the field it names.
func newRule(typ message.Type, slot int, text string) rule {
	r := rule{slot: slot, text: text}
	switch typ {
	case message.TypeUint64, message.TypeInt64, message.TypeBool:
		// Such a field's text is the canonical form of its value and nothing
		// else: "00" or "yes" is the text of none.
		v := typed(typ, text)
		if r.kind = ruleNever; v.ValueString() == text {
			r.kind, r.num = ruleNum, v.Uint64()
		}
	}
	return r
}

// prefixRules collects the checked items that lie at a fixed offset — ahead
// of the first item of variable size — on a byte boundary: the layout's
// static prefix. A packet that breaks one of them is turned away before
// anything is built (a GIOP reply pays nothing for the request layout);
// the check made when the field is read stays the one that decides.
func prefixRules(items []item) []prefixRule {
	var out []prefixRule
	off := 0
	for i := range items {
		it := &items[i]
		switch {
		case it.kind == kindAlign:
			if rem := off % it.bits; rem != 0 {
				off += it.bits - rem
			}
			continue
		case it.kind != kindFixed:
			return out
		}
		text := it.typ == message.TypeBytes || it.typ == message.TypeString
		if text {
			off = (off + 7) &^ 7
		}
		if text && it.bits%8 != 0 || !text && it.bits > 64 {
			return out // no packet gets past this item
		}
		if r := it.check; r != nil && off%8 == 0 && it.bits%8 == 0 {
			pr := prefixRule{off: off / 8, end: (off + it.bits) / 8}
			switch {
			case text && r.kind == ruleText && len(r.text) == it.bits/8:
				pr.want = r.text
			case r.kind == ruleNum && it.typ != message.TypeBool:
				var be [8]byte
				for j := range be {
					be[j] = byte(r.num >> (56 - 8*j))
				}
				pr.want = string(be[8-it.bits/8:])
			}
			if pr.want != "" {
				out = append(out, pr)
			}
		}
		off += it.bits
	}
	return out
}

func fixedType(name string, bits int) (message.Type, error) {
	switch name {
	case "", "uint":
		return message.TypeUint64, nil
	case "int":
		return message.TypeInt64, nil
	case "bool":
		return message.TypeBool, nil
	case "float":
		if bits != 32 && bits != 64 {
			return 0, fmt.Errorf("float fields must be 32 or 64 bits, got %d", bits)
		}
		return message.TypeFloat64, nil
	case "bytes":
		return message.TypeBytes, nil
	case "string":
		return message.TypeString, nil
	default:
		return 0, fmt.Errorf("unknown fixed field type %q", name)
	}
}

// ---- parsing ----

// Parse decodes a packet by trying each message layout in order and
// returning the first whose rules hold. A layout whose static prefix the
// packet breaks is not entered at all, any other is left at the first field
// that breaks one of its rules (a GIOP reply is neither built nor read as a
// request first); rulesHold is the whole check, over what was parsed.
func (c *Codec) Parse(data []byte) (*message.Message, error) { return c.ParseIn(nil, data) }

// ParseIn is Parse with the message made in st (mdl.Codec).
func (c *Codec) ParseIn(st *message.Store, data []byte) (*message.Message, error) {
	p := parser{reader: reader{data: data}, st: st}
	var firstErr error
	var failed *layout
	for _, cm := range c.messages {
		msg, err := p.parse(cm)
		if err != nil {
			if firstErr == nil && err != errRule {
				firstErr, failed = err, cm
			}
			continue
		}
		if cm.rulesHold(msg.Fields) {
			return msg, nil
		}
	}
	if firstErr != nil {
		return nil, fmt.Errorf("%w (%s: %w)", mdl.ErrNoMessageMatch, failed.spec.Name, firstErr)
	}
	return nil, mdl.ErrNoMessageMatch
}

func (cm *layout) rulesHold(fields []*message.Field) bool {
	for i := range cm.rules {
		if r := &cm.rules[i]; r.slot < 0 || !r.holds(fields[r.slot]) {
			return false
		}
	}
	return true
}

// slab is the unused rest of the two allocations a parse carves its fields
// from: the nodes, and the lists that point at them.
type slab struct {
	nodes []message.Field
	links []*message.Field
}

// newSlab carves a slab of n nodes and n links out of the parse's store.
func (p *parser) newSlab(n int) slab {
	return slab{nodes: p.st.Nodes(n), links: p.st.Links(n)}
}

func (s *slab) node() *message.Field {
	f := &s.nodes[0]
	s.nodes = s.nodes[1:]
	return f
}

// list carves a list of n fields, cut to its length so that appending to it
// reallocates instead of running into the list carved after it.
func (s *slab) list(n int) []*message.Field {
	l := s.links[:n:n]
	s.links = s.links[n:]
	return l
}

// parser is the state of one Parse: where it is in the packet, the store
// its slabs come from, and the slab the top-level fields come from, which
// the layouts tried share.
type parser struct {
	reader
	st      *message.Store
	top     slab
	entered bool // a layout has carved from top before
}

// parse reads the packet as cm's layout says.
func (p *parser) parse(cm *layout) (*message.Message, error) {
	for _, pr := range cm.prefix {
		if len(p.data) < pr.end {
			break // reading the field will say where the packet ends
		}
		if string(p.data[pr.off:pr.end]) != pr.want {
			return nil, errRule
		}
	}
	switch {
	case cap(p.top.nodes) < cm.fields:
		p.top = p.newSlab(cm.fields)
	case p.entered:
		clear(p.top.nodes) // what the layout that was left had read
	}
	p.pos, p.entered = 0, true
	s := slab{nodes: p.top.nodes[:cm.fields], links: p.top.links[:cm.fields]}
	fields := s.list(cm.fields)
	if err := p.items(&s, cm.items, fields, nil); err != nil {
		return nil, err
	}
	msg := p.st.Message(cm.spec.Name)
	msg.Fields = fields
	return msg, nil
}

// count reads a length or count from the field that holds it, as its
// decimal text read as a 32-bit unsigned number would.
func count(f *message.Field) (uint64, bool) {
	switch f.Type {
	case message.TypeUint64:
		n := f.Uint64()
		return n, n <= math.MaxUint32
	case message.TypeInt64:
		n := f.Int64()
		return uint64(n), 0 <= n && n <= math.MaxUint32
	}
	n, err := strconv.ParseUint(f.ValueString(), 10, 32)
	return n, err == nil
}

// items decodes an item list into out, one field per item that yields one,
// the nodes taken from s; outer is the enclosing scope for length and count
// references inside a repeated group.
func (p *parser) items(s *slab, items []item, out, outer []*message.Field) error {
	slot := 0
	for i := range items {
		it := &items[i]
		if it.kind == kindAlign {
			p.align(it.bits)
			continue
		}
		f := s.node()
		f.Label = it.label
		switch it.kind {
		case kindFixed:
			if err := p.fixed(f, it); err != nil {
				return err
			}
		case kindLenFrom:
			n, err := p.refCount(it, out, outer, "length field")
			if err != nil {
				return err
			}
			b, err := p.bytes(n)
			if err != nil {
				return err
			}
			if it.typ == message.TypeString {
				f.SetText(cdrString(b))
			} else {
				p.st.SetBytes(f, copyOf(b))
			}
		case kindEOF:
			b, err := p.rest()
			if err != nil {
				return err
			}
			if it.typ == message.TypeString {
				f.SetText(string(b))
			} else {
				p.st.SetBytes(f, copyOf(b))
			}
		case kindCDRSeq:
			if err := p.cdrSeq(f); err != nil {
				return err
			}
		case kindRepeat:
			n, err := p.refCount(it, out, outer, "repeat count")
			if err != nil {
				return err
			}
			if err := p.repeat(f, it, n, out); err != nil {
				return err
			}
		}
		if it.check != nil && !it.check.holds(f) {
			return errRule
		}
		out[slot] = f
		slot++
	}
	return nil
}

// refCount reads the length or count it.ref points at.
func (p *parser) refCount(it *item, out, outer []*message.Field, what string) (uint64, error) {
	if it.ref < 0 {
		return 0, fmt.Errorf("binenc: %s of %q missing", what, it.label)
	}
	from := out
	if it.outer {
		from = outer
	}
	n, ok := count(from[it.ref])
	if !ok {
		return 0, fmt.Errorf("binenc: %s of %q: value %q", what, it.label, from[it.ref].ValueString())
	}
	return n, nil
}

// repeat reads the claimed number of iterations of the group it into f. A
// group whose items take some of the packet each is held to what the packet
// can still hold and then carved from one slab; one that can be empty is not
// sized ahead.
func (p *parser) repeat(f *message.Field, it *item, claimed uint64, outer []*message.Field) error {
	if claimed > maxCount {
		return fmt.Errorf("binenc: %s: implausible repeat count %d", it.label, claimed)
	}
	n := int(claimed)
	f.Type = message.TypeArray
	var group slab
	if it.least > 0 && n > 0 {
		if n > max(p.remaining(), 0)/it.least {
			return fmt.Errorf("%s: %w: %d items of %d bits or more", it.label, ErrCountExceedsPacket, n, it.least)
		}
		group = p.newSlab(n * (1 + it.fields))
		f.Children = group.list(n)[:0]
	}
	for i := 0; i < n; i++ {
		if it.least == 0 {
			group = p.newSlab(1 + it.fields)
		}
		entry := group.node()
		entry.Label, entry.Type = "item", message.TypeStruct
		entry.Children = group.list(it.fields)
		if err := p.items(&group, it.items, entry.Children, outer); err != nil {
			return fmt.Errorf("%s[%d]: %w", it.label, i, err)
		}
		f.Children = append(f.Children, entry)
	}
	return nil
}

// fixed reads the fixed-width item it into f.
func (p *parser) fixed(f *message.Field, it *item) error {
	f.LengthBits = int32(it.bits)
	if it.typ == message.TypeBytes || it.typ == message.TypeString {
		if it.bits%8 != 0 {
			return fmt.Errorf("binenc: %q: byte field width %d not a multiple of 8", it.label, it.bits)
		}
		b, err := p.bytes(uint64(it.bits / 8))
		switch {
		case err != nil:
			return fmt.Errorf("%w reading %q", err, it.label)
		case it.typ == message.TypeBytes:
			p.st.SetBytes(f, copyOf(b))
		case it.check != nil && string(b) == it.check.text:
			f.SetText(it.check.text) // a magic is the layout's string, not a new one
		default:
			f.SetText(string(b))
		}
		return nil
	}
	v, err := p.uint(it.bits)
	if err != nil {
		return fmt.Errorf("%w reading %q", err, it.label)
	}
	switch it.typ {
	case message.TypeFloat64:
		if it.bits == 32 {
			f.SetFloat64(float64(math.Float32frombits(uint32(v))))
		} else {
			f.SetFloat64(math.Float64frombits(v))
		}
	case message.TypeBool:
		f.SetBool(v != 0)
	case message.TypeInt64:
		if it.bits < 64 && v&(1<<(it.bits-1)) != 0 {
			v |= ^uint64(0) << it.bits // sign-extend
		}
		f.SetInt64(int64(v))
	default:
		f.SetUint64(v)
	}
	return nil
}

// cdrSeq reads a self-describing parameter sequence into f.
func (p *parser) cdrSeq(f *message.Field) error {
	p.align(32)
	n, err := p.uint(32)
	if err != nil {
		return fmt.Errorf("%w reading %s count", err, f.Label)
	}
	if n > maxCount {
		return fmt.Errorf("binenc: %s: implausible parameter count %d", f.Label, n)
	}
	f.Type = message.TypeArray
	if n == 0 {
		return nil
	}
	if int(n) > max(p.remaining(), 0)/8/cdrParamLeastSize {
		return fmt.Errorf("%s: %w: %d parameters", f.Label, ErrCountExceedsPacket, n)
	}
	s := p.newSlab(int(n))
	f.Children = s.links
	for i := range s.nodes {
		p.align(8)
		tag, err := p.uint(8)
		if err != nil {
			return fmt.Errorf("%w reading %s tag", err, f.Label)
		}
		param := &s.nodes[i]
		param.Label = "Parameter"
		if err := p.cdrValue(param, byte(tag)); err != nil {
			return fmt.Errorf("%s[%d]: %w", f.Label, i, err)
		}
		f.Children[i] = param
	}
	return nil
}

func (p *parser) cdrValue(f *message.Field, tag byte) error {
	switch tag {
	case tagString, tagBytes:
		p.align(32)
		n, err := p.uint(32)
		if err != nil {
			return err
		}
		b, err := p.bytes(n)
		if err != nil {
			return err
		}
		if tag == tagBytes {
			p.st.SetBytes(f, copyOf(b))
			return nil
		}
		f.SetText(cdrString(b))
	case tagInt32:
		p.align(32)
		v, err := p.uint(32)
		if err != nil {
			return err
		}
		f.SetInt64(int64(int32(v)))
	case tagInt64, tagDouble:
		p.align(64)
		v, err := p.uint(64)
		if err != nil {
			return err
		}
		if tag == tagDouble {
			f.SetFloat64(math.Float64frombits(v))
		} else {
			f.SetInt64(int64(v))
		}
	case tagBool:
		v, err := p.uint(8)
		if err != nil {
			return err
		}
		f.SetBool(v != 0)
	default:
		return fmt.Errorf("binenc: unknown CDR parameter tag %d", tag)
	}
	return nil
}

// cdrString is the text of a CDR string: b less the NUL it ends in.
func cdrString(b []byte) string {
	if len(b) > 0 && b[len(b)-1] == 0 {
		b = b[:len(b)-1]
	}
	return string(b)
}

// copyOf is the one copy a variable field takes out of the packet.
func copyOf(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// ---- composing ----

// Compose encodes the abstract message using its named layout, into a
// packet of its size that the caller owns: AppendCompose(nil, msg).
func (c *Codec) Compose(msg *message.Message) ([]byte, error) {
	return c.AppendCompose(nil, msg)
}

// AppendCompose encodes the abstract message using its named layout and
// appends the packet to dst. It is laid out in a pooled writer, whose
// offsets and alignment count from the message's first byte, and copied
// out: into dst's storage when it fits. On an error dst comes back as it
// was.
func (c *Codec) AppendCompose(dst []byte, msg *message.Message) ([]byte, error) {
	cm, ok := c.byName[msg.Name]
	if !ok {
		return dst, fmt.Errorf("%w: %q", mdl.ErrUnknownMessage, msg.Name)
	}
	w := writers.Get().(*writer)
	defer writers.Put(w)
	w.reset()
	if err := w.items(cm.items, msg.Fields); err != nil {
		return dst, err
	}
	return append(dst, w.buf...), nil
}

// writers recycles writer scratch buffers across Compose calls; reset keeps
// the grown capacity, so steady-state composition costs one right-sized
// copy instead of regrowing the buffer per message.
var writers = sync.Pool{New: func() any { return &writer{} }}

// find returns the first field of scope labelled label, or nil: a message
// to compose holds its fields in the order its maker chose.
func find(scope []*message.Field, label string) *message.Field {
	for _, f := range scope {
		if f.Label == label {
			return f
		}
	}
	return nil
}

// items encodes an item list reading values from scope (the message's
// top-level fields, or one repeated item's children).
func (w *writer) items(items []item, scope []*message.Field) error {
	for i := range items {
		it := &items[i]
		switch it.kind {
		case kindAlign:
			w.align(it.bits)
		case kindFixed:
			switch it.source {
			case fromLength:
				n := 0
				if it.target >= 0 {
					n = variableSize(&items[it.target], scope)
				}
				w.uint(uint64(n), it.bits)
			case fromCount:
				n := 0
				if f := find(scope, it.counts); f != nil {
					n = len(f.Children)
				}
				w.uint(uint64(n), it.bits)
			default:
				val := find(scope, it.label)
				if val == nil {
					val = &it.def
				}
				if err := w.fixed(it, val); err != nil {
					return err
				}
			}
		case kindLenFrom:
			w.align(8)
			f := find(scope, it.label)
			switch {
			case it.typ == message.TypeString:
				w.text(f.ValueString()) // "" when there is none
				w.uint(0, 8)
			case f != nil:
				w.value(f)
			}
		case kindEOF:
			if f := find(scope, it.label); f != nil {
				w.align(8)
				w.value(f)
			}
		case kindCDRSeq:
			if err := w.cdrSeq(find(scope, it.label)); err != nil {
				return err
			}
		case kindRepeat:
			f := find(scope, it.label)
			if f == nil {
				continue // count field composed as 0
			}
			for i, entry := range f.Children {
				if err := w.items(it.items, entry.Children); err != nil {
					return fmt.Errorf("%s[%d]: %w", it.label, i, err)
				}
			}
		}
	}
	return nil
}

// variableSize is how many bytes the variable item it encodes to, for the
// length field ahead of it.
func variableSize(it *item, scope []*message.Field) int {
	f := find(scope, it.label)
	switch {
	case it.typ == message.TypeString:
		return len(f.ValueString()) + 1
	case f == nil:
		return 0
	case f.Type == message.TypeBytes:
		return len(f.Bytes())
	}
	return len(f.Text())
}

// ---- bit stream primitives ----
//
// A field that starts on a byte boundary and is a whole number of bytes
// wide, eight at most, is read and written as big-endian bytes. Every other
// goes bit by bit: that loop is the only path that can read a <Sign:4> or a
// <Flag:1:bool>, and the layout alone, never an option, says which it is.

type reader struct {
	data []byte
	pos  int // in bits
}

// remaining is how many bits of the packet are unread: negative when an
// <align> has stepped past its end.
func (r *reader) remaining() int { return len(r.data)*8 - r.pos }

func (r *reader) align(bits int) {
	if rem := r.pos % bits; rem != 0 {
		r.pos += bits - rem
	}
}

func (r *reader) uint(n int) (uint64, error) {
	if n > 64 {
		return 0, fmt.Errorf("binenc: a number of %d bits exceeds 64", n)
	}
	if r.remaining() < n {
		return 0, ErrShortPacket
	}
	var v uint64
	if (r.pos|n)&7 == 0 {
		for _, b := range r.data[r.pos>>3 : (r.pos+n)>>3] {
			v = v<<8 | uint64(b)
		}
		r.pos += n
		return v, nil
	}
	for i := 0; i < n; i++ {
		byteIdx := r.pos >> 3
		bitIdx := 7 - (r.pos & 7)
		bit := (r.data[byteIdx] >> bitIdx) & 1
		v = v<<1 | uint64(bit)
		r.pos++
	}
	return v, nil
}

// bytes returns the next n bytes of the packet, from the next byte
// boundary on: the packet's own, for the caller to copy.
func (r *reader) bytes(n uint64) ([]byte, error) {
	r.align(8)
	if n > uint64(len(r.data)) || r.remaining() < int(n)*8 {
		return nil, ErrShortPacket
	}
	start := r.pos >> 3
	r.pos += int(n) * 8
	return r.data[start : start+int(n)], nil
}

// rest returns what is left of the packet.
func (r *reader) rest() ([]byte, error) {
	r.align(8)
	if r.remaining() < 0 {
		return nil, ErrShortPacket
	}
	start := r.pos >> 3
	r.pos = len(r.data) * 8
	return r.data[start:], nil
}

// writer appends to buf, which holds every byte pos has reached and none
// beyond: len(buf) is pos/8 rounded up.
type writer struct {
	buf []byte
	pos int // in bits
}

// reset rewinds the writer for reuse, keeping the grown capacity.
// Truncating (not zeroing) is safe because every byte is appended whole
// before any bit is OR-ed in.
func (w *writer) reset() {
	if cap(w.buf) > bufpool.MaxRetain {
		w.buf = nil
	}
	w.buf = w.buf[:0]
	w.pos = 0
}

// ensure appends the zero bytes the next bits bits reach into.
func (w *writer) ensure(bits int) {
	if need := (w.pos + bits + 7) / 8; need > len(w.buf) {
		w.buf = append(w.buf, make([]byte, need-len(w.buf))...)
	}
}

// skip moves on by bits zero bits.
func (w *writer) skip(bits int) {
	w.ensure(bits)
	w.pos += bits
}

func (w *writer) align(bits int) {
	if rem := w.pos % bits; rem != 0 {
		w.skip(bits - rem)
	}
}

func (w *writer) uint(v uint64, n int) {
	if (w.pos|n)&7 == 0 && n <= 64 {
		for shift := n - 8; shift >= 0; shift -= 8 {
			w.buf = append(w.buf, byte(v>>shift))
		}
		w.pos += n
		return
	}
	w.ensure(n)
	for i := n - 1; i >= 0; i-- {
		bit := (v >> i) & 1
		byteIdx := w.pos >> 3
		bitIdx := 7 - (w.pos & 7)
		if bit == 1 {
			w.buf[byteIdx] |= 1 << bitIdx
		}
		w.pos++
	}
}

// text appends s at a byte boundary.
func (w *writer) text(s string) {
	w.buf = append(w.buf, s...)
	w.pos += len(s) * 8
}

// value appends, at a byte boundary, a field's bytes: its own when it is of
// TypeBytes, its text otherwise.
func (w *writer) value(f *message.Field) {
	if f.Type == message.TypeBytes {
		b := f.Bytes()
		w.buf = append(w.buf, b...)
		w.pos += len(b) * 8
		return
	}
	w.text(f.Text())
}

// fixed encodes val as the fixed item it, converting a value of another
// type (a number held as text, say) as the accessors do.
func (w *writer) fixed(it *item, val *message.Field) error {
	switch it.typ {
	case message.TypeBytes, message.TypeString:
		w.align(8)
		from, want := len(w.buf), it.bits/8
		w.value(val)
		if len(w.buf)-from > want {
			w.buf = w.buf[:from+want]
		}
		// Zero padding up to the item's width.
		w.pos = from * 8
		w.skip(want * 8)
	case message.TypeFloat64:
		f := val.Float64()
		if it.bits == 32 {
			w.uint(uint64(math.Float32bits(float32(f))), 32)
		} else {
			w.uint(math.Float64bits(f), 64)
		}
	case message.TypeBool:
		var v uint64
		if val.Bool() {
			v = 1
		}
		w.uint(v, it.bits)
	case message.TypeInt64:
		n := val.Int64()
		mask := ^uint64(0)
		if it.bits < 64 {
			mask = 1<<it.bits - 1
		}
		w.uint(uint64(n)&mask, it.bits)
	default:
		n := val.Uint64()
		if it.bits < 64 && n >= 1<<it.bits {
			return fmt.Errorf("binenc: %q: value %d overflows %d bits", it.label, n, it.bits)
		}
		w.uint(n, it.bits)
	}
	return nil
}

func (w *writer) cdrSeq(f *message.Field) error {
	w.align(32)
	if f == nil {
		w.uint(0, 32)
		return nil
	}
	w.uint(uint64(len(f.Children)), 32)
	for _, p := range f.Children {
		w.align(8)
		switch p.Type {
		case message.TypeString:
			w.uint(uint64(tagString), 8)
			s := p.Text()
			w.align(32)
			w.uint(uint64(len(s)+1), 32)
			w.text(s)
			w.uint(0, 8)
		case message.TypeInt32:
			w.uint(uint64(tagInt32), 8)
			w.align(32)
			w.uint(uint64(uint32(p.Uint64())), 32)
		case message.TypeInt64, message.TypeUint64:
			w.uint(uint64(tagInt64), 8)
			w.align(64)
			w.uint(p.Uint64(), 64)
		case message.TypeBool:
			w.uint(uint64(tagBool), 8)
			var v uint64
			if p.Bool() {
				v = 1
			}
			w.uint(v, 8)
		case message.TypeFloat64:
			w.uint(uint64(tagDouble), 8)
			w.align(64)
			w.uint(math.Float64bits(p.Float64()), 64)
		case message.TypeBytes:
			w.uint(uint64(tagBytes), 8)
			b := p.Bytes()
			w.align(32)
			w.uint(uint64(len(b)), 32)
			w.value(p)
		default:
			return fmt.Errorf("binenc: cannot encode parameter of type %v", p.Type)
		}
	}
	return nil
}

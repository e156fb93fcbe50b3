package binenc

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"starlink/internal/mdl"
	"starlink/internal/message"
)

// The oracle is the engine as it was before New compiled a plan: an
// interpreter of the layout items that reads and writes one bit per loop
// turn, finds every field, length and count by its label, and builds a
// message one node at a time. It is moved here unchanged but for its names
// (and the writer pool, which a reference does not need), and the fuzzers
// hold Parse and Compose to it.

type oracleItem struct {
	kind      itemKind
	label     string
	bits      int
	lenFrom   string
	typ       message.Type
	rawStr    bool // string without NUL-termination semantics (eof:string)
	countFrom string
	items     []oracleItem // kindRepeat body
	// rule is the value a <Rule> of the message asks of this field (ruled
	// says there is one), checked as soon as the field is read. Top-level
	// items only, and the first of a label: the field rulesHold looks up.
	rule  string
	ruled bool
}

type oracleMessage struct {
	spec  *mdl.MessageSpec
	items []oracleItem
	// lenTargets maps a length field's label to the label of the field it
	// sizes, so Compose can derive it.
	lenTargets map[string]string
	// countTargets maps a count field's label to the repeated group it
	// counts, so Compose can derive it.
	countTargets map[string]string
}

// oracleCodec interprets a binary MDL spec.
type oracleCodec struct {
	spec     *mdl.Spec
	messages []*oracleMessage
	byName   map[string]*oracleMessage
}

var _ mdl.Codec = (*oracleCodec)(nil)

// newOracle compiles a binary MDL spec into an interpreting codec.
func newOracle(spec *mdl.Spec) (*oracleCodec, error) {
	c := &oracleCodec{spec: spec, byName: make(map[string]*oracleMessage, len(spec.Messages))}
	for _, ms := range spec.Messages {
		cm, err := oracleCompile(ms)
		if err != nil {
			return nil, err
		}
		c.messages = append(c.messages, cm)
		c.byName[ms.Name] = cm
	}
	return c, nil
}

func oracleCompile(ms *mdl.MessageSpec) (*oracleMessage, error) {
	cm := &oracleMessage{
		spec:         ms,
		lenTargets:   make(map[string]string),
		countTargets: make(map[string]string),
	}
	seen := map[string]bool{}
	// target points at the item list currently being filled; open Repeat
	// groups push a nested list.
	target := &cm.items
	var repeatStack []*oracleItem
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
			if len(repeatStack) > 0 {
				return nil, fmt.Errorf("%w: line %d: nested <Repeat> groups are not supported", ErrBadSpec, it.Line)
			}
			*target = append(*target, oracleItem{
				kind: kindRepeat, label: arg, typ: message.TypeArray, countFrom: it.Arg(2),
			})
			rep := &(*target)[len(*target)-1]
			cm.countTargets[it.Arg(2)] = arg
			repeatStack = append(repeatStack, rep)
			target = &rep.items
			seen[arg] = true
			continue
		case label == "End" && arg == "Repeat":
			if len(repeatStack) == 0 {
				return nil, fmt.Errorf("%w: line %d: <End:Repeat> without <Repeat>", ErrBadSpec, it.Line)
			}
			repeatStack = repeatStack[:len(repeatStack)-1]
			target = &cm.items
			continue
		case label == "align":
			n, err := strconv.Atoi(arg)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("%w: line %d: <align:%s>", ErrBadSpec, it.Line, arg)
			}
			*target = append(*target, oracleItem{kind: kindAlign, bits: n})
			continue
		case arg == "":
			return nil, fmt.Errorf("%w: line %d: field %q needs a length", ErrBadSpec, it.Line, label)
		case arg == "eof":
			typ := message.TypeBytes
			if it.Arg(2) == "string" {
				typ = message.TypeString
			}
			*target = append(*target, oracleItem{kind: kindEOF, label: label, typ: typ, rawStr: true})
		case arg == "cdrseq":
			*target = append(*target, oracleItem{kind: kindCDRSeq, label: label, typ: message.TypeArray})
		default:
			if bits, err := strconv.Atoi(arg); err == nil {
				if bits <= 0 || bits > 1<<20 {
					return nil, fmt.Errorf("%w: line %d: field %q width %d bits", ErrBadSpec, it.Line, label, bits)
				}
				typ, err := fixedType(it.Arg(2), bits)
				if err != nil {
					return nil, fmt.Errorf("%w: line %d: %v", ErrBadSpec, it.Line, err)
				}
				*target = append(*target, oracleItem{kind: kindFixed, label: label, bits: bits, typ: typ})
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
				*target = append(*target, oracleItem{kind: kindLenFrom, label: label, lenFrom: arg, typ: typ})
				cm.lenTargets[arg] = label
			}
		}
		if label != "align" {
			seen[label] = true
		}
	}
	if len(repeatStack) > 0 {
		return nil, fmt.Errorf("%w: message %q: unclosed <Repeat>", ErrBadSpec, ms.Name)
	}
	for _, r := range ms.Rules {
		for i := range cm.items {
			if it := &cm.items[i]; it.label == r.Field && it.kind != kindAlign {
				if !it.ruled {
					it.rule, it.ruled = r.Value, true
				}
				break
			}
		}
	}
	return cm, nil
}

// ParseIn implements mdl.Codec: the oracle's messages are the heap's.
func (c *oracleCodec) ParseIn(_ *message.Store, data []byte) (*message.Message, error) {
	return c.Parse(data)
}

// Parse decodes a packet by trying each message layout in order and
// returning the first whose rules hold. A layout is left at the first field
// that breaks one of its rules (a GIOP reply is not parsed to its end as a
// request first); rulesHold is the whole check, over what was parsed.
func (c *oracleCodec) Parse(data []byte) (*message.Message, error) {
	var firstErr error
	var failed *oracleMessage
	for _, cm := range c.messages {
		msg, err := c.parseAs(cm, data)
		if err != nil {
			if firstErr == nil && err != errRule {
				firstErr, failed = err, cm
			}
			continue
		}
		if oracleRulesHold(cm.spec, msg) {
			return msg, nil
		}
	}
	if firstErr != nil {
		return nil, fmt.Errorf("%w (%s: %v)", mdl.ErrNoMessageMatch, failed.spec.Name, firstErr)
	}
	return nil, mdl.ErrNoMessageMatch
}

func oracleRulesHold(ms *mdl.MessageSpec, msg *message.Message) bool {
	for _, r := range ms.Rules {
		f := msg.Field(r.Field)
		if f == nil || f.ValueString() != r.Value {
			return false
		}
	}
	return true
}

func (c *oracleCodec) parseAs(cm *oracleMessage, data []byte) (*message.Message, error) {
	rd := &bitReader{data: data}
	msg := message.New(cm.spec.Name)
	if err := parseItems(rd, cm.items, &msg.Fields, msg.Fields[:0:0]); err != nil {
		return nil, err
	}
	return msg, nil
}

// findField looks a label up first in the current scope, then in the
// outer (top-level) scope — repeated-group items see their own fields
// plus the message header.
func findField(scope, outer []*message.Field, label string) *message.Field {
	for _, f := range scope {
		if f.Label == label {
			return f
		}
	}
	for _, f := range outer {
		if f.Label == label {
			return f
		}
	}
	return nil
}

// parseItems decodes a layout item list into *out; outer carries the
// enclosing scope for length/count references inside repeated groups.
func parseItems(rd *bitReader, items []oracleItem, out *[]*message.Field, outer []*message.Field) error {
	for _, it := range items {
		var f *message.Field
		var err error
		switch it.kind {
		case kindAlign:
			rd.align(it.bits)
			continue
		case kindFixed:
			if f, err = rd.readFixed(it); err != nil {
				return err
			}
		case kindLenFrom:
			lf := findField(*out, outer, it.lenFrom)
			if lf == nil {
				return fmt.Errorf("binenc: length field %q missing", it.lenFrom)
			}
			n, err := strconv.ParseUint(lf.ValueString(), 10, 32)
			if err != nil {
				return fmt.Errorf("binenc: length field %q value %q: %v", it.lenFrom, lf.ValueString(), err)
			}
			b, err := rd.readBytes(int(n))
			if err != nil {
				return err
			}
			if it.typ == message.TypeString {
				f = message.NewString(it.label, strings.TrimSuffix(string(b), "\x00"))
			} else {
				f = message.NewBytes(it.label, b)
			}
		case kindEOF:
			if b := rd.rest(); it.typ == message.TypeString {
				f = message.NewString(it.label, string(b))
			} else {
				f = message.NewBytes(it.label, b)
			}
		case kindCDRSeq:
			if f, err = rd.readCDRSeq(it.label); err != nil {
				return err
			}
		case kindRepeat:
			cf := findField(*out, outer, it.countFrom)
			if cf == nil {
				return fmt.Errorf("binenc: repeat count field %q missing", it.countFrom)
			}
			count, err := strconv.ParseUint(cf.ValueString(), 10, 32)
			if err != nil {
				return fmt.Errorf("binenc: repeat count %q value %q: %v", it.countFrom, cf.ValueString(), err)
			}
			if count > 1<<16 {
				return fmt.Errorf("binenc: %s: implausible repeat count %d", it.label, count)
			}
			f = message.NewArray(it.label)
			for i := uint64(0); i < count; i++ {
				item := message.NewStruct("item")
				if err := parseItems(rd, it.items, &item.Children, *out); err != nil {
					return fmt.Errorf("%s[%d]: %w", it.label, i, err)
				}
				f.Add(item)
			}
		}
		if it.ruled && f.ValueString() != it.rule {
			return errRule
		}
		*out = append(*out, f)
	}
	return nil
}

// AppendCompose is Compose appended to dst: the oracle is the slow,
// obvious form, a packet of its own copied out.
func (c *oracleCodec) AppendCompose(dst []byte, msg *message.Message) ([]byte, error) {
	packet, err := c.Compose(msg)
	if err != nil {
		return dst, err
	}
	return append(dst, packet...), nil
}

// Compose encodes the abstract message using its named layout.
func (c *oracleCodec) Compose(msg *message.Message) ([]byte, error) {
	cm, ok := c.byName[msg.Name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", mdl.ErrUnknownMessage, msg.Name)
	}
	w := &bitWriter{}
	if err := composeItems(w, cm, cm.items, msg.Fields); err != nil {
		return nil, err
	}
	return w.bytes(), nil
}

// composeItems encodes an item list reading values from scope (the
// message's top-level fields, or one repeated item's children).
func composeItems(w *bitWriter, cm *oracleMessage, items []oracleItem, scope []*message.Field) error {
	// Pre-compute the encoded bytes of this scope's variable-length fields
	// so their length fields can be derived.
	varBytes := map[string][]byte{}
	for _, it := range items {
		if it.kind != kindLenFrom {
			continue
		}
		f := findField(scope, nil, it.label)
		var b []byte
		if f != nil {
			if it.typ == message.TypeString {
				b = append([]byte(f.ValueString()), 0)
			} else {
				b = f.Bytes()
			}
		} else if it.typ == message.TypeString {
			b = []byte{0}
		}
		varBytes[it.label] = b
	}
	for _, it := range items {
		switch it.kind {
		case kindAlign:
			w.align(it.bits)
		case kindFixed:
			if target, ok := cm.lenTargets[it.label]; ok {
				w.writeUint(uint64(len(varBytes[target])), it.bits)
				continue
			}
			if target, ok := cm.countTargets[it.label]; ok {
				n := 0
				if f := findField(scope, nil, target); f != nil {
					n = len(f.Children)
				}
				w.writeUint(uint64(n), it.bits)
				continue
			}
			var scratch message.Field
			if err := w.writeFixed(it, fixedValue(cm.spec, scope, it, &scratch)); err != nil {
				return err
			}
		case kindLenFrom:
			w.writeBytes(varBytes[it.label])
		case kindEOF:
			f := findField(scope, nil, it.label)
			if f == nil {
				continue
			}
			w.writeBytes(f.Bytes())
		case kindCDRSeq:
			f := findField(scope, nil, it.label)
			if err := w.writeCDRSeq(f); err != nil {
				return err
			}
		case kindRepeat:
			f := findField(scope, nil, it.label)
			if f == nil {
				continue // count field composed as 0
			}
			for i, item := range f.Children {
				if err := composeItems(w, cm, it.items, item.Children); err != nil {
					return fmt.Errorf("%s[%d]: %w", it.label, i, err)
				}
			}
		}
	}
	return nil
}

// fixedValue finds what a fixed item is composed from: the message's field,
// else the value a rule pins it to, else zero — the last two written into
// scratch.
func fixedValue(ms *mdl.MessageSpec, scope []*message.Field, it oracleItem, scratch *message.Field) *message.Field {
	if f := findField(scope, nil, it.label); f != nil {
		return f
	}
	if r, ok := ms.Rule(it.label); ok {
		scratch.SetText(r.Value)
	} else {
		scratch.Set(it.typ, nil)
	}
	return scratch
}

// ---- bit stream primitives ----

type bitReader struct {
	data   []byte
	bitPos int
}

func (r *bitReader) remainingBits() int { return len(r.data)*8 - r.bitPos }

func (r *bitReader) align(bits int) {
	if rem := r.bitPos % bits; rem != 0 {
		r.bitPos += bits - rem
	}
}

func (r *bitReader) readBits(n int) (uint64, error) {
	if n > 64 {
		return 0, fmt.Errorf("binenc: readBits(%d) exceeds 64", n)
	}
	if r.remainingBits() < n {
		return 0, ErrShortPacket
	}
	var v uint64
	for i := 0; i < n; i++ {
		byteIdx := r.bitPos >> 3
		bitIdx := 7 - (r.bitPos & 7)
		bit := (r.data[byteIdx] >> bitIdx) & 1
		v = v<<1 | uint64(bit)
		r.bitPos++
	}
	return v, nil
}

func (r *bitReader) readBytes(n int) ([]byte, error) {
	r.align(8)
	if r.remainingBits() < n*8 {
		return nil, ErrShortPacket
	}
	start := r.bitPos >> 3
	r.bitPos += n * 8
	out := make([]byte, n)
	copy(out, r.data[start:start+n])
	return out, nil
}

func (r *bitReader) rest() []byte {
	r.align(8)
	start := r.bitPos >> 3
	r.bitPos = len(r.data) * 8
	out := make([]byte, len(r.data)-start)
	copy(out, r.data[start:])
	return out
}

func (r *bitReader) readFixed(it oracleItem) (*message.Field, error) {
	switch it.typ {
	case message.TypeBytes, message.TypeString:
		if it.bits%8 != 0 {
			return nil, fmt.Errorf("binenc: %q: byte field width %d not a multiple of 8", it.label, it.bits)
		}
		b, err := r.readBytes(it.bits / 8)
		if err != nil {
			return nil, fmt.Errorf("%w reading %q", err, it.label)
		}
		var f *message.Field
		if it.typ == message.TypeString {
			f = message.NewString(it.label, string(b))
		} else {
			f = message.NewBytes(it.label, b)
		}
		f.LengthBits = int32(it.bits)
		return f, nil
	case message.TypeFloat64:
		v, err := r.readBits(it.bits)
		if err != nil {
			return nil, fmt.Errorf("%w reading %q", err, it.label)
		}
		var fv float64
		if it.bits == 32 {
			fv = float64(math.Float32frombits(uint32(v)))
		} else {
			fv = math.Float64frombits(v)
		}
		f := message.NewFloat64(it.label, fv)
		f.LengthBits = int32(it.bits)
		return f, nil
	case message.TypeBool:
		v, err := r.readBits(it.bits)
		if err != nil {
			return nil, fmt.Errorf("%w reading %q", err, it.label)
		}
		f := message.NewBool(it.label, v != 0)
		f.LengthBits = int32(it.bits)
		return f, nil
	case message.TypeInt64:
		v, err := r.readBits(it.bits)
		if err != nil {
			return nil, fmt.Errorf("%w reading %q", err, it.label)
		}
		// Sign-extend.
		sv := int64(v)
		if it.bits < 64 && v&(1<<(it.bits-1)) != 0 {
			sv = int64(v | ^uint64(0)<<it.bits)
		}
		f := message.NewInt64(it.label, sv)
		f.LengthBits = int32(it.bits)
		return f, nil
	default:
		v, err := r.readBits(it.bits)
		if err != nil {
			return nil, fmt.Errorf("%w reading %q", err, it.label)
		}
		f := message.NewUint64(it.label, v)
		f.LengthBits = int32(it.bits)
		return f, nil
	}
}

func (r *bitReader) readCDRSeq(label string) (*message.Field, error) {
	r.align(32)
	count, err := r.readBits(32)
	if err != nil {
		return nil, fmt.Errorf("%w reading %s count", err, label)
	}
	if count > 1<<16 {
		return nil, fmt.Errorf("binenc: %s: implausible parameter count %d", label, count)
	}
	arr := message.NewArray(label)
	for i := uint64(0); i < count; i++ {
		r.align(8)
		tag, err := r.readBits(8)
		if err != nil {
			return nil, fmt.Errorf("%w reading %s tag", err, label)
		}
		p, err := r.readCDRValue(byte(tag))
		if err != nil {
			return nil, fmt.Errorf("%s[%d]: %w", label, i, err)
		}
		arr.Add(p)
	}
	return arr, nil
}

func (r *bitReader) readCDRValue(tag byte) (*message.Field, error) {
	switch tag {
	case tagString:
		r.align(32)
		n, err := r.readBits(32)
		if err != nil {
			return nil, err
		}
		b, err := r.readBytes(int(n))
		if err != nil {
			return nil, err
		}
		s := strings.TrimSuffix(string(b), "\x00")
		return message.NewString("Parameter", s), nil
	case tagInt32:
		r.align(32)
		v, err := r.readBits(32)
		if err != nil {
			return nil, err
		}
		return message.NewInt64("Parameter", int64(int32(v))), nil
	case tagInt64:
		r.align(64)
		v, err := r.readBits(64)
		if err != nil {
			return nil, err
		}
		return message.NewInt64("Parameter", int64(v)), nil
	case tagBool:
		v, err := r.readBits(8)
		if err != nil {
			return nil, err
		}
		return message.NewBool("Parameter", v != 0), nil
	case tagDouble:
		r.align(64)
		v, err := r.readBits(64)
		if err != nil {
			return nil, err
		}
		return message.NewFloat64("Parameter", math.Float64frombits(v)), nil
	case tagBytes:
		r.align(32)
		n, err := r.readBits(32)
		if err != nil {
			return nil, err
		}
		b, err := r.readBytes(int(n))
		if err != nil {
			return nil, err
		}
		return message.NewBytes("Parameter", b), nil
	default:
		return nil, fmt.Errorf("binenc: unknown CDR parameter tag %d", tag)
	}
}

type bitWriter struct {
	buf    []byte
	bitPos int
}

func (w *bitWriter) bytes() []byte { return w.buf }

func (w *bitWriter) ensure(bits int) {
	need := (w.bitPos + bits + 7) / 8
	for len(w.buf) < need {
		w.buf = append(w.buf, 0)
	}
}

func (w *bitWriter) align(bits int) {
	if rem := w.bitPos % bits; rem != 0 {
		pad := bits - rem
		w.ensure(pad)
		w.bitPos += pad
	}
}

func (w *bitWriter) writeUint(v uint64, n int) {
	w.ensure(n)
	for i := n - 1; i >= 0; i-- {
		bit := (v >> i) & 1
		byteIdx := w.bitPos >> 3
		bitIdx := 7 - (w.bitPos & 7)
		if bit == 1 {
			w.buf[byteIdx] |= 1 << bitIdx
		}
		w.bitPos++
	}
}

func (w *bitWriter) writeBytes(b []byte) {
	w.align(8)
	w.ensure(len(b) * 8)
	copy(w.buf[w.bitPos>>3:], b)
	w.bitPos += len(b) * 8
}

// writeFixed encodes f as the fixed item it, converting a value of another
// type (a number held as text, say) as the accessors do.
func (w *bitWriter) writeFixed(it oracleItem, val *message.Field) error {
	switch it.typ {
	case message.TypeBytes, message.TypeString:
		b := val.Bytes()
		want := it.bits / 8
		if len(b) > want {
			b = b[:want]
		}
		w.writeBytes(b)
		// Zero padding up to the item's width.
		w.ensure((want - len(b)) * 8)
		w.bitPos += (want - len(b)) * 8
		return nil
	case message.TypeFloat64:
		f := val.Float64()
		if it.bits == 32 {
			w.writeUint(uint64(math.Float32bits(float32(f))), 32)
		} else {
			w.writeUint(math.Float64bits(f), 64)
		}
		return nil
	case message.TypeBool:
		var v uint64
		if val.Bool() {
			v = 1
		}
		w.writeUint(v, it.bits)
		return nil
	case message.TypeInt64:
		n := val.Int64()
		mask := ^uint64(0)
		if it.bits < 64 {
			mask = 1<<it.bits - 1
		}
		w.writeUint(uint64(n)&mask, it.bits)
		return nil
	default:
		n := val.Uint64()
		if it.bits < 64 && n >= 1<<it.bits {
			return fmt.Errorf("binenc: %q: value %d overflows %d bits", it.label, n, it.bits)
		}
		w.writeUint(n, it.bits)
		return nil
	}
}

func (w *bitWriter) writeCDRSeq(f *message.Field) error {
	w.align(32)
	if f == nil {
		w.writeUint(0, 32)
		return nil
	}
	w.writeUint(uint64(len(f.Children)), 32)
	for _, p := range f.Children {
		w.align(8)
		switch p.Type {
		case message.TypeString:
			w.writeUint(uint64(tagString), 8)
			s := p.ValueString()
			w.align(32)
			w.writeUint(uint64(len(s)+1), 32)
			w.writeBytes(append([]byte(s), 0))
		case message.TypeInt32:
			w.writeUint(uint64(tagInt32), 8)
			w.align(32)
			var buf [8]byte
			binary.BigEndian.PutUint64(buf[:], p.Uint64())
			w.writeBytes(buf[4:])
		case message.TypeInt64, message.TypeUint64:
			w.writeUint(uint64(tagInt64), 8)
			w.align(64)
			w.writeUint(p.Uint64(), 64)
		case message.TypeBool:
			w.writeUint(uint64(tagBool), 8)
			var v uint64
			if p.Bool() {
				v = 1
			}
			w.writeUint(v, 8)
		case message.TypeFloat64:
			w.writeUint(uint64(tagDouble), 8)
			w.align(64)
			w.writeUint(math.Float64bits(p.Float64()), 64)
		case message.TypeBytes:
			w.writeUint(uint64(tagBytes), 8)
			b := p.Bytes()
			w.align(32)
			w.writeUint(uint64(len(b)), 32)
			w.writeBytes(b)
		default:
			return fmt.Errorf("binenc: cannot encode parameter of type %v", p.Type)
		}
	}
	return nil
}

package binenc

import (
	"bytes"
	"slices"
	"testing"

	"starlink/internal/mdl"
	"starlink/internal/message"
)

// parsePlain is Parse with every early exit taken out: no static prefix is
// held against the packet and no rule against a field as it is read; every
// layout is read to its end and rulesHold alone decides.
func parsePlain(c *Codec, data []byte) (*message.Message, bool) {
	for _, cm := range c.messages {
		plain := *cm
		plain.prefix = nil
		plain.items = slices.Clone(cm.items)
		for i := range plain.items {
			plain.items[i].check = nil
		}
		p := parser{reader: reader{data: data}}
		if msg, err := p.parse(&plain); err == nil && cm.rulesHold(msg.Fields) {
			return msg, true
		}
	}
	return nil, false
}

// sameAsPlain holds Parse to parsePlain: the same message, or none.
func sameAsPlain(t *testing.T, codec mdl.Codec, data []byte, msg *message.Message, err error) {
	t.Helper()
	want, ok := parsePlain(codec.(*Codec), data)
	if (err == nil) != ok || (ok && !msg.Equal(want)) {
		t.Fatalf("Parse gives %v, %v; with every layout read to its end it is %v, %v", msg, err, want, ok)
	}
}

// pair is a document compiled twice: the plan, and the interpreter it
// replaced.
type pair struct {
	plan   mdl.Codec
	oracle *oracleCodec
}

func mustPair(t testing.TB, doc string) pair {
	t.Helper()
	spec, err := mdl.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := newOracle(spec)
	if err != nil {
		t.Fatal(err)
	}
	return pair{plan, oracle}
}

// compose composes msg with both engines, which must agree to the byte, and
// returns the bytes.
func (p pair) compose(t testing.TB, msg *message.Message) []byte {
	t.Helper()
	wire, err := p.plan.Compose(msg)
	want, oracleErr := p.oracle.Compose(msg)
	if (err == nil) != (oracleErr == nil) || !bytes.Equal(wire, want) {
		t.Fatalf("Compose(%v)\n gives %x, %v\noracle %x, %v", msg, wire, err, want, oracleErr)
	}
	return wire
}

// check holds the plan to its two references on one packet: Parse reads
// what parsePlain reads and what the interpreter reads, or all three refuse;
// and what was read composes — to the bytes the interpreter composes — and
// those bytes parse back. A length the packet states gives way to the one
// Compose derives (a string that came without its NUL gets one), so what
// they parse back to is Equal when the packet was the canonical form to
// begin with, and composes to the same bytes again in any case. (A derived
// length that does not fit its field is written cut short, as it always was:
// the narrowest length field of the documents fuzzed has 16 bits and a
// string to go with it, so a packet that large is only read and composed.)
func (p pair) check(t *testing.T, data []byte) {
	t.Helper()
	msg, err := p.plan.Parse(data)
	sameAsPlain(t, p.plan, data, msg, err)
	want, oracleErr := p.oracle.Parse(data)
	if (err == nil) != (oracleErr == nil) || (err == nil && !msg.Equal(want)) {
		t.Fatalf("Parse(%x)\n gives %v, %v\noracle %v, %v", data, msg, err, want, oracleErr)
	}
	if err != nil {
		return
	}
	wire := p.compose(t, msg)
	if wire == nil {
		t.Fatalf("Parse(%x) = %v does not compose", data, msg)
	}
	if len(data) >= 1<<16-1 {
		return
	}
	again, err := p.plan.Parse(wire)
	if err != nil || again.Name != msg.Name || bytes.HasPrefix(data, wire) && !again.Equal(msg) {
		t.Fatalf("Parse(%x) = %v\ncomposed to %x, which parses to %v, %v", data, msg, wire, again, err)
	}
	if stable := p.compose(t, again); !bytes.Equal(stable, wire) {
		t.Fatalf("Parse(%x) = %v\ncomposed to %x, and read back, to %x", data, msg, wire, stable)
	}
}

func FuzzGIOPParse(f *testing.F) {
	p := mustPair(f, giopDoc)
	f.Add(p.compose(f, giopRequest()))
	f.Add(p.compose(f, giopReply()))
	f.Add(p.compose(f, giopRequestOfEveryType()))
	f.Add([]byte("GIOP"))
	f.Add([]byte{})
	// an operation of no bytes at all, and one without its NUL
	f.Add([]byte("GIOP\x01\x00\x00\x00\x00\x00\x00\x18\x00\x00\x00\x07\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("GIOP\x01\x00\x00\x00\x00\x00\x00\x18\x00\x00\x00\x07\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x03Add\x00\x00\x00\x00\x00"))
	f.Fuzz(p.check)
}

func FuzzSLPRepeatParse(f *testing.F) {
	p := mustPair(f, slpDoc)
	f.Add(p.compose(f, slpRequest()))
	f.Add(p.compose(f, slpReply()))
	f.Fuzz(p.check)
}

// bitsDoc is a layout no shipped document has: fields that are not whole
// bytes wide or do not start on a byte boundary, a repeated group of them,
// a rule on one, and a second message behind the first. The shipped layouts
// are byte-aligned throughout, so this is what keeps the bit loop — the
// only path that can read these — held to the interpreter.
const bitsDoc = `
<MDL:Bits:binary>
<Message:Bits>
<Rule:A=5>
<A:3><B:13><C:1:bool><D:7:int><E:40><F:24:string><align:32><G:64:float>
<N:5>
<Repeat:R:N>
<X:3><Y:6:int><Z:1:bool>
<End:Repeat>
<T:12>
<End:Message>

<Message:Tail>
<Rule:A=2>
<A:3><Rest:5:int><L:4><V:L><H:32:float><W:eof:string>
<End:Message>
`

func bitsMessages() []*message.Message {
	entry := func(x uint64, y int64, z bool) *message.Field {
		return message.NewStruct("item", message.NewUint64("X", x), message.NewInt64("Y", y), message.NewBool("Z", z))
	}
	return []*message.Message{
		message.New("Bits",
			message.NewUint64("B", 8191), message.NewBool("C", true), message.NewInt64("D", -64),
			message.NewUint64("E", 1<<39|1), message.NewString("F", "abc"), message.NewFloat64("G", -2.5),
			message.NewArray("R", entry(7, -32, true), entry(0, 31, false), entry(5, -1, true)),
			message.NewUint64("T", 0xabc)),
		message.New("Tail",
			message.NewInt64("Rest", -16), message.NewBytes("V", []byte("hello")),
			message.NewFloat64("H", 0.5), message.NewString("W", "rest")),
	}
}

func FuzzBitFields(f *testing.F) {
	p := mustPair(f, bitsDoc)
	for _, msg := range bitsMessages() {
		f.Add(p.compose(f, msg))
	}
	f.Add([]byte{0xa0})
	f.Fuzz(p.check)
}

func FuzzMDLDocument(f *testing.F) {
	f.Add(giopDoc)
	f.Add(slpDoc)
	f.Add(bitsDoc)
	f.Add("<MDL:X:binary>\n<Message:M><A:8><End:Message>")
	f.Fuzz(func(t *testing.T, doc string) {
		spec, err := mdl.ParseString(doc)
		if err != nil {
			return
		}
		_, _ = New(spec) // must not panic
	})
}

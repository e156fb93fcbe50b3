package binenc

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"testing/quick"

	"starlink/internal/mdl"
	"starlink/internal/message"
	"starlink/internal/testutil"
)

// giopDoc mirrors the paper's Fig. 5 GIOP layout (with the cdrseq
// substitution for parameter bodies documented in the package comment).
const giopDoc = `
<MDL:GIOP:binary>
<Message:GIOPRequest>
<Rule:Magic=GIOP>
<Rule:MessageType=0>
<Magic:32:string>
<VersionMajor:8><VersionMinor:8><Flags:8><MessageType:8>
<MessageSize:32>
<RequestID:32><Response:8>
<align:32>
<ObjectKeyLength:32><ObjectKey:ObjectKeyLength>
<OperationLength:32><Operation:OperationLength:string>
<align:64>
<ParameterArray:cdrseq>
<End:Message>

<Message:GIOPReply>
<Rule:Magic=GIOP>
<Rule:MessageType=1>
<Magic:32:string>
<VersionMajor:8><VersionMinor:8><Flags:8><MessageType:8>
<MessageSize:32>
<RequestID:32><ReplyStatus:32>
<align:64>
<ParameterArray:cdrseq>
<End:Message>
`

func mustCodec(t *testing.T, doc string) mdl.Codec {
	t.Helper()
	spec, err := mdl.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func giopRequest() *message.Message {
	return message.New("GIOPRequest",
		message.NewPrimitive("Magic", message.TypeString, "GIOP"),
		message.NewPrimitive("VersionMajor", message.TypeUint64, 1),
		message.NewPrimitive("VersionMinor", message.TypeUint64, 0),
		message.NewPrimitive("Flags", message.TypeUint64, 0),
		message.NewPrimitive("MessageType", message.TypeUint64, 0),
		message.NewPrimitive("MessageSize", message.TypeUint64, 0),
		message.NewPrimitive("RequestID", message.TypeUint64, 7),
		message.NewPrimitive("Response", message.TypeUint64, 1),
		message.NewPrimitive("ObjectKey", message.TypeBytes, []byte("calc-service")),
		message.NewPrimitive("Operation", message.TypeString, "Add"),
		message.NewArray("ParameterArray",
			message.NewPrimitive("Parameter", message.TypeInt64, 20),
			message.NewPrimitive("Parameter", message.TypeInt64, 22),
		),
	)
}

func TestGIOPRequestRoundTrip(t *testing.T) {
	c := mustCodec(t, giopDoc)
	wire, err := c.Compose(giopRequest())
	if err != nil {
		t.Fatal(err)
	}
	if string(wire[:4]) != "GIOP" {
		t.Errorf("magic = %q", wire[:4])
	}
	got, err := c.Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "GIOPRequest" {
		t.Fatalf("parsed as %q", got.Name)
	}
	if op, _ := got.GetString("Operation"); op != "Add" {
		t.Errorf("Operation = %q", op)
	}
	if id, _ := got.GetInt("RequestID"); id != 7 {
		t.Errorf("RequestID = %d", id)
	}
	if key, _ := got.Get("ObjectKey"); string(key.([]byte)) != "calc-service" {
		t.Errorf("ObjectKey = %q", key)
	}
	p0, err := got.GetInt("ParameterArray.Parameter[0]")
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := got.GetInt("ParameterArray.Parameter[1]")
	if p0 != 20 || p1 != 22 {
		t.Errorf("params = %d, %d", p0, p1)
	}
}

func TestGIOPDispatchOnMessageType(t *testing.T) {
	c := mustCodec(t, giopDoc)
	reply := message.New("GIOPReply",
		message.NewPrimitive("RequestID", message.TypeUint64, 9),
		message.NewPrimitive("ReplyStatus", message.TypeUint64, 0),
		message.NewArray("ParameterArray",
			message.NewPrimitive("Parameter", message.TypeInt64, 42),
		),
	)
	wire, err := c.Compose(reply)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "GIOPReply" {
		t.Fatalf("dispatched to %q, want GIOPReply", got.Name)
	}
	// Rule fields were auto-filled on compose.
	if mt, _ := got.GetInt("MessageType"); mt != 1 {
		t.Errorf("MessageType = %d", mt)
	}
	if magic, _ := got.GetString("Magic"); magic != "GIOP" {
		t.Errorf("Magic = %q", magic)
	}
	if v, _ := got.GetInt("ParameterArray.Parameter[0]"); v != 42 {
		t.Errorf("result param = %d", v)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	c := mustCodec(t, giopDoc)
	if _, err := c.Parse([]byte("NOTGIOPxxxxxxxxxxxxxxxxxxxxxxxxxxxx")); !errors.Is(err, mdl.ErrNoMessageMatch) {
		t.Errorf("err = %v, want ErrNoMessageMatch", err)
	}
	if _, err := c.Parse([]byte{1, 2}); !errors.Is(err, mdl.ErrNoMessageMatch) {
		t.Errorf("short packet err = %v", err)
	}
}

func TestComposeUnknownMessage(t *testing.T) {
	c := mustCodec(t, giopDoc)
	if _, err := c.Compose(message.New("Bogus")); !errors.Is(err, mdl.ErrUnknownMessage) {
		t.Errorf("err = %v, want ErrUnknownMessage", err)
	}
}

// giopRequestOfEveryType is giopRequest with one parameter of every CDR type.
func giopRequestOfEveryType() *message.Message {
	in := giopRequest()
	in.Field("ParameterArray").Children = []*message.Field{
		message.NewPrimitive("Parameter", message.TypeString, "hello world"),
		message.NewPrimitive("Parameter", message.TypeInt64, -5),
		message.NewPrimitive("Parameter", message.TypeBool, true),
		message.NewPrimitive("Parameter", message.TypeFloat64, 2.718281828),
		message.NewPrimitive("Parameter", message.TypeBytes, []byte{0, 1, 2, 255}),
		message.NewPrimitive("Parameter", message.TypeInt32, -7),
		message.NewPrimitive("Parameter", message.TypeString, ""),
	}
	return in
}

func TestAllParameterTypesRoundTrip(t *testing.T) {
	c := mustCodec(t, giopDoc)
	wire, err := c.Compose(giopRequestOfEveryType())
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := got.Lookup("ParameterArray")
	if err != nil {
		t.Fatal(err)
	}
	if len(arr.Children) != 7 {
		t.Fatalf("param count = %d", len(arr.Children))
	}
	checks := []struct {
		idx  int
		want any
	}{
		{0, "hello world"},
		{1, int64(-5)},
		{2, true},
		{3, 2.718281828},
		{5, int64(-7)},
		{6, ""},
	}
	for _, ck := range checks {
		got := arr.Children[ck.idx].Value()
		if got != ck.want {
			t.Errorf("param[%d] = %#v, want %#v", ck.idx, got, ck.want)
		}
	}
	if b := arr.Children[4].Bytes(); arr.Children[4].Type != message.TypeBytes || string(b) != string([]byte{0, 1, 2, 255}) {
		t.Errorf("bytes param = %v", b)
	}
}

func TestSignedAndSubByteFields(t *testing.T) {
	doc := `
<MDL:T:binary>
<Message:M>
<Sign:4><Small:4:int>
<Big:16:int>
<Flag:1:bool><Pad:7>
<F:64:float>
<End:Message>
`
	c := mustCodec(t, doc)
	in := message.New("M",
		message.NewPrimitive("Sign", message.TypeUint64, 5),
		message.NewPrimitive("Small", message.TypeInt64, -3),
		message.NewPrimitive("Big", message.TypeInt64, -1000),
		message.NewPrimitive("Flag", message.TypeBool, true),
		message.NewPrimitive("Pad", message.TypeUint64, 0),
		message.NewPrimitive("F", message.TypeFloat64, -0.5),
	)
	wire, err := c.Compose(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.GetInt("Small"); v != -3 {
		t.Errorf("Small = %d", v)
	}
	if v, _ := got.GetInt("Big"); v != -1000 {
		t.Errorf("Big = %d", v)
	}
	if v, _ := got.Get("Flag"); v != true {
		t.Errorf("Flag = %v", v)
	}
	if v, _ := got.Get("F"); v != -0.5 {
		t.Errorf("F = %v", v)
	}
}

func TestFloat32Field(t *testing.T) {
	c := mustCodec(t, "<MDL:T:binary>\n<Message:M><F:32:float><End:Message>")
	in := message.New("M", message.NewPrimitive("F", message.TypeFloat64, 1.5))
	wire, err := c.Compose(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Get("F"); v != 1.5 {
		t.Errorf("F = %v", v)
	}
}

func TestEOFField(t *testing.T) {
	c := mustCodec(t, "<MDL:T:binary>\n<Message:M><Len:8><Body:eof:string><End:Message>")
	in := message.New("M",
		message.NewPrimitive("Len", message.TypeUint64, 0),
		message.NewPrimitive("Body", message.TypeString, "trailing text"),
	)
	wire, err := c.Compose(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := got.GetString("Body"); s != "trailing text" {
		t.Errorf("Body = %q", s)
	}
}

func TestBadSpecs(t *testing.T) {
	tests := []struct {
		name string
		doc  string
	}{
		{"zero width", "<MDL:T:binary>\n<Message:M><A:0><End:Message>"},
		{"bad align", "<MDL:T:binary>\n<Message:M><align:x><End:Message>"},
		{"missing length", "<MDL:T:binary>\n<Message:M><A><End:Message>"},
		{"forward length ref", "<MDL:T:binary>\n<Message:M><A:B><B:32><End:Message>"},
		{"bad fixed type", "<MDL:T:binary>\n<Message:M><A:8:banana><End:Message>"},
		{"bad var type", "<MDL:T:binary>\n<Message:M><L:32><A:L:banana><End:Message>"},
		{"float width", "<MDL:T:binary>\n<Message:M><A:16:float><End:Message>"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spec, err := mdl.ParseString(tt.doc)
			if err != nil {
				t.Fatalf("doc did not parse: %v", err)
			}
			if _, err := New(spec); !errors.Is(err, ErrBadSpec) {
				t.Errorf("New err = %v, want ErrBadSpec", err)
			}
		})
	}
}

func TestUintOverflowRejected(t *testing.T) {
	c := mustCodec(t, "<MDL:T:binary>\n<Message:M><A:4><End:Message>")
	in := message.New("M", message.NewPrimitive("A", message.TypeUint64, 16))
	if _, err := c.Compose(in); err == nil {
		t.Error("overflowing value accepted")
	}
}

func TestQuickRequestRoundTrip(t *testing.T) {
	spec, err := mdl.ParseString(giopDoc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := giopRequest()
		in.Field("RequestID").SetUint64(r.Uint64() >> 32)
		in.Field("Operation").SetText(randOp(r))
		params := in.Field("ParameterArray")
		params.Children = nil
		for i := 0; i < r.Intn(5); i++ {
			switch r.Intn(4) {
			case 0:
				params.Add(message.NewPrimitive("Parameter", message.TypeString, randOp(r)))
			case 1:
				params.Add(message.NewPrimitive("Parameter", message.TypeInt64, r.Int63()-r.Int63()))
			case 2:
				params.Add(message.NewPrimitive("Parameter", message.TypeBool, r.Intn(2) == 0))
			case 3:
				params.Add(message.NewPrimitive("Parameter", message.TypeFloat64, r.NormFloat64()))
			}
		}
		wire, err := c.Compose(in)
		if err != nil {
			return false
		}
		out, err := c.Parse(wire)
		if err != nil || out.Name != "GIOPRequest" {
			return false
		}
		inArr, _ := in.Lookup("ParameterArray")
		outArr, _ := out.Lookup("ParameterArray")
		if len(inArr.Children) != len(outArr.Children) {
			return false
		}
		for i := range inArr.Children {
			if inArr.Children[i].ValueString() != outArr.Children[i].ValueString() {
				return false
			}
		}
		op1, _ := in.GetString("Operation")
		op2, _ := out.GetString("Operation")
		return op1 == op2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func randOp(r *rand.Rand) string {
	const letters = "abcdefghijklmnop.XYZ0123456789"
	n := r.Intn(20)
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[r.Intn(len(letters))]
	}
	return string(b)
}

func BenchmarkGIOPParse(b *testing.B) {
	spec, _ := mdl.ParseString(giopDoc)
	c, _ := New(spec)
	wire, err := c.Compose(giopRequest())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Parse(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGIOPParseReply(b *testing.B) {
	spec, _ := mdl.ParseString(giopDoc)
	c, _ := New(spec)
	wire, err := c.Compose(giopReply())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Parse(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGIOPCompose(b *testing.B) {
	spec, _ := mdl.ParseString(giopDoc)
	c, _ := New(spec)
	msg := giopRequest()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compose(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// slpDoc is the SLP document (RFC 2608 §8 simplified). Its Service Reply
// exercises repeated groups: N URL entries.
const slpDoc = `
<MDL:SLP:binary>
<Message:ServiceRequest>
<Rule:Version=2>
<Rule:FunctionID=1>
<Version:8><FunctionID:8>
<XID:16>
<PRListLen:16><PRList:PRListLen:string>
<ServiceTypeLen:16><ServiceType:ServiceTypeLen:string>
<ScopeLen:16><Scope:ScopeLen:string>
<End:Message>

<Message:ServiceReply>
<Rule:Version=2>
<Rule:FunctionID=2>
<Version:8><FunctionID:8>
<XID:16>
<ErrorCode:16>
<URLCount:16>
<Repeat:URLEntries:URLCount>
<Reserved:8><Lifetime:16>
<URLLen:16><URL:URLLen:string>
<End:Repeat>
<End:Message>
`

func slpRequest() *message.Message {
	return message.New("ServiceRequest",
		message.NewPrimitive("XID", message.TypeUint64, 513),
		message.NewPrimitive("PRList", message.TypeString, ""),
		message.NewPrimitive("ServiceType", message.TypeString, "service:printer"),
		message.NewPrimitive("Scope", message.TypeString, "default"),
	)
}

func slpReply() *message.Message {
	entry := func(lifetime int64, url string) *message.Field {
		return message.NewStruct("item",
			message.NewPrimitive("Reserved", message.TypeUint64, 0),
			message.NewPrimitive("Lifetime", message.TypeUint64, lifetime),
			message.NewPrimitive("URL", message.TypeString, url),
		)
	}
	return message.New("ServiceReply",
		message.NewPrimitive("XID", message.TypeUint64, 77),
		message.NewPrimitive("ErrorCode", message.TypeUint64, 0),
		message.NewArray("URLEntries",
			entry(300, "service:printer:lpr://printer1.example"),
			entry(600, "service:printer:lpr://printer2.example"),
		),
	)
}

func TestRepeatGroupRoundTrip(t *testing.T) {
	c := mustCodec(t, slpDoc)
	wire, err := c.Compose(slpReply())
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "ServiceReply" {
		t.Fatalf("parsed %q", got.Name)
	}
	// Count was derived on compose.
	if n, _ := got.GetInt("URLCount"); n != 2 {
		t.Errorf("URLCount = %d", n)
	}
	if u, _ := got.GetString("URLEntries.item[0].URL"); u != "service:printer:lpr://printer1.example" {
		t.Errorf("url0 = %q", u)
	}
	if lt, _ := got.GetInt("URLEntries.item[1].Lifetime"); lt != 600 {
		t.Errorf("lifetime1 = %d", lt)
	}
}

func TestRepeatGroupEmpty(t *testing.T) {
	c := mustCodec(t, slpDoc)
	in := message.New("ServiceReply",
		message.NewPrimitive("XID", message.TypeUint64, 1),
		message.NewPrimitive("ErrorCode", message.TypeUint64, 0),
		message.NewArray("URLEntries"),
	)
	wire, err := c.Compose(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := got.Lookup("URLEntries")
	if err != nil {
		t.Fatal(err)
	}
	if len(arr.Children) != 0 {
		t.Errorf("entries = %d", len(arr.Children))
	}
	// Absent repeat field composes as count 0 too.
	in2 := message.New("ServiceReply",
		message.NewPrimitive("XID", message.TypeUint64, 1),
		message.NewPrimitive("ErrorCode", message.TypeUint64, 0),
	)
	if _, err := c.Compose(in2); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"missing count", "<MDL:T:binary>\n<Message:M><Repeat:R:><A:8><End:Repeat><End:Message>"},
		{"forward count", "<MDL:T:binary>\n<Message:M><Repeat:R:C><A:8><End:Repeat><C:16><End:Message>"},
		{"unclosed", "<MDL:T:binary>\n<Message:M><C:16><Repeat:R:C><A:8><End:Message>"},
		{"end without repeat", "<MDL:T:binary>\n<Message:M><End:Repeat><End:Message>"},
		{"nested", "<MDL:T:binary>\n<Message:M><C:16><Repeat:R:C><Repeat:S:C><A:8><End:Repeat><End:Repeat><End:Message>"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			spec, err := mdl.ParseString(tt.doc)
			if err != nil {
				t.Fatalf("doc did not parse: %v", err)
			}
			if _, err := New(spec); !errors.Is(err, ErrBadSpec) {
				t.Errorf("err = %v, want ErrBadSpec", err)
			}
		})
	}
}

func TestRepeatQuickRoundTrip(t *testing.T) {
	spec, err := mdl.ParseString(slpDoc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		arr := message.NewArray("URLEntries")
		n := r.Intn(6)
		for i := 0; i < n; i++ {
			arr.Add(message.NewStruct("item",
				message.NewPrimitive("Reserved", message.TypeUint64, 0),
				message.NewPrimitive("Lifetime", message.TypeUint64, uint64(r.Intn(1<<16))),
				message.NewPrimitive("URL", message.TypeString, "service:"+randOp(r)),
			))
		}
		in := message.New("ServiceReply",
			message.NewPrimitive("XID", message.TypeUint64, uint64(r.Intn(1<<16))),
			message.NewPrimitive("ErrorCode", message.TypeUint64, 0),
			arr,
		)
		wire, err := c.Compose(in)
		if err != nil {
			return false
		}
		out, err := c.Parse(wire)
		if err != nil {
			return false
		}
		outArr, err := out.Lookup("URLEntries")
		if err != nil || len(outArr.Children) != n {
			return false
		}
		for i := 0; i < n; i++ {
			a, _ := in.GetString("URLEntries.item[" + strconv.Itoa(i) + "].URL")
			b, _ := out.GetString("URLEntries.item[" + strconv.Itoa(i) + "].URL")
			if a != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestComposeBytesUnchanged pins what Compose writes to the bytes the
// interpreter wrote before the plan (recorded at the parent commit, PR 19).
func TestComposeBytesUnchanged(t *testing.T) {
	giop, slp := mustCodec(t, giopDoc), mustCodec(t, slpDoc)
	for _, tc := range []struct {
		name  string
		codec mdl.Codec
		msg   *message.Message
		want  string
	}{
		{"GIOP request", giop, giopRequest(),
			"47494f50010000000000000000000007010000000000000c63616c632d73657276696365000000044164640000000000" +
				"0000000203000000000000000000001403000000000000000000000000000016"},
		{"GIOP reply", giop, giopReply(),
			"47494f50010000010000000000100000000000000000000000000001030000000000010000000000"},
		{"GIOP request, a parameter of every type", giop, giopRequestOfEveryType(),
			"47494f50010000000000000000000007010000000000000c63616c632d73657276696365000000044164640000000000" +
				"00000007010000000000000c68656c6c6f20776f726c64000300000000000000fffffffffffffffb0401050000000000" +
				"4005bf0a8b04919b0600000000000004000102ff02000000fffffff9010000000000000100"},
		{"SLP request", slp, slpRequest(),
			"020102010001000010736572766963653a7072696e74657200000864656661756c7400"},
		{"SLP reply", slp, slpReply(),
			"0202004d0000000200012c0027736572766963653a7072696e7465723a6c70723a2f2f7072696e746572312e6578616d" +
				"706c65000002580027736572766963653a7072696e7465723a6c70723a2f2f7072696e746572322e6578616d706c6500"},
	} {
		wire, err := tc.codec.Compose(tc.msg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := hex.EncodeToString(wire); got != tc.want {
			t.Errorf("%s composes to\n%s, it was\n%s", tc.name, got, tc.want)
		}
	}
}

// TestPlanMatchesInterpreter runs the fuzzers' check over their seeds and
// over every prefix of them, in tier-1: a truncated packet is where the
// plan's early exits and the count bound decide.
func TestPlanMatchesInterpreter(t *testing.T) {
	for _, tc := range []struct {
		doc  string
		msgs []*message.Message
	}{
		{giopDoc, []*message.Message{giopRequest(), giopReply(), giopRequestOfEveryType()}},
		{slpDoc, []*message.Message{slpRequest(), slpReply()}},
		{bitsDoc, bitsMessages()},
	} {
		p := mustPair(t, tc.doc)
		for _, msg := range tc.msgs {
			wire := p.compose(t, msg)
			if got, err := p.plan.Parse(wire); err != nil || got.Name != msg.Name {
				t.Fatalf("%s does not parse back: %v, %v", msg.Name, got, err)
			}
			for n := 0; n <= len(wire); n++ {
				p.check(t, wire[:n])
			}
		}
	}
}

// TestCountBound: a count read off the wire is held to what the packet can
// still hold before anything is sized by it. The smallest well-formed GIOP
// request claiming 65 536 parameters and carrying none, and an SLP reply
// claiming 65 535 URL entries in 20 bytes, are refused for what a claim of
// 256 costs: no slab of the claimed size is ever made. (A count below 256
// is one allocation cheaper to refuse: the number in the error's text.)
func TestCountBound(t *testing.T) {
	giopClaiming := func(n uint32) []byte {
		wire := append([]byte("GIOP\x01\x00\x00\x00\x00\x00\x00\x18"), make([]byte, 24)...)
		wire[16] = 1 // Response
		binary.BigEndian.PutUint32(wire[32:], n)
		return wire
	}
	slpClaiming := func(n uint16) []byte {
		wire := append([]byte{2, 2, 0, 1, 0, 0, 0, 0}, make([]byte, 12)...)
		binary.BigEndian.PutUint16(wire[6:], n)
		return wire
	}
	for _, tc := range []struct {
		name        string
		doc         string
		fits, claim []byte
		small, big  []byte
	}{
		{"GIOP request", giopDoc, giopClaiming(0), nil, giopClaiming(256), giopClaiming(65536)},
		{"SLP reply", slpDoc, slpClaiming(0), slpClaiming(2), slpClaiming(256), slpClaiming(65535)},
	} {
		c := mustCodec(t, tc.doc)
		if _, err := c.Parse(tc.fits); err != nil {
			t.Fatalf("%s claiming nothing: %v", tc.name, err)
		}
		if tc.claim != nil {
			// Two entries of five bytes fit in the twelve that follow, but not
			// the URL the first then claims: past the bound, short all the same.
			tc.claim[11] = 0xff
			if _, err := c.Parse(tc.claim); !errors.Is(err, ErrShortPacket) || errors.Is(err, ErrCountExceedsPacket) {
				t.Errorf("%s claiming what could fit: err = %v, want ErrShortPacket from an entry", tc.name, err)
			}
		}
		cost := func(wire []byte) (allocs, bytes float64) {
			parse := func() {
				_, err := c.Parse(wire)
				if !errors.Is(err, ErrCountExceedsPacket) || !errors.Is(err, ErrShortPacket) || !errors.Is(err, mdl.ErrNoMessageMatch) {
					t.Fatalf("%s, %d bytes: err = %v, want ErrCountExceedsPacket wrapping ErrShortPacket inside ErrNoMessageMatch",
						tc.name, len(wire), err)
				}
			}
			allocs = testing.AllocsPerRun(100, parse)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 100; i++ {
				parse()
			}
			runtime.ReadMemStats(&after)
			return allocs, float64(after.TotalAlloc-before.TotalAlloc) / 100
		}
		smallAllocs, smallBytes := cost(tc.small)
		bigAllocs, bigBytes := cost(tc.big)
		if testutil.RaceEnabled {
			continue
		}
		if bigAllocs != smallAllocs || bigBytes > smallBytes+64 { // the longer number in the text
			t.Errorf("%s: refusing the largest claim costs %.0f allocations and %.0f bytes, refusing a claim of 256 %.0f and %.0f",
				tc.name, bigAllocs, bigBytes, smallAllocs, smallBytes)
		}
	}
}

// TestRestBehindTheEnd: an <align> may step past the end of a short packet;
// what follows is refused, an <eof> field included — the one input on which
// the plan and the interpreter part: that one sized the field's copy by a
// negative number and panicked.
func TestRestBehindTheEnd(t *testing.T) {
	c := mustCodec(t, "<MDL:T:binary>\n<Message:M><A:8><align:64><Body:eof><End:Message>")
	if _, err := c.Parse([]byte{1}); !errors.Is(err, ErrShortPacket) {
		t.Errorf("err = %v, want ErrShortPacket", err)
	}
	if msg, err := c.Parse(make([]byte, 8)); err != nil || len(msg.Fields) != 2 {
		t.Errorf("eight bytes: %v, %v", msg, err)
	}
}

// oddDocs are layouts nobody would write that New accepts all the same:
// lengths and counts that are no unsigned integers, names that resolve in
// another scope or in none, labels used twice, rules no field can meet,
// widths no packet can fill. What the interpreter made of each — mostly a
// refusal — the plan makes of it too.
var oddDocs = []string{
	"<Message:M><L:16:string><V:L><End:Message>",
	"<Message:M><L:8:int><V:L:string><T:8><End:Message>",
	"<Message:M><L:32:float><V:L><End:Message>",
	"<Message:M><L:8:bytes><V:L><End:Message>",
	"<Message:M><C:8:bool><Repeat:R:C><A:8><End:Repeat><End:Message>",
	"<Message:M><L:8><N:8><Repeat:R:N><V:L:string><B:4><End:Repeat><T:4><End:Message>",
	"<Message:M><N:8><Repeat:R:N><L:8><End:Repeat><V:L><End:Message>",
	"<Message:M><N:8><Repeat:R:N><X:R><End:Repeat><End:Message>",
	"<Message:M><L:8><V:L><N:8><Repeat:R:N><L:8><W:L><End:Repeat><End:Message>",
	"<Message:M><N:8><L:8><Repeat:R:N><V:L><End:Repeat><End:Message>",
	"<Message:M><N:8><Repeat:R:N><P:cdrseq><End:Repeat><End:Message>",
	"<Message:M><N:8><Repeat:R:N><A:8><End:Repeat><V:R><End:Message>",
	"<Message:M><L:8><A:L><B:L:string><End:Message>",
	"<Message:M><A:8><A:8><L:4><L:4><V:L><End:Message>",
	"<Message:M><Rule:Nope=1><A:8><End:Message>",
	"<Message:M><Rule:A=01><A:8><End:Message>\n<Message:N><Rule:A=1><Rule:A=2><A:8><End:Message>\n<Message:O><Rule:A=1><Rule:A=1><A:8><B:8:int><End:Message>",
	"<Message:M><Rule:B=-2><Rule:C=true><Rule:F=1.5><A:4><B:4:int><C:8:bool><F:32:float><End:Message>\n<Message:N><Rule:C=1><A:8><C:8:bool><End:Message>",
	"<Message:M><Rule:V=hi><L:8><V:L:string><End:Message>\n<Message:N><Rule:V=hi><L:8><V:L><W:eof><End:Message>",
	"<Message:M><Rule:R=[[1] [2]]><N:8><Repeat:R:N><A:8><End:Repeat><End:Message>",
	"<Message:M><Rule:S=ab><Rule:T=300><A:4><S:16:string><T:8:int><End:Message>\n<Message:N><Rule:S=abc><S:16:string><End:Message>",
	"<Message:M><Rule:B=7><N:8><Repeat:R:N><B:8><End:Repeat><B:8><End:Message>",
	"<Message:M><A:72><End:Message>\n<Message:N><A:12:string><B:4><End:Message>",
	"<Message:M><A:8><align:3><B:8><align:64><T:8><End:Message>",
}

func TestOddLayoutsMatchInterpreter(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	// Packets some odd layout reads: a length of 3.0, of "12", a string "hi"
	// with and without its NUL, two items of one byte.
	packets := [][]byte{
		[]byte("\x40\x40\x00\x00abc"), []byte("12abcdefghijkl"), []byte("\x03hi\x00"), []byte("\x02hi"), []byte("\x02hi!"), {2, 1, 2},
	}
	for i := 0; i < 1500; i++ {
		data := make([]byte, r.Intn(20))
		for j := range data {
			// Small numbers, so that lengths and counts often fit, digits and
			// the letters the rules name among them.
			data[j] = []byte{0, 1, 2, 3, 7, '1', '2', 'a', 'b', 'h', 'i', 0x80, 0xff, byte(r.Intn(256))}[r.Intn(14)]
		}
		packets = append(packets, data)
	}
	for _, doc := range oddDocs {
		p := mustPair(t, "<MDL:Odd:binary>\n"+doc)
		// Composed from nothing, every field is its rule's value, a derived
		// length or count, or zero: a packet that meets the rules a packet
		// can meet, and with one byte changed, one that mostly does not.
		mine := packets
		for _, ms := range p.oracle.spec.Messages {
			wire := p.compose(t, message.New(ms.Name))
			mine = append(mine, wire)
			for i := range wire {
				changed := bytes.Clone(wire)
				changed[i] = byte(r.Intn(256))
				mine = append(mine, changed)
			}
		}
		for _, data := range mine {
			msg, err := p.plan.Parse(data)
			want, oracleErr := p.oracle.Parse(data)
			if (err == nil) != (oracleErr == nil) || (err == nil && !msg.Equal(want)) {
				t.Fatalf("%s\nParse(%x)\n gives %v, %v\noracle %v, %v", doc, data, msg, err, want, oracleErr)
			}
			if err == nil {
				p.compose(t, msg)
			}
		}
	}
}

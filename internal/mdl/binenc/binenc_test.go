package binenc

import (
	"errors"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"starlink/internal/mdl"
	"starlink/internal/message"
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

func TestAllParameterTypesRoundTrip(t *testing.T) {
	c := mustCodec(t, giopDoc)
	in := giopRequest()
	in.SetField(message.NewArray("ParameterArray",
		message.NewPrimitive("Parameter", message.TypeString, "hello world"),
		message.NewPrimitive("Parameter", message.TypeInt64, -5),
		message.NewPrimitive("Parameter", message.TypeBool, true),
		message.NewPrimitive("Parameter", message.TypeFloat64, 2.718281828),
		message.NewPrimitive("Parameter", message.TypeBytes, []byte{0, 1, 2, 255}),
		message.NewPrimitive("Parameter", message.TypeInt32, -7),
		message.NewPrimitive("Parameter", message.TypeString, ""),
	))
	wire, err := c.Compose(in)
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
		in.SetField(message.NewPrimitive("RequestID", message.TypeUint64, r.Uint64()>>32))
		in.SetField(message.NewPrimitive("Operation", message.TypeString, randOp(r)))
		params := message.NewArray("ParameterArray")
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
		in.SetField(params)
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

// slpReplyDoc exercises repeated groups: the SLP Service Reply layout
// (RFC 2608 §8.2 simplified) with N URL entries.
const slpReplyDoc = `
<MDL:SLP:binary>
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
	c := mustCodec(t, slpReplyDoc)
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
	c := mustCodec(t, slpReplyDoc)
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
	spec, err := mdl.ParseString(slpReplyDoc)
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

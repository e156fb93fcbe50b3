package soap

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"starlink/internal/mdl/xmlenc"
	"starlink/internal/message"
)

func TestRequestRoundTrip(t *testing.T) {
	body, err := MarshalRequest("Plus", []Param{{Name: "x", Value: "20"}, {Name: "y", Value: "22"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), EnvelopeNS) {
		t.Error("envelope namespace missing")
	}
	method, params, err := ParseRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	if method != "Plus" {
		t.Errorf("method = %q", method)
	}
	if len(params) != 2 || params[0] != (Param{"x", "20"}) || params[1] != (Param{"y", "22"}) {
		t.Errorf("params = %+v", params)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	body, err := MarshalResponse("Plus", []Param{{Name: "result", Value: "42"}})
	if err != nil {
		t.Fatal(err)
	}
	method, results, err := ParseResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if method != "Plus" || results[0].Value != "42" {
		t.Errorf("response = %q %+v", method, results)
	}
}

func TestFaultRoundTrip(t *testing.T) {
	body, err := MarshalFault(&Fault{Code: "Server", Message: "kaput"})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = ParseResponse(body)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v", err)
	}
	if f.Code != "Server" || f.Message != "kaput" {
		t.Errorf("fault = %+v", f)
	}
	if !strings.Contains(f.Error(), "kaput") {
		t.Errorf("Error() = %q", f.Error())
	}
	// Faults surface on the request path too.
	if _, _, err := ParseRequest(body); !errors.As(err, &f) {
		t.Errorf("request-path fault err = %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"<notsoap/>",
		"<Envelope></Envelope>",
		"<Envelope><Body></Body></Envelope>",
	}
	for _, raw := range cases {
		if _, _, err := ParseRequest([]byte(raw)); !errors.Is(err, ErrMalformed) {
			t.Errorf("ParseRequest(%q) err = %v", raw, err)
		}
	}
}

// TestDepthBound: the reader counts the levels for the envelope decoder as
// for every other, so nesting a peer chooses ends in a typed error, inside a
// parameter that is read and inside an element that is skipped.
func TestDepthBound(t *testing.T) {
	for name, open := range map[string]string{
		"parameter": "<Envelope><Body><Add><x>",
		"skipped":   "<Envelope><Header>",
	} {
		_, _, err := ParseRequest([]byte(open + strings.Repeat("<a>", 5<<20)))
		if !errors.Is(err, xmlenc.ErrTooDeep) || !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: 15 MiB of <a>: err = %v, want xmlenc.ErrTooDeep wrapped in ErrMalformed", name, err)
		}
	}
	// Envelope, Body, the operation and the parameter are four levels.
	nest := func(n int) []byte {
		return []byte("<Envelope><Body><Add><x>" + strings.Repeat("<a>", n) + "deep" + strings.Repeat("</a>", n) +
			"own</x></Add></Body></Envelope>")
	}
	fits := xmlenc.MaxDepth - 4
	if _, params, err := ParseRequest(nest(fits)); err != nil || len(params) != 1 || params[0] != (Param{"x", "own"}) {
		t.Errorf("MaxDepth levels: %+v, %v", params, err)
	}
	if _, _, err := ParseResponse(nest(fits + 1)); !errors.Is(err, xmlenc.ErrTooDeep) || !errors.Is(err, ErrMalformed) {
		t.Errorf("MaxDepth+1 levels: err = %v", err)
	}
}

// TestParamReadsOwnText: a parameter that carries attributes, xsi:type for
// one, or elements gives the character data directly inside it.
func TestParamReadsOwnText(t *testing.T) {
	raw := `<Envelope><Body><Add><x xsi:type="xsd:int" xmlns:xsi="urn:xsi">20</x><y><unit>cm</unit>22</y></Add></Body></Envelope>`
	method, params, err := ParseRequest([]byte(raw))
	if err != nil || method != "Add" || len(params) != 2 || params[0] != (Param{"x", "20"}) || params[1] != (Param{"y", "22"}) {
		t.Errorf("parsed %q %+v, %v", method, params, err)
	}
}

func TestEscaping(t *testing.T) {
	body, err := MarshalRequest("Op", []Param{{Name: "text", Value: "<b>&\"</b>"}})
	if err != nil {
		t.Fatal(err)
	}
	_, params, err := ParseRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	if params[0].Value != "<b>&\"</b>" {
		t.Errorf("value = %q", params[0].Value)
	}
}

func TestNamespacedEnvelopeParses(t *testing.T) {
	raw := `<?xml version="1.0"?>
<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">
  <soap:Body><Add><x>1</x><y>2</y></Add></soap:Body>
</soap:Envelope>`
	method, params, err := ParseRequest([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if method != "Add" || len(params) != 2 {
		t.Errorf("parsed %q %+v", method, params)
	}
}

func TestClientServerEndToEnd(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", "/soap", map[string]Operation{
		"Plus": func(params []Param) ([]Param, *Fault) {
			if len(params) != 2 {
				return nil, &Fault{Code: "Client", Message: "want 2 params"}
			}
			x, err1 := strconv.Atoi(params[0].Value)
			y, err2 := strconv.Atoi(params[1].Value)
			if err1 != nil || err2 != nil {
				return nil, &Fault{Code: "Client", Message: "non-integer"}
			}
			return []Param{{Name: "result", Value: strconv.Itoa(x + y)}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := NewClient(srv.Addr(), "/soap")
	defer c.Close()

	results, err := c.Call("Plus", Param{"x", "20"}, Param{"y", "22"})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Value != "42" {
		t.Errorf("results = %+v", results)
	}

	var f *Fault
	if _, err := c.Call("Nope"); !errors.As(err, &f) {
		t.Errorf("unknown op err = %v", err)
	}
	if _, err := c.Call("Plus", Param{"x", "a"}, Param{"y", "b"}); !errors.As(err, &f) || f.Code != "Client" {
		t.Errorf("bad params err = %v", err)
	}
}

func TestServerWrongEndpoint(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", "/soap", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.Addr(), "/nope")
	defer c.Close()
	if _, err := c.Call("Anything"); err == nil {
		t.Error("wrong endpoint accepted")
	}
}

func BenchmarkMarshalRequest(b *testing.B) {
	params := []Param{{"x", "20"}, {"y", "22"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MarshalRequest("Plus", params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseRequest(b *testing.B) {
	body, _ := MarshalRequest("Plus", []Param{{"x", "20"}, {"y", "22"}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ParseRequest(body); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAppendFieldsMatchesParams: the field forms write, byte for byte, the
// envelope the Param forms write for parameters named and valued as the
// fields are (Field.ValueString), for every primitive type and its
// extremes, structured fields flattened to their primitives.
func TestAppendFieldsMatchesParams(t *testing.T) {
	rows := []struct {
		name   string
		fields []*message.Field
	}{
		{"string", []*message.Field{message.NewString("s", `a<b & "c" 'd'`+"\t\n\x01é"), message.NewString("empty", "")}},
		{"int32", []*message.Field{message.NewPrimitive("n", message.TypeInt32, int32(math.MinInt32)), message.NewPrimitive("m", message.TypeInt32, int32(math.MaxInt32))}},
		{"int64", []*message.Field{message.NewInt64("n", math.MinInt64), message.NewInt64("m", math.MaxInt64), message.NewInt64("z", 0)}},
		{"uint32", []*message.Field{message.NewPrimitive("n", message.TypeUint32, uint32(math.MaxUint32))}},
		{"uint64", []*message.Field{message.NewUint64("n", math.MaxUint64), message.NewUint64("z", 0)}},
		{"bool", []*message.Field{message.NewBool("t", true), message.NewBool("f", false)}},
		{"float64", []*message.Field{message.NewFloat64("a", 0.1), message.NewFloat64("b", -1e21), message.NewFloat64("c", math.SmallestNonzeroFloat64), message.NewFloat64("d", math.Inf(1)), message.NewFloat64("e", math.NaN())}},
		{"bytes", []*message.Field{message.NewBytes("raw", []byte("x&y<\xff")), message.NewBytes("none", nil)}},
		{"structured", []*message.Field{
			message.NewInt64("x", 123456),
			message.NewStruct("pair", message.NewInt64("a", -7), message.NewStruct("deep", message.NewString("b", "8"), message.NewArray("list", message.NewBool("c", true)))),
			message.NewArray("empty"),
		}},
	}
	for _, row := range rows {
		params := flatten(nil, row.fields)
		want, err := AppendRequest(nil, "Op", params)
		if err != nil {
			t.Fatal(row.name, err)
		}
		got, err := AppendRequestFields([]byte("kept"), "Op", row.fields)
		if err != nil || string(got) != "kept"+string(want) {
			t.Errorf("%s request: %q (%v), want %q", row.name, got, err, want)
		}
		want, _ = AppendResponse(nil, "Op", params)
		if got, err := AppendResponseFields(nil, "Op", row.fields); err != nil || string(got) != string(want) {
			t.Errorf("%s response: %q (%v), want %q", row.name, got, err, want)
		}
	}
}

// flatten is the Param list AppendRequestFields stands for: a primitive is
// one, a structured field's primitive children are, and the children of one
// below it are flattened alike.
func flatten(out []Param, fields []*message.Field) []Param {
	for _, f := range fields {
		if f.Type.Primitive() {
			out = append(out, Param{Name: f.Label, Value: f.ValueString()})
			continue
		}
		for _, c := range f.Children {
			if c.Type.Primitive() {
				out = append(out, Param{Name: c.Label, Value: c.ValueString()})
			} else {
				out = flatten(out, c.Children)
			}
		}
	}
	return out
}

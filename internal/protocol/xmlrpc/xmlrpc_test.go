package xmlrpc

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"starlink/internal/mdl/xmlenc"
)

func TestCallRoundTrip(t *testing.T) {
	body, err := MarshalCall("flickr.photos.search", "apikey", "tree", int64(3), true, 2.5,
		[]Value{"a", int64(1)},
		map[string]Value{"k": "v", "n": int64(7)},
	)
	if err != nil {
		t.Fatal(err)
	}
	method, params, err := ParseCall(body)
	if err != nil {
		t.Fatal(err)
	}
	if method != "flickr.photos.search" {
		t.Errorf("method = %q", method)
	}
	want := []Value{"apikey", "tree", int64(3), true, 2.5,
		[]Value{"a", int64(1)},
		map[string]Value{"k": "v", "n": int64(7)},
	}
	if !reflect.DeepEqual(params, want) {
		t.Errorf("params = %#v", params)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	body, err := MarshalResponse(map[string]Value{
		"photos": []Value{"p1", "p2"},
		"total":  int64(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := ParseResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := v.(map[string]Value)
	if !ok {
		t.Fatalf("result type %T", v)
	}
	if st["total"] != int64(2) {
		t.Errorf("total = %v", st["total"])
	}
}

func TestFaultRoundTrip(t *testing.T) {
	body, err := MarshalFault(&Fault{Code: 42, Message: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = ParseResponse(body)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v", err)
	}
	if f.Code != 42 || f.Message != "boom" {
		t.Errorf("fault = %+v", f)
	}
	if !strings.Contains(f.Error(), "42") {
		t.Errorf("fault error = %q", f.Error())
	}
}

func TestEscapingInValues(t *testing.T) {
	body, err := MarshalCall("m", `<&>"'`)
	if err != nil {
		t.Fatal(err)
	}
	_, params, err := ParseCall(body)
	if err != nil {
		t.Fatal(err)
	}
	if params[0] != `<&>"'` {
		t.Errorf("param = %q", params[0])
	}
}

func TestBareValueIsString(t *testing.T) {
	raw := `<methodCall><methodName>m</methodName><params><param><value>plain</value></param></params></methodCall>`
	_, params, err := ParseCall([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if params[0] != "plain" {
		t.Errorf("param = %#v", params[0])
	}
}

func TestI4Alias(t *testing.T) {
	raw := `<methodResponse><params><param><value><i4>12</i4></value></param></params></methodResponse>`
	v, err := ParseResponse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(12) {
		t.Errorf("i4 = %#v", v)
	}
}

func TestParseErrors(t *testing.T) {
	badCalls := []string{
		"",
		"<wrongroot/>",
		"<methodCall><params/></methodCall>",
		"<methodCall><methodName>m</methodName><params><param><value><int>x</int></value></param></params></methodCall>",
		"<methodCall><methodName>m</methodName><params><param><value><mystery>1</mystery></value></param></params></methodCall>",
		"<methodCall><methodName>m</methodName><params><param><value><array/></value></param></params></methodCall>",
	}
	for _, raw := range badCalls {
		if _, _, err := ParseCall([]byte(raw)); !errors.Is(err, ErrMalformed) {
			t.Errorf("ParseCall(%q) err = %v", raw, err)
		}
	}
	badResponses := []string{
		"<nope/>",
		"<methodResponse/>",
		"<methodResponse><params/></methodResponse>",
		"<methodResponse><params><param><value><double>z</double></value></param></params></methodResponse>",
	}
	for _, raw := range badResponses {
		if _, err := ParseResponse([]byte(raw)); !errors.Is(err, ErrMalformed) {
			t.Errorf("ParseResponse(%q) err = %v", raw, err)
		}
	}
}

func TestMarshalUnsupportedType(t *testing.T) {
	if _, err := MarshalCall("m", struct{}{}); err == nil {
		t.Error("struct{}{} accepted")
	}
	if _, err := MarshalResponse(struct{}{}); err == nil {
		t.Error("struct{}{} accepted in response")
	}
	if _, err := MarshalResponse(map[string]Value{"k": []Value{"ok", struct{}{}}}); err == nil {
		t.Error("struct{}{} accepted inside a struct")
	}
	// The failed documents leave nothing behind in the pooled writer.
	if doc, err := MarshalCall("m"); err != nil || string(doc) != "<?xml version=\"1.0\"?>\n<methodCall><methodName>m</methodName><params/></methodCall>" {
		t.Errorf("next document = %q, %v", doc, err)
	}
}

func TestNilAndIntValues(t *testing.T) {
	body, err := MarshalCall("m", nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, params, err := ParseCall(body)
	if err != nil {
		t.Fatal(err)
	}
	if params[0] != "" || params[1] != int64(5) {
		t.Errorf("params = %#v", params)
	}
}

func TestClientServerEndToEnd(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", "/xml-rpc", map[string]Method{
		"math.add": func(params []Value) (Value, *Fault) {
			a, aok := params[0].(int64)
			b, bok := params[1].(int64)
			if !aok || !bok {
				return nil, &Fault{Code: 400, Message: "want two ints"}
			}
			return a + b, nil
		},
		"echo.struct": func(params []Value) (Value, *Fault) {
			return params[0], nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := NewClient(srv.Addr(), "/xml-rpc")
	defer c.Close()

	v, err := c.Call("math.add", int64(20), int64(22))
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(42) {
		t.Errorf("add = %v", v)
	}

	st, err := c.Call("echo.struct", map[string]Value{"a": "b"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, map[string]Value{"a": "b"}) {
		t.Errorf("echo = %#v", st)
	}

	// Unknown method -> fault.
	_, err = c.Call("no.such")
	var f *Fault
	if !errors.As(err, &f) || f.Code != 404 {
		t.Errorf("unknown method err = %v", err)
	}

	// Handler fault propagates.
	_, err = c.Call("math.add", "x", "y")
	if !errors.As(err, &f) || f.Code != 400 {
		t.Errorf("bad params err = %v", err)
	}
}

func TestServerRejectsWrongPathAndMethod(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", "/xml-rpc", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.Addr(), "/other")
	defer c.Close()
	if _, err := c.Call("m"); err == nil {
		t.Error("wrong path accepted")
	}
}

func BenchmarkMarshalCall(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MarshalCall("flickr.photos.search", "key", "tree", int64(3)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseCall(b *testing.B) {
	body, _ := MarshalCall("flickr.photos.search", "key", "tree", int64(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ParseCall(body); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDepthBound: the decoder recurses once per nested value, and the
// Reader it reads through counts the levels for it — a response of five
// million nested arrays, inside the frame limit, is refused where it would
// have overflowed the stack.
func TestDepthBound(t *testing.T) {
	deep := "<methodResponse><params><param>" + strings.Repeat("<value><array><data>", 5<<20/3)
	_, err := ParseResponse([]byte(deep))
	if !errors.Is(err, xmlenc.ErrTooDeep) || !errors.Is(err, ErrMalformed) {
		t.Fatalf("%d MiB of nested arrays: err = %v, want xmlenc.ErrTooDeep wrapped in ErrMalformed", len(deep)>>20, err)
	}
	// Three levels around the result, three per array, one for the value
	// inside: 84 arrays fit in MaxDepth.
	nest := func(n int) []byte {
		return []byte("<methodResponse><params><param>" + strings.Repeat("<value><array><data>", n) + "<value>x</value>" +
			strings.Repeat("</data></array></value>", n) + "</param></params></methodResponse>")
	}
	fits := (xmlenc.MaxDepth - 4) / 3
	if _, err := ParseResponse(nest(fits)); err != nil {
		t.Errorf("%d nested arrays: %v", fits, err)
	}
	if _, err := ParseResponse(nest(fits + 1)); !errors.Is(err, xmlenc.ErrTooDeep) {
		t.Errorf("%d nested arrays: err = %v", fits+1, err)
	}
	// An element the decoder skips is bounded the same.
	if _, _, err := ParseCall([]byte("<methodCall>" + strings.Repeat("<x>", 5<<20))); !errors.Is(err, xmlenc.ErrTooDeep) {
		t.Errorf("a deep element to skip: err = %v", err)
	}
}

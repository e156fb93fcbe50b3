package jsonrpc

import (
	"errors"
	"reflect"
	"testing"
)

// FuzzParseCall: a request the reader accepts, marshalled again, reads as
// the same id, method and parameters (no parameters and an empty list are
// the same call).
func FuzzParseCall(f *testing.F) {
	for _, params := range [][]Value{nil, {float64(20), float64(22)}, {"note", true, nil, []Value{1e21}, map[string]any{"k": "v"}}} {
		body, err := MarshalCall(7, "calc.add", params...)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"METHOD":"m","params":null,"id":18446744073709551615,"id":1}`))
	f.Add([]byte(`{"method":"é\ud800","params":[-0,"\xff"]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		id, method, params, err := ParseCall(data)
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("%q: untyped error %v", data, err)
			}
			return
		}
		body, err := MarshalCall(id, method, params...)
		if err != nil {
			t.Fatalf("%q reads, then does not marshal: %v", data, err)
		}
		id2, method2, params2, err := ParseCall(body)
		if err != nil || id2 != id || method2 != method || len(params2) != len(params) ||
			(len(params) > 0 && !reflect.DeepEqual(params2, params)) {
			t.Fatalf("%q reads as %d %q %#v, marshalled %q as %d %q %#v (%v)",
				data, id, method, params, body, id2, method2, params2, err)
		}
	})
}

// FuzzParseResponse: a response the reader accepts, marshalled again as a
// result or an error, reads as the same id and result or error message.
func FuzzParseResponse(f *testing.F) {
	for _, result := range []Value{nil, float64(42), map[string]any{"sum": float64(42), "list": []any{"a", false}}} {
		body, err := MarshalResult(9, result)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	body, err := MarshalError(3, "kaput")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	f.Add([]byte(`{"result":1,"error":"both","id":2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		id, result, err := ParseResponse(data)
		var remote *RemoteError
		var body []byte
		switch {
		case errors.As(err, &remote):
			body, err = MarshalError(id, remote.Message)
		case err != nil:
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("%q: untyped error %v", data, err)
			}
			return
		default:
			body, err = MarshalResult(id, result)
		}
		if err != nil {
			t.Fatalf("%q reads, then does not marshal: %v", data, err)
		}
		id2, result2, err2 := ParseResponse(body)
		var remote2 *RemoteError
		errors.As(err2, &remote2)
		same := id2 == id && reflect.DeepEqual(result2, result)
		if remote != nil {
			same = same && remote2 != nil && remote2.Message == remote.Message
		} else {
			same = same && err2 == nil
		}
		if !same {
			t.Fatalf("%q reads as %d %#v %v, marshalled %q as %d %#v %v", data, id, result, remote, body, id2, result2, err2)
		}
	})
}

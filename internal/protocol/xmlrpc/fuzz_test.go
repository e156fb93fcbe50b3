package xmlrpc

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"testing"

	"starlink/internal/message"
)

// seeds are documents the two decoders must agree on, and some on which
// they need not: the bodies of the benchmark workloads, then what the
// walk over a tree and the descent over tokens could tell apart.
var seeds = []string{
	"<?xml version=\"1.0\"?>\n<methodCall><methodName>flickr.photos.search</methodName><params><param><value><struct><member><name>per_page</name><value><int>3</int></value></member><member><name>text</name><value><string>tree</string></value></member></struct></value></param></params></methodCall>",
	"<?xml version=\"1.0\"?>\n<methodResponse><params><param><value><struct><member><name>ok</name><value><boolean>1</boolean></value></member><member><name>photos</name><value><array><data><value><struct><member><name>id</name><value><string>photo-0001</string></value></member><member><name>title</name><value><string>Tree &amp; sea</string></value></member></struct></value><value><struct/></value></data></array></value></member><member><name>score</name><value><double>0.5</double></value></member><member><name>total</name><value><i4> 2 </i4></value></member></struct></value></param></params></methodResponse>",
	"<?xml version=\"1.0\"?>\n<methodResponse><fault><value><struct><member><name>faultCode</name><value><int>500</int></value></member><member><name>faultString</name><value><string>mediation failed</string></value></member></struct></value></fault></methodResponse>",
	// bare values, empty values, text around the type element
	"<methodCall><methodName> m </methodName><params><param><value> plain </value></param><param><value/></param><param><value>\n <string>x</string> tail</value></param><param><value><!-- c --></value></param></params></methodCall>",
	// comments, CDATA and references inside what is read as text
	"<methodResponse><params><param><value><string>a<!-- c -->b<![CDATA[<c>]]>&lt;\r\n</string></value></param></params></methodResponse>",
	// elements the protocol does not name, and second ones of a kind
	"<methodCall><junk><int>x</int></junk><methodName>m</methodName><methodName>n</methodName><params><x/><param><y/><value><int>1</int><int>x</int></value><value><int>x</int></value></param></params><params><param/></params></methodCall>",
	"<methodResponse><params><param><value><array><x/><data><value>a</value><y><value>b</value></y></data><data><value><int>x</int></value></data></array></value></param><param><value><int>x</int></value></param></params></methodResponse>",
	// members: value before name, one name twice, a name that is no known label
	"<methodResponse><params><param><value><struct><member><value>1</value><name>k</name></member><member><name>k</name><value>2</value></member><member><name> spaced name </name><value><double>NaN</double></value><name>second</name><value>3</value></member></struct></value></param></params></methodResponse>",
	// prefixes are dropped from element names
	"<r:methodResponse xmlns:r='urn:r'><r:params><r:param><r:value><r:int>7</r:int></r:value></r:param></r:params></r:methodResponse>",
	// what both refuse
	"<methodResponse><params><param><value><struct><member><value>1</value></member></struct></value></param></params></methodResponse>",
	"<methodResponse><params><param><value><struct><member><name>k</name></member></struct></value></param></params></methodResponse>",
	"<methodResponse><params><param><value><array/></value></param></params></methodResponse>",
	"<methodResponse><params><param><value><mystery/></value></param></params></methodResponse>",
	"<methodResponse><params/></methodResponse>", "<methodResponse><fault><value>text</value></fault></methodResponse>",
	"<methodResponse><params><param><value>x</value></param></params>", "<methodCall><params/></methodCall>", "<notxml",
	// read differently on purpose: attributes or elements where text is read,
	// a fault behind the params
	"<methodCall><methodName kind='x'>m</methodName><params><param><value><string xml:space='preserve'> x </string></value></param><param><value><int><b/>3</int></value></param></params></methodCall>",
	"<methodResponse><params><param><value>ok</value></param></params><fault><value><struct/></value></fault></methodResponse>",
	"<methodResponse><params><param><value a='1'>x</value></param></params></methodResponse>",
}

// sameCall holds ParseCall against the tree walk: what the walk reads,
// ParseCall reads the same, unless the document is one of the irregular
// kinds.
func sameCall(t *testing.T, data []byte) {
	t.Helper()
	var o oracle
	wantMethod, wantParams, oracleErr := o.parseCall(data)
	method, params, err := ParseCall(data)
	if err != nil && !errors.Is(err, ErrMalformed) {
		t.Fatalf("ParseCall(%q): %v does not wrap ErrMalformed", data, err)
	}
	if err == nil {
		// Whatever decoded can be written again.
		if _, err := MarshalCall(method, params...); err != nil {
			t.Fatalf("re-marshal of ParseCall(%q) failed: %v", data, err)
		}
	}
	if oracleErr != nil || o.irregular {
		return
	}
	if err != nil || method != wantMethod || !sameValue(params, wantParams) {
		t.Fatalf("ParseCall(%q)\n got %q %#v (%v)\nwant %q %#v", data, method, params, err, wantMethod, wantParams)
	}
}

func sameResponse(t *testing.T, data []byte) {
	t.Helper()
	var o oracle
	want, oracleErr := o.parseResponse(data)
	got, err := ParseResponse(data)
	var fault, wantFault *Fault
	if err != nil && !errors.As(err, &fault) && !errors.Is(err, ErrMalformed) {
		t.Fatalf("ParseResponse(%q): %v is neither a fault nor ErrMalformed", data, err)
	}
	if o.irregular || oracleErr != nil && !errors.As(oracleErr, &wantFault) {
		return
	}
	if wantFault != nil {
		if fault == nil || *fault != *wantFault {
			t.Fatalf("ParseResponse(%q) = %#v, %v, want the fault %v", data, got, err, wantFault)
		}
		return
	}
	if err != nil || !sameValue(got, want) {
		t.Fatalf("ParseResponse(%q)\n got %#v (%v)\nwant %#v", data, got, err, want)
	}
}

func TestDecodersMatchOracleOnSeeds(t *testing.T) {
	for _, doc := range seeds {
		sameCall(t, []byte(doc))
		sameResponse(t, []byte(doc))
	}
}

func FuzzParseCall(f *testing.F) {
	for _, doc := range seeds {
		f.Add([]byte(doc))
	}
	f.Fuzz(sameCall)
}

func FuzzParseResponse(f *testing.F) {
	for _, doc := range seeds {
		f.Add([]byte(doc))
	}
	f.Fuzz(sameResponse)
}

// fieldOf is the binders' mapping of a Value onto an abstract field, kept
// here as the reference ParseCallFields and ParseResponseFields are held
// to: a struct a TypeStruct field of its members in the order of their
// names, an array a TypeArray field of "item" children, a scalar the field
// of its type.
func fieldOf(label string, v Value) *message.Field {
	switch x := v.(type) {
	case map[string]Value:
		return message.NewStruct(label, membersOf(x)...)
	case []Value:
		items := make([]*message.Field, len(x))
		for i, e := range x {
			items[i] = fieldOf("item", e)
		}
		return message.NewArray(label, items...)
	case string:
		return message.NewString(label, x)
	case int64:
		return message.NewInt64(label, x)
	case bool:
		return message.NewBool(label, x)
	case float64:
		return message.NewFloat64(label, x)
	}
	panic(fmt.Sprintf("no field for %T", v))
}

func membersOf(st map[string]Value) []*message.Field {
	keys := make([]string, 0, len(st))
	for k := range st {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	fields := make([]*message.Field, len(keys))
	for i, k := range keys {
		fields[i] = fieldOf(k, st[k])
	}
	return fields
}

// sameFields holds the fields decoders to the Value decoders under the
// binders' mapping: one accepts what the other accepts, a call whose one
// parameter is a struct gives its members and any other its parameters
// labelled by position, a struct result its members and any other result
// the field "result", and a fault is the same fault.
func sameFields(t *testing.T, data []byte) {
	t.Helper()
	names := []string{"first"}
	method, params, err := ParseCall(data)
	gotMethod, got, gotErr := ParseCallFields(new(message.Store), data, func(m string) []string {
		if m != method {
			t.Fatalf("ParseCallFields(%q) asked the names of %q, not %q", data, m, method)
		}
		return names
	})
	if (err == nil) != (gotErr == nil) {
		t.Fatalf("ParseCall(%q) = %v, ParseCallFields %v", data, err, gotErr)
	}
	if err == nil {
		var want []*message.Field
		var st map[string]Value
		if len(params) == 1 {
			st, _ = params[0].(map[string]Value)
		}
		if st != nil {
			want = membersOf(st)
		} else {
			for i, p := range params {
				label := "param" + strconv.Itoa(i+1)
				if i < len(names) {
					label = names[i]
				}
				want = append(want, fieldOf(label, p))
			}
		}
		if gotMethod != method || !message.New(method, got...).Equal(message.New(method, want...)) {
			t.Fatalf("ParseCallFields(%q)\n got %q %v\nwant %q %v", data, gotMethod, message.New("", got...), method, message.New("", want...))
		}
	}

	result, err := ParseResponse(data)
	fields, gotErr := ParseResponseFields(new(message.Store), data)
	var fault, gotFault *Fault
	if (err == nil) != (gotErr == nil) || errors.As(err, &fault) != errors.As(gotErr, &gotFault) ||
		fault != nil && *fault != *gotFault {
		t.Fatalf("ParseResponse(%q) = %v, ParseResponseFields %v", data, err, gotErr)
	}
	if err == nil {
		want := []*message.Field{fieldOf("result", result)}
		if st, ok := result.(map[string]Value); ok {
			want = membersOf(st)
		}
		if !message.New("", fields...).Equal(message.New("", want...)) {
			t.Fatalf("ParseResponseFields(%q)\n got %v\nwant %v", data, message.New("", fields...), message.New("", want...))
		}
	}
}

func TestFieldsMatchValuesOnSeeds(t *testing.T) {
	for _, doc := range seeds {
		sameFields(t, []byte(doc))
	}
}

func FuzzFieldsMatchValues(f *testing.F) {
	for _, doc := range seeds {
		f.Add([]byte(doc))
	}
	f.Fuzz(sameFields)
}

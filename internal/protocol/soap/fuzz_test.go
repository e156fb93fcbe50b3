package soap

import (
	"errors"
	"reflect"
	"testing"
)

// seeds are envelopes the two decoders must agree on, and some on which
// they need not: the bodies of the Add workload, then what the walk over a
// tree and the descent over tokens could tell apart.
var seeds = []string{
	"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<Envelope xmlns=\"http://schemas.xmlsoap.org/soap/envelope/\"><Body><Plus><x>20</x><y>22</y></Plus></Body></Envelope>",
	"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<Envelope xmlns=\"http://schemas.xmlsoap.org/soap/envelope/\"><Body><PlusResponse><result>42</result></PlusResponse></Body></Envelope>",
	"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<Envelope xmlns=\"http://schemas.xmlsoap.org/soap/envelope/\"><Body><Fault><faultcode>Server</faultcode><faultstring>mediation failed: x &lt; y</faultstring></Fault></Body></Envelope>",
	// prefixed names, a Header ahead of the Body, a second Body, a second operation
	"<soap:Envelope xmlns:soap='http://schemas.xmlsoap.org/soap/envelope/' xmlns:m='urn:m'><soap:Header><m:Body><no/></m:Body></soap:Header><soap:Body><m:Add><m:x>1</m:x><y>2</y></m:Add><m:Other><z>3</z></m:Other></soap:Body><soap:Body><Late/></soap:Body></soap:Envelope>",
	// attributes on the envelope, the body and the operation
	"<Envelope a='1'><Body id=\"b\"><Add soap:encodingStyle='e' xmlns:soap='urn:s'><x>1</x></Add></Body></Envelope>",
	// comments, CDATA and references inside what is read as text; text around the operation
	"<Envelope><Body> before <Add><x>a<!-- c -->b<![CDATA[<c>]]>&lt;\r\n</x><y/><z></z> loose </Add> behind </Body> tail </Envelope>",
	// an operation with nothing in it, with text only, faults with less and more than the two strings
	"<Envelope><Body><Ping/></Body></Envelope>", "<Envelope><Body><Ping>text</Ping></Body></Envelope>",
	"<Envelope><Body><Fault/></Body></Envelope>",
	"<Envelope><Body><Fault><detail><faultcode>inner</faultcode></detail><faultstring>a</faultstring><faultstring>b</faultstring><faultcode>c</faultcode></Fault></Body></Envelope>",
	"<Envelope><Body><PingResponse/></Body></Envelope>", "<Envelope><Body><Response><r>1</r></Response></Body></Envelope>",
	// what both refuse
	"", "<notsoap/>", "<Envelope></Envelope>", "<Envelope>text</Envelope>", "<Envelope><Body></Body></Envelope>",
	"<Envelope><Body/></Envelope>", "<Envelope><Body a='1'/></Envelope>", "<Envelope><Body> text </Body></Envelope>",
	"<Envelope><Body><Add><x>1</x></Add></Body>", "<Envelope><Body><Add><x>1</y></Add></Body></Envelope>",
	"<Envelope><Body><Add><x>&bogus;</x></Add></Body></Envelope>", "<Envelope><Body><Add/></Body><unclosed></Envelope>",
	// read differently on purpose: attributes or elements where text is read,
	// a Body of attributes and text
	"<Envelope><Body><Add><x xsi:type='xsd:int' xmlns:xsi='urn:x'>1</x><p> <q>nested</q> own </p></Add></Body></Envelope>",
	"<Envelope><Body><Fault><faultcode a='1'>Client</faultcode><faultstring><b>bold</b></faultstring></Fault></Body></Envelope>",
	"<Envelope><Body a='1'>text</Body></Envelope>",
}

// sameEnvelope holds ParseRequest and ParseResponse against the tree walk:
// what the walk reads they read the same, unless the envelope is one of the
// irregular kinds.
func sameEnvelope(t *testing.T, data []byte) {
	t.Helper()
	for _, side := range []struct {
		name   string
		parse  func([]byte) (string, []Param, error)
		oracle func(*oracle, []byte) (string, []Param, error)
	}{
		{"ParseRequest", ParseRequest, (*oracle).parseRequest},
		{"ParseResponse", ParseResponse, (*oracle).parseResponse},
	} {
		var o oracle
		wantMethod, wantParams, oracleErr := side.oracle(&o, data)
		method, params, err := side.parse(data)
		var fault, wantFault *Fault
		if err != nil && !errors.As(err, &fault) && !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s(%q): %v is neither a fault nor ErrMalformed", side.name, data, err)
		}
		if err == nil {
			// Whatever decoded can be written again.
			if _, err := MarshalRequest(method, params); err != nil {
				t.Fatalf("re-marshal of %s(%q) failed: %v", side.name, data, err)
			}
		}
		if o.irregular || oracleErr != nil && !errors.As(oracleErr, &wantFault) {
			continue
		}
		if wantFault != nil {
			if fault == nil || *fault != *wantFault {
				t.Fatalf("%s(%q) = %q %+v, %v, want the fault %v", side.name, data, method, params, err, wantFault)
			}
			continue
		}
		if err != nil || method != wantMethod || !reflect.DeepEqual(params, wantParams) {
			t.Fatalf("%s(%q)\n got %q %+v (%v)\nwant %q %+v", side.name, data, method, params, err, wantMethod, wantParams)
		}
	}
}

func TestDecoderMatchesOracleOnSeeds(t *testing.T) {
	for _, doc := range seeds {
		sameEnvelope(t, []byte(doc))
	}
}

func FuzzParseEnvelope(f *testing.F) {
	for _, doc := range seeds {
		f.Add([]byte(doc))
	}
	f.Fuzz(sameEnvelope)
}

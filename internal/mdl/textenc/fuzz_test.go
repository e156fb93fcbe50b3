package textenc

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"starlink/internal/mdl"
	"starlink/internal/message"
)

// oddDoc has layouts that read text beyond the first blank line, where
// Parse's copy of the packet stops at first: a token to the end of the
// packet, and tokens and a header block behind a header block. Its first
// layout has a ruled token behind a derived query, so that which of the two
// refuses a packet first is part of what is compared.
const oddDoc = `
<MDL:Odd:text>
<Message:Query>
<Rule:Kind=query>
<Target:tok:sp>
<Args:query:Target>
<Kind:tok:eof>
<End:Message>

<Message:Tail>
<Rule:Kind=tail>
<Kind:tok:sp>
<Head:tok:crlf>
<Rest:tok:eof>
<End:Message>

<Message:Twice>
<Rule:Kind=twice>
<Kind:tok:crlf>
<First:headers>
<Middle:tok:crlf>
<Second:headers>
<Body:body>
<End:Message>

<Message:Bare>
<Kind:tok:crlf>
<Body:body>
<End:Message>
`

// pair is one document compiled twice: into the plan, and into the oracle.
type pair struct {
	codec  *Codec
	oracle *oracleCodec
}

func mustPair(t testing.TB, doc string) pair {
	t.Helper()
	spec, err := mdl.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	o, err := newOracle(spec)
	if err != nil {
		t.Fatal(err)
	}
	return pair{c.(*Codec), o}
}

func fuzzPairs(t testing.TB) []pair {
	return []pair{mustPair(t, httpDoc), mustPair(t, oddDoc)}
}

// parsePlain is the oracle's Parse as it was before it learnt to leave a
// layout at the first broken rule and to copy the head alone: every layout
// is read to its end over a string of the whole packet, and rulesHold alone
// decides.
func parsePlain(c *oracleCodec, data []byte) (*message.Message, bool) {
	text := string(data)
	for _, cm := range c.messages {
		plain := *cm
		plain.items = slices.Clone(cm.items)
		for i := range plain.items {
			plain.items[i].ruled = false
		}
		if msg, err := parseAs(&plain, text, data); err == nil && rulesHold(cm.spec.Rules, msg) {
			return msg, true
		}
	}
	return nil, false
}

// sameOutcome reports whether two results are the same message, or the same
// refusal.
func sameOutcome(msg *message.Message, err error, want *message.Message, wantErr error) bool {
	return fmt.Sprint(err) == fmt.Sprint(wantErr) && (err != nil || msg.Equal(want))
}

// parseSeeds are FuzzParse's seeds, and what TestPlanMatchesOracle reads
// every prefix of.
var parseSeeds = []string{
	"GET /data/feed/api/all?q=tree&max-results=3 HTTP/1.1\r\nHost: picasaweb.google.com\r\nAccept: */*\r\n\r\n",
	"GET /p?b=2&a=1&b=1&&=x&c&a+b=%41%2f HTTP/1.1\r\n\r\n",
	"GET /p?a=%zz&b;c HTTP/1.1\r\n\r\n",
	"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
	"HTTP/1.1 200 OK\r\nContent-Type: application/atom+xml\r\nContent-Length: 99\r\n\r\n<feed>\r\n\r\n</feed>",
	"HTTP/1.1 200 OK\r\n\r\n",
	"HTTP/1.1 200 OK\r\nA: b",
	"HTTP/1.1 200 OK\r\nbad\r\n\r\n",
	"HELLO WORLD FOO/9\r\nA: b\r\n\r\n",
	"/x?z=1&a=2 query",
	"/x?a;b other",
	"/x?%zz tail",
	"tail head line\r\n\r\nand the rest\r\n\r\nof it",
	"twice\r\nA: b\r\n\r\nmiddle\r\nC: d\r\n\r\nbody\r\n\r\nbody",
	"twice\r\n\r\n\r\n\r\n",
	"bare\r\nbody",
	"",
}

// TestPlanMatchesOracle runs FuzzParse's first check in tier-1 over every
// prefix of the seeds, where the packet ends inside each item in turn. One
// refusal order it pins: a bad query is reported before the rule on the
// token behind it turns the layout away.
func TestPlanMatchesOracle(t *testing.T) {
	for _, p := range fuzzPairs(t) {
		for _, seed := range parseSeeds {
			for n := 0; n <= len(seed); n++ {
				data := []byte(seed[:n])
				msg, err := p.codec.Parse(data)
				if want, wantErr := p.oracle.Parse(data); !sameOutcome(msg, err, want, wantErr) {
					t.Errorf("Parse(%q) gives %v, %v; the oracle %v, %v", data, msg, err, want, wantErr)
				}
			}
		}
	}
	_, err := mustPair(t, oddDoc).codec.Parse([]byte("/x?%zz tail"))
	if err == nil || !strings.Contains(err.Error(), `Query: textenc: derived "Args": invalid URL escape "%zz"`) {
		t.Errorf("err = %v, want the query's", err)
	}
}

// FuzzParse holds Parse to the oracle — the same message from the same
// bytes, or the same refusal — and the oracle to parsePlain; and Parse to
// its own composer: what was parsed composes, and the packet that gives is
// a fixed point of compose∘parse, body and all.
func FuzzParse(f *testing.F) {
	pairs := fuzzPairs(f)
	for _, seed := range parseSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range pairs {
			given := bytes.Clone(data)
			msg, err := p.codec.Parse(data)
			want, wantErr := p.oracle.Parse(data)
			if !sameOutcome(msg, err, want, wantErr) {
				t.Fatalf("Parse gives %v, %v; the oracle %v, %v", msg, err, want, wantErr)
			}
			if plain, ok := parsePlain(p.oracle, data); ok != (wantErr == nil) || ok && !plain.Equal(want) {
				t.Fatalf("the oracle gives %v, %v; read whole and to the end it is %v, %v", want, wantErr, plain, ok)
			}
			if !bytes.Equal(data, given) {
				t.Fatal("Parse wrote to the packet")
			}
			if err != nil {
				continue
			}
			for _, fld := range msg.Fields {
				if fld.Type == message.TypeBytes && len(fld.Bytes()) > 0 &&
					&fld.Bytes()[0] != &data[len(data)-len(fld.Bytes())] {
					t.Fatalf("body %q is not the packet's own tail", fld.Label)
				}
			}
			wire, err := p.codec.Compose(msg)
			if err != nil {
				t.Fatalf("what was parsed does not compose: %v\n%v", err, msg)
			}
			back, err := p.codec.Parse(wire)
			if err != nil {
				t.Fatalf("what was composed does not parse: %v\n%q", err, wire)
			}
			if again, err := p.codec.Compose(back); err != nil || !bytes.Equal(again, wire) {
				t.Fatalf("compose∘parse moves %q to %q, %v", wire, again, err)
			}
		}
	})
}

// choices reads a fuzz input as a run of choices, zeros once it is used up.
type choices []byte

func (c *choices) pick(n int) int {
	if len(*c) == 0 {
		return 0
	}
	v := int((*c)[0])
	*c = (*c)[1:]
	return v % n
}

// What composeInput builds messages from: every label of both documents,
// and keys and values that repeat, need escaping, are empty or are not
// text at all.
var (
	composeNames  = []string{"HTTPRequest", "HTTPResponse", "Query", "Tail", "Twice", "Bare", "Nope"}
	composeLabels = []string{"Method", "Target", "Version", "Path", "Query", "Headers", "Body",
		"Status", "Reason", "Args", "Kind", "Head", "Rest", "First", "Middle", "Second"}
	composeKeys  = []string{"q", "max-results", "q", "", "a b", "ü", "&=?", "Content-Length", "~-_.", "kind"}
	composeTexts = []string{"", "tree", "tall tree", "a&b=c;d", "é~-_.*", "%41+", "/data/feed/api/all", "HTTP/1.1", "x\r\ny", "GET"}
)

// composeInput builds a message to compose: a layout's name, and each
// label absent, text, bytes, a struct of pairs or an empty struct.
func composeInput(c *choices) *message.Message {
	msg := message.New(composeNames[c.pick(len(composeNames))])
	for _, label := range composeLabels {
		switch c.pick(5) {
		case 1:
			msg.Add(message.NewString(label, composeTexts[c.pick(len(composeTexts))]))
		case 2:
			msg.Add(message.NewBytes(label, []byte(composeTexts[c.pick(len(composeTexts))])))
		case 3:
			s := message.NewStruct(label)
			for n := 1 + c.pick(6); n > 0; n-- {
				key := composeKeys[c.pick(len(composeKeys))]
				if c.pick(8) == 0 {
					s.Add(message.NewStruct(key, message.NewString("x", "1"), message.NewInt64("y", 2)))
				} else {
					s.Add(message.NewString(key, composeTexts[c.pick(len(composeTexts))]))
				}
			}
			msg.Add(s)
		case 4:
			msg.Add(message.NewStruct(label))
		}
	}
	return msg
}

// FuzzCompose holds Compose to the oracle, byte for byte or error for
// error: with a Target and without one, from a Path and a Query whose keys
// repeat, need escaping or are missing.
func FuzzCompose(f *testing.F) {
	pairs := fuzzPairs(f)
	f.Add([]byte{})
	// An HTTPRequest of a Method, a Version, a Path, a Query of three pairs
	// (a key twice, a value to escape), a Headers and a Body, no Target: the
	// Fig. 9 shape.
	f.Add([]byte{0, 1, 9, 0, 1, 7, 1, 6, 3, 2, 0, 1, 2, 1, 1, 1, 2, 1, 5, 3, 0, 7, 1, 1, 1, 0})
	// The same with an empty Query, and with a Target beside the Path.
	f.Add([]byte{0, 1, 9, 0, 1, 7, 1, 6, 4})
	f.Add([]byte{0, 1, 9, 1, 6, 1, 7, 1, 6, 3, 0, 4, 1, 4})
	// oddDoc's Query layout, its Target rebuilt from four Args.
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 3, 6, 1, 3, 5, 1, 4, 0, 1, 2, 3, 1, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range pairs {
			c := choices(data)
			msg := composeInput(&c)
			got, err := p.codec.Compose(msg)
			want, wantErr := p.oracle.Compose(msg)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !bytes.Equal(got, want) {
				t.Fatalf("Compose(%v)\n gives %q, %v\noracle %q, %v", msg, got, err, want, wantErr)
			}
		}
	})
}

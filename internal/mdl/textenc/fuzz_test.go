package textenc

import (
	"bytes"
	"slices"
	"testing"

	"starlink/internal/mdl"
	"starlink/internal/message"
)

// oddDoc has layouts that read text beyond the first blank line, where
// Parse's copy of the packet stops at first: a token to the end of the
// packet, and tokens and a header block behind a header block.
const oddDoc = `
<MDL:Odd:text>
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

// parsePlain is Parse as it was before it learnt to leave a layout at the
// first broken rule and to copy the head alone: every layout is read to its
// end over a string of the whole packet, and rulesHold alone decides.
func parsePlain(c *Codec, data []byte) (*message.Message, bool) {
	text := string(data)
	for _, cm := range c.messages {
		plain := *cm
		plain.items = slices.Clone(cm.items)
		for i := range plain.items {
			plain.items[i].ruled = false
		}
		if msg, err := parseAs(&plain, text, data); err == nil && rulesHold(cm.spec, msg) {
			return msg, true
		}
	}
	return nil, false
}

// FuzzParse holds Parse to parsePlain — the same message, or none, from the
// same bytes — and to its own composer: what was parsed composes, and the
// packet that gives is a fixed point of compose∘parse, body and all.
func FuzzParse(f *testing.F) {
	var codecs []*Codec
	for _, doc := range []string{httpDoc, oddDoc} {
		spec, err := mdl.ParseString(doc)
		if err != nil {
			f.Fatal(err)
		}
		c, err := New(spec)
		if err != nil {
			f.Fatal(err)
		}
		codecs = append(codecs, c.(*Codec))
	}
	for _, seed := range []string{
		"GET /data/feed/api/all?q=tree&max-results=3 HTTP/1.1\r\nHost: picasaweb.google.com\r\nAccept: */*\r\n\r\n",
		"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
		"HTTP/1.1 200 OK\r\nContent-Type: application/atom+xml\r\nContent-Length: 99\r\n\r\n<feed>\r\n\r\n</feed>",
		"HTTP/1.1 200 OK\r\n\r\n",
		"HTTP/1.1 200 OK\r\nA: b",
		"HELLO WORLD FOO/9\r\nA: b\r\n\r\n",
		"tail head line\r\n\r\nand the rest\r\n\r\nof it",
		"twice\r\nA: b\r\n\r\nmiddle\r\nC: d\r\n\r\nbody\r\n\r\nbody",
		"twice\r\n\r\n\r\n\r\n",
		"bare\r\nbody",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs {
			given := bytes.Clone(data)
			msg, err := c.Parse(data)
			want, ok := parsePlain(c, data)
			if (err == nil) != ok || (ok && !msg.Equal(want)) {
				t.Fatalf("Parse gives %v, %v; read whole and to the end it is %v, %v", msg, err, want, ok)
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
			wire, err := c.Compose(msg)
			if err != nil {
				t.Fatalf("what was parsed does not compose: %v\n%v", err, msg)
			}
			back, err := c.Parse(wire)
			if err != nil {
				t.Fatalf("what was composed does not parse: %v\n%q", err, wire)
			}
			if again, err := c.Compose(back); err != nil || !bytes.Equal(again, wire) {
				t.Fatalf("compose∘parse moves %q to %q, %v", wire, again, err)
			}
		}
	})
}

package binenc

import (
	"slices"
	"testing"

	"starlink/internal/mdl"
	"starlink/internal/message"
)

// parsePlain is Parse as it was before it learnt to leave a layout at the
// first field that breaks a rule: every layout is read to its end and
// rulesHold alone decides.
func parsePlain(c *Codec, data []byte) (*message.Message, bool) {
	for _, cm := range c.messages {
		plain := *cm
		plain.items = slices.Clone(cm.items)
		for i := range plain.items {
			plain.items[i].ruled = false
		}
		if msg, err := c.parseAs(&plain, data); err == nil && rulesHold(cm.spec, msg) {
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

func FuzzGIOPParse(f *testing.F) {
	spec, err := mdl.ParseString(giopDoc)
	if err != nil {
		f.Fatal(err)
	}
	codec, err := New(spec)
	if err != nil {
		f.Fatal(err)
	}
	good, err := codec.Compose(giopRequest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	reply, err := codec.Compose(giopReply())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(reply)
	f.Add([]byte("GIOP"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := codec.Parse(data)
		sameAsPlain(t, codec, data, msg, err)
		if err != nil {
			return
		}
		// Whatever parsed must compose again without panicking.
		if _, err := codec.Compose(msg); err != nil {
			t.Logf("compose of parsed message failed: %v", err)
		}
	})
}

func FuzzSLPRepeatParse(f *testing.F) {
	spec, err := mdl.ParseString(slpReplyDoc)
	if err != nil {
		f.Fatal(err)
	}
	codec, err := New(spec)
	if err != nil {
		f.Fatal(err)
	}
	good, err := codec.Compose(slpReply())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := codec.Parse(data)
		sameAsPlain(t, codec, data, msg, err)
		if err != nil {
			return
		}
		if _, err := codec.Compose(msg); err != nil {
			t.Logf("compose failed: %v", err)
		}
	})
}

func FuzzMDLDocument(f *testing.F) {
	f.Add(giopDoc)
	f.Add(slpReplyDoc)
	f.Add("<MDL:X:binary>\n<Message:M><A:8><End:Message>")
	f.Fuzz(func(t *testing.T, doc string) {
		spec, err := mdl.ParseString(doc)
		if err != nil {
			return
		}
		_, _ = New(spec) // must not panic
	})
}

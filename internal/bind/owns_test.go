package bind

import (
	"bytes"
	"testing"

	"starlink/internal/automata"
	"starlink/internal/casestudy"
	"starlink/internal/message"
)

// TestParsedReplyOwnsItsBytes: what a binder's ParseReply returns holds no
// byte of the packet it was parsed from. The response cache keeps a parsed
// reply after the packet's buffer has gone back to its pool, and serves it to
// other flows as it is (DESIGN.md §17), so each binder's reply is parsed,
// cloned, and the packet overwritten: the reply must still equal the clone.
func TestParsedReplyOwnsItsBytes(t *testing.T) {
	giopBinder, err := NewGIOPBinder("calc", map[string]automata.MsgDef{
		"Add.reply": {Name: "Add.reply", Fields: []string{"z", "note"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	entry := func(id, title string) *message.Field {
		return message.NewStruct("entry",
			message.NewString("id", id), message.NewString("title", title),
			message.NewString("summary", "a "+title), message.NewString("author", "alice"),
			message.NewString("src", "http://photos.example/"+id+".jpg"))
	}
	cases := []struct {
		name   string
		binder Binder
		action string
		reply  *message.Message
	}{
		{"REST", newRESTBinder(t), casestudy.PicasaSearch, message.New(casestudy.PicasaSearchReply,
			entry("p1", "tall tree"), entry("p2", "oak &amp; ash"))},
		{"SOAP", &SOAPBinder{Path: "/soap"}, "Plus", message.New("Plus.reply",
			message.NewString("result", "42"), message.NewString("note", "forty <two>"))},
		{"XML-RPC", &XMLRPCBinder{Path: "/x"}, casestudy.FlickrSearch, message.New(casestudy.FlickrSearchReply,
			message.NewArray("photos",
				message.NewStruct("item", message.NewString("id", "p1"), message.NewString("title", "tree")),
				message.NewStruct("item", message.NewString("id", "p2"), message.NewString("title", "oak"))),
			message.NewInt64("total", 2), message.NewBytes("thumb", []byte{1, 2, 3}))},
		{"JSON-RPC", &JSONRPCBinder{Path: "/j"}, "op", withID(message.New("op.reply",
			message.NewArray("photos", message.NewStruct("item", message.NewString("id", "p1"))),
			message.NewString("title", "tree \"quoted\""), message.NewInt64("total", 1)), 5)},
		{"GIOP", giopBinder, "Add", withID(message.New("Add.reply",
			message.NewInt64("z", 42), message.NewString("note", "forty-two")), 7)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			built, err := tc.binder.BuildReply(tc.action, tc.reply)
			if err != nil {
				t.Fatal(err)
			}
			packet := bytes.Clone(built)
			parsed, err := tc.binder.ParseReply(tc.action, packet)
			if err != nil {
				t.Fatal(err)
			}
			if len(parsed.Fields) == 0 {
				t.Fatalf("parsed no fields from %q", packet)
			}
			want := parsed.Clone()
			for i := range packet {
				packet[i] = 0xff
			}
			if !parsed.Equal(want) {
				t.Errorf("overwriting the packet changed the parsed reply:\nnow  %v\nwas  %v", parsed, want)
			}
		})
	}
}

// TestParsedRequestOwnsItsBytes: what a binder's ParseRequest returns holds
// no byte of the packet either. The engine reads a flow's client requests
// after its first into one receive buffer, which the next service reply is
// read into while the request's abstract message is still bound
// (DESIGN.md §9, "Wire buffers"), so each binder's request is parsed,
// cloned, and the packet overwritten: the request must still equal the
// clone.
func TestParsedRequestOwnsItsBytes(t *testing.T) {
	giopBinder, err := NewGIOPBinder("calc", map[string]automata.MsgDef{
		"Add": {Name: "Add", Fields: []string{"x", "y"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	slpBinder, err := NewSLPBinder()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		binder  Binder
		request *message.Message
	}{
		{"REST", newRESTBinder(t), message.New(casestudy.PicasaAddComment,
			message.NewString("photo_id", "p 1/x"),
			message.NewStruct("entry", message.NewString("id", "c1"), message.NewString("title", "oak &amp; ash"),
				message.NewString("summary", "a tall tree"), message.NewString("author", "alice")))},
		{"SOAP", &SOAPBinder{Path: "/soap"}, message.New("Plus",
			message.NewString("x", "20"), message.NewString("note", "forty <two>"))},
		{"XML-RPC", &XMLRPCBinder{Path: "/x"}, message.New(casestudy.FlickrSearch,
			message.NewString("text", "tall tree"), message.NewInt64("per_page", 3),
			message.NewBytes("thumb", []byte{1, 2, 3}),
			message.NewArray("tags", message.NewString("item", "oak"), message.NewString("item", "ash")))},
		{"JSON-RPC", &JSONRPCBinder{Path: "/j"}, message.New("op",
			message.NewString("title", "tree \"quoted\""), message.NewInt64("total", 1),
			message.NewArray("tags", message.NewString("item", "oak"), message.NewString("item", "ash")))},
		{"GIOP", giopBinder, message.New("Add",
			message.NewInt64("x", 20), message.NewInt64("y", 22), message.NewString("note", "forty-two"))},
		{"SSDP", &SSDPBinder{}, message.New(DiscoverySearch,
			message.NewString("st", "urn:schemas-upnp-org:service:printer:1"), message.NewInt64("mx", 2))},
		{"SLP", slpBinder, message.New(DiscoverySearch,
			message.NewString("servicetype", "service:printer"), message.NewString("scope", "DEFAULT"))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			built, err := tc.binder.BuildRequest(tc.request.Name, tc.request)
			if err != nil {
				t.Fatal(err)
			}
			packet := bytes.Clone(built)
			_, parsed, err := tc.binder.ParseRequest(packet)
			if err != nil {
				t.Fatal(err)
			}
			if len(parsed.Fields) == 0 {
				t.Fatalf("parsed no fields from %q", packet)
			}
			want := parsed.Clone()
			for i := range packet {
				packet[i] = 0xff
			}
			if !parsed.Equal(want) {
				t.Errorf("overwriting the packet changed the parsed request:\nnow  %v\nwas  %v", parsed, want)
			}
		})
	}
}

// dirtyDsts are the buffers an append form is checked into: none, one too
// short for any packet and one long enough for all, each holding four bytes
// to keep and garbage beyond them.
func dirtyDsts() [][]byte {
	short, long := make([]byte, 4, 8), make([]byte, 4, 4096)
	for _, b := range [][]byte{short, long} {
		full := b[:cap(b)]
		for i := range full {
			full[i] = 0xaa
		}
		copy(b, "keep")
	}
	return [][]byte{nil, short, long}
}

// TestAppendFormsMatchOwned: AppendRequest and AppendReply write what
// BuildRequest and BuildReply return, behind what dst holds, whatever dst's
// storage held before. Each build gets a binder of its own, so request ids
// and XIDs count alike.
func TestAppendFormsMatchOwned(t *testing.T) {
	giop := func() Binder {
		b, err := NewGIOPBinder("calc", map[string]automata.MsgDef{
			"Add": {Name: "Add", Fields: []string{"x", "y"}}, "Add.reply": {Name: "Add.reply", Fields: []string{"z"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	slp := func() Binder {
		b, err := NewSLPBinder()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	entry := message.NewStruct("entry", message.NewString("id", "p1"), message.NewString("title", "oak"))
	cases := []struct {
		name           string
		binder         func() Binder
		request, reply *message.Message
	}{
		{"REST", func() Binder { return newRESTBinder(t) },
			message.New(casestudy.PicasaAddComment, message.NewString("photo_id", "p1"), entry),
			message.New(casestudy.PicasaAddComment, entry)},
		{"SOAP", func() Binder { return &SOAPBinder{Path: "/soap"} },
			message.New("Plus", message.NewString("x", "20"), message.NewString("y", "22")),
			message.New("Plus", message.NewString("result", "42"))},
		{"XML-RPC", func() Binder { return &XMLRPCBinder{Path: "/x"} },
			message.New(casestudy.FlickrSearch, message.NewString("text", "tree")),
			message.New(casestudy.FlickrSearch, message.NewArray("photos", entry), message.NewInt64("total", 1))},
		{"JSON-RPC", func() Binder { return &JSONRPCBinder{Path: "/j"} },
			message.New("op", message.NewString("title", "tree")),
			withID(message.New("op", message.NewInt64("total", 1)), 5)},
		{"GIOP", giop,
			message.New("Add", message.NewInt64("x", 20), message.NewInt64("y", 22)),
			withID(message.New("Add", message.NewInt64("z", 42)), 7)},
		{"SSDP", func() Binder { return &SSDPBinder{} },
			message.New(DiscoverySearch, message.NewString("st", "urn:x"), message.NewInt64("mx", 2)),
			message.New(DiscoverySearch, message.NewString("st", "urn:x"), message.NewString("usn", "uuid:1"))},
		{"SLP", slp,
			message.New(DiscoverySearch, message.NewString("servicetype", "service:printer")),
			withID(message.New(DiscoverySearch, message.NewStruct("urlentry", message.NewString("url", "service:printer://a"),
				message.NewInt64("lifetime", 60))), 9)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			owned := func(build func(Binder) ([]byte, error)) []byte {
				packet, err := build(tc.binder())
				if err != nil {
					t.Fatal(err)
				}
				return packet
			}
			wantRequest := owned(func(b Binder) ([]byte, error) { return b.BuildRequest(tc.request.Name, tc.request) })
			wantReply := owned(func(b Binder) ([]byte, error) { return b.BuildReply(tc.reply.Name, tc.reply) })
			for _, dst := range dirtyDsts() {
				keep := string(dst)
				for what, want := range map[string][]byte{"request": wantRequest, "reply": wantReply} {
					var got []byte
					var err error
					if what == "request" {
						got, err = tc.binder().AppendRequest(dst, tc.request.Name, tc.request)
					} else {
						got, err = tc.binder().AppendReply(dst, tc.reply.Name, tc.reply)
					}
					if err != nil {
						t.Fatal(err)
					}
					if string(got[:len(keep)]) != keep || !bytes.Equal(got[len(keep):], want) {
						t.Errorf("%s into a %d-byte buffer holding %q:\ngot  %q\nwant %q%q", what, cap(dst), keep, got, keep, want)
					}
				}
			}
		})
	}
}

// withID gives msg the request id a reply is correlated by.
func withID(msg *message.Message, id uint64) *message.Message {
	msg.ID = id
	return msg
}

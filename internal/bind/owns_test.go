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
		{"JSON-RPC", &JSONRPCBinder{Path: "/j"}, "op", message.New("op.reply",
			message.NewArray("photos", message.NewStruct("item", message.NewString("id", "p1"))),
			message.NewString("title", "tree \"quoted\""), message.NewInt64("total", 1),
			message.NewUint64("_jsonrpc_id", 5))},
		{"GIOP", giopBinder, "Add", message.New("Add.reply",
			message.NewInt64("z", 42), message.NewString("note", "forty-two"),
			message.NewUint64("_giop_request_id", 7))},
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

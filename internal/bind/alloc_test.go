package bind

import (
	"bytes"
	"fmt"
	"testing"

	"starlink/internal/casestudy"
	"starlink/internal/message"
	"starlink/internal/protocol/giop"
	"starlink/internal/protocol/httpwire"
	"starlink/internal/protocol/rest"
	"starlink/internal/protocol/soap"
	"starlink/internal/protocol/xmlrpc"
	"starlink/internal/testutil"
)

// TestRESTParseReplyAllocBudget pins what the search_large workload's
// service reply costs to bind: fifty photo entries of four children each.
// The fields are two allocations whatever their number, and their texts
// one: the entries are read onto a pooled tape, each text a span of one
// buffer, and carved with one string of it that every text is a piece of.
// The HTTP head is read where it stands, so the node slab, the list slab,
// the message and the string are all that is counted: 4 measured. With a
// string per text and the head through the text codec it was 208, with a
// list of entries made between the decode and the fields 210, with the
// interpreter's node at a time and the request layout it tried first 227,
// with a box per string and the list growing 456, and with one field and
// one child list per entry 755.
func TestRESTParseReplyAllocBudget(t *testing.T) {
	feed := rest.Feed{Title: "Search Results"}
	for i := 0; i < 50; i++ {
		feed.Entries = append(feed.Entries, rest.Entry{
			ID:          fmt.Sprintf("photo-%04d", i),
			Title:       fmt.Sprintf("Tree at dawn #%d", i),
			ContentType: "image/jpeg",
			ContentSrc:  fmt.Sprintf("http://photos.example/full/photo-%04d.jpg", i),
		})
	}
	body, err := rest.AppendFeed(nil, feed)
	if err != nil {
		t.Fatal(err)
	}
	packet := (&httpwire.Response{Status: 200, Headers: httpwire.Headers{{Name: "Content-Type", Value: "application/atom+xml"}}, Body: body}).Marshal()
	b := newRESTBinder(t)
	allocs := testing.AllocsPerRun(100, func() {
		abs, err := b.ParseReply(casestudy.PicasaSearch, packet)
		if err != nil || len(abs.Fields) != 50 || len(abs.Fields[49].Children) != 4 {
			t.Fatal(abs, err)
		}
	})
	if testutil.RaceEnabled {
		t.Skipf("race detector enabled; measured %.1f allocs/op unasserted", allocs)
	}
	if allocs > 4 {
		t.Errorf("binding a 50-entry feed allocated %.0f times, budget 4", allocs)
	}
}

// TestRESTParseReplyProjectedAllocBudget pins what the same reply costs
// where the flow reads only what casestudy.SearchMediator's γ reads of it:
// each entry's id, title and author. The <content> of each entry, whose
// type and src no one reads, is skipped, so its attributes are not copied
// onto the tape, and the parse is the same four allocations; a string per
// text kept made it 158.
func TestRESTParseReplyProjectedAllocBudget(t *testing.T) {
	feed := rest.Feed{Title: "Search Results"}
	for i := 0; i < 50; i++ {
		feed.Entries = append(feed.Entries, rest.Entry{
			ID:          fmt.Sprintf("photo-%04d", i),
			Title:       fmt.Sprintf("Tree at dawn #%d", i),
			Author:      fmt.Sprintf("owner-%d", i%7),
			ContentType: "image/jpeg",
			ContentSrc:  fmt.Sprintf("http://photos.example/full/photo-%04d.jpg", i),
		})
	}
	body, err := rest.AppendFeed(nil, feed)
	if err != nil {
		t.Fatal(err)
	}
	packet := (&httpwire.Response{Status: 200, Headers: httpwire.Headers{{Name: "Content-Type", Value: "application/atom+xml"}}, Body: body}).Marshal()
	b := newRESTBinder(t).Project(map[string][]string{
		casestudy.PicasaSearch: {"entry.id", "entry.title", "entry.author"},
	})
	allocs := testing.AllocsPerRun(100, func() {
		abs, err := b.ParseReply(casestudy.PicasaSearch, packet)
		if err != nil || len(abs.Fields) != 50 || len(abs.Fields[49].Children) != 3 {
			t.Fatal(abs, err)
		}
	})
	if testutil.RaceEnabled {
		t.Skipf("race detector enabled; measured %.1f allocs/op unasserted", allocs)
	}
	if allocs > 4 {
		t.Errorf("binding a projected 50-entry feed allocated %.0f times, budget 4", allocs)
	}
}

// TestXMLRPCBuildReplyAllocBudget pins the other end of the same flow: the
// fifty-photo list written from the fields to the packet. The document is
// rendered in pooled buffers, so what is left is the packet (1
// measured); the Value tree in between cost 155 more.
func TestXMLRPCBuildReplyAllocBudget(t *testing.T) {
	photos := message.NewStruct("photos")
	for i := 0; i < 50; i++ {
		photos.Add(message.NewStruct("photo",
			message.NewPrimitive("id", message.TypeString, fmt.Sprintf("photo-%04d", i)),
			message.NewPrimitive("title", message.TypeString, fmt.Sprintf("Tree at dawn #%d", i)),
			message.NewPrimitive("url", message.TypeString, fmt.Sprintf("http://photos.example/full/photo-%04d.jpg", i)),
			message.NewPrimitive("views", message.TypeInt64, 100_000+i),
		))
	}
	abs := message.New(casestudy.FlickrSearchReply, photos, message.NewPrimitive("total", message.TypeInt64, 50))
	b := &XMLRPCBinder{Path: "/services/xmlrpc"}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := b.BuildReply(casestudy.FlickrSearch, abs); err != nil {
			t.Fatal(err)
		}
	})
	if testutil.RaceEnabled {
		t.Skipf("race detector enabled; measured %.1f allocs/op unasserted", allocs)
	}
	if allocs > 3 {
		t.Errorf("building a 50-photo reply allocated %.0f times, budget 3", allocs)
	}
}

// TestAddFlowAllocBudget pins what the paper's own example costs the
// mediator to bind (Figs. 7 and 8: GIOP Add in, SOAP Plus out, and back):
// the four binder calls of one add_steady flow, on its messages, parsed
// onto the heap (the nil store) and into a store reset after each call, as
// a flow's is. Measured on the heap: GIOP ParseRequest 9 (two node slabs
// and their lists, the object key and its holder, the operation name, the
// concrete and the abstract message), SOAP BuildRequest 1 (the packet),
// SOAP ParseReply 5, GIOP BuildReply 1 (the packet, its scaffold in a
// scratch store) — 16; in a store a parse keeps only what it copies out of
// the packet: 2 and 2, and 6 in all. An HTTP head parsed into a struct, a
// heap scaffold per build and a parameter list grown per build made it 31,
// a clone per parameter 39, and the interpreter, the field tree of the
// envelope and a node at a time 81.
func TestAddFlowAllocBudget(t *testing.T) {
	codec, err := giop.NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	request, err := codec.Compose(giop.NewRequest(7, "calc", "Add", []*message.Field{giop.IntParam(20), giop.IntParam(22)}))
	if err != nil {
		t.Fatal(err)
	}
	body, err := soap.MarshalResponse("Plus", []soap.Param{{Name: "result", Value: "42"}})
	if err != nil {
		t.Fatal(err)
	}
	reply := (&httpwire.Response{Status: 200, Headers: httpwire.Headers{{Name: "Content-Type", Value: "text/xml; charset=utf-8"}}, Body: body}).Marshal()
	plus := message.New("Plus", message.NewInt64("x", 20), message.NewInt64("y", 22))
	sum := message.New("Add.reply", message.NewInt64("z", 42))
	sum.ID = 7

	client, err := NewGIOPBinder("calc", casestudy.AddUsage().Messages)
	if err != nil {
		t.Fatal(err)
	}
	service := &SOAPBinder{Path: "/soap"}
	for _, mode := range []struct {
		name   string
		st     *message.Store
		budget float64
	}{{"heap", nil, 16}, {"store", new(message.Store), 6}} {
		st, total := mode.st, 0.0
		for _, step := range []struct {
			name string
			call func() error
		}{
			{"GIOP ParseRequest", func() error {
				action, abs, err := client.ParseRequestIn(st, request)
				if err == nil && (action != "Add" || len(abs.Fields) != 2 || abs.Fields[1].Label != "y" || abs.Fields[1].Int64() != 22 || abs.ID != 7) {
					err = fmt.Errorf("parsed %s %v with ID %d", action, abs, abs.ID)
				}
				return err
			}},
			{"SOAP BuildRequest", func() error { _, err := service.BuildRequest("Plus", plus); return err }},
			{"SOAP ParseReply", func() error {
				abs, err := service.ParseReplyIn(st, "Plus", reply)
				if err == nil && (len(abs.Fields) != 1 || abs.Fields[0].Label != "result" || abs.Fields[0].Text() != "42") {
					err = fmt.Errorf("parsed %v", abs)
				}
				return err
			}},
			{"GIOP BuildReply", func() error { _, err := client.BuildReply("Add", sum); return err }},
		} {
			allocs := testing.AllocsPerRun(200, func() {
				if st != nil {
					st.Reset()
				}
				if err := step.call(); err != nil {
					t.Fatal(mode.name, step.name, err)
				}
			})
			t.Logf("%s: %s %.1f", mode.name, step.name, allocs)
			total += allocs
		}
		if testutil.RaceEnabled {
			t.Logf("race detector enabled; %s: measured %.1f allocs per flow unasserted", mode.name, total)
			continue
		}
		if total > mode.budget {
			t.Errorf("binding one Add flow (%s) allocated %.0f times, budget %.0f", mode.name, total, mode.budget)
		}
	}
}

// TestRESTFlickrFlowAllocBudget pins what the three Picasa exchanges of a
// flickr_flow flow cost the mediator to bind: the search, getComments and
// addComment requests built, and their replies parsed, on messages of the
// sizes the flow has (three photos, two comments), onto the heap and into
// a store reset after each call. Measured on the heap: BuildRequest 1 each
// (the packet; the concrete request is a scratch store's, and a filled path
// bytes in a pooled buffer), ParseReply 4, 4 and 5 (the document's string,
// the node slab and its list, and the message; the head is read where it
// stands) — 16; in a store the parses keep only their string each, and it
// is 6 in all. A string per filled path made it 18 and 8, a string per text
// and a copy of the head 51 and 29, a heap request scaffold per build and a
// message and slab per parse 62, and a field tree a node at a time, the
// interpreter and url.Values 169.
func TestRESTFlickrFlowAllocBudget(t *testing.T) {
	must := func(body []byte, err error) []byte {
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	reply := func(status int, body []byte) []byte {
		return (&httpwire.Response{Status: status, Headers: httpwire.Headers{{Name: "Content-Type", Value: "application/atom+xml"}}, Body: body}).Marshal()
	}
	var photos, comments rest.Feed
	for i := 0; i < 3; i++ {
		photos.Entries = append(photos.Entries, rest.Entry{
			ID: fmt.Sprintf("photo-%04d", i), Title: fmt.Sprintf("Tree at dawn #%d", i),
			ContentType: "image/jpeg", ContentSrc: fmt.Sprintf("http://photos.example/full/photo-%04d.jpg", i),
		})
	}
	for i := 0; i < 2; i++ {
		comments.Entries = append(comments.Entries, rest.Entry{ID: fmt.Sprintf("c%d", i), Summary: "nice", Author: "bob"})
	}
	b := newRESTBinder(t)
	for _, mode := range []struct {
		name   string
		st     *message.Store
		budget float64
	}{{"heap", nil, 16}, {"store", new(message.Store), 6}} {
		st, total := mode.st, 0.0
		for _, ex := range []struct {
			action string
			abs    *message.Message
			reply  []byte
		}{
			{casestudy.PicasaSearch, message.New(casestudy.PicasaSearch, message.NewString("q", "tree"), message.NewString("max-results", "3")),
				reply(200, must(rest.AppendFeed(nil, photos)))},
			{casestudy.PicasaGetComments, message.New(casestudy.PicasaGetComments, message.NewString("photo_id", "photo-0001"), message.NewString("kind", "comment")),
				reply(200, must(rest.AppendFeed(nil, comments)))},
			{casestudy.PicasaAddComment, message.New(casestudy.PicasaAddComment, message.NewString("photo_id", "photo-0001"),
				message.NewStruct("entry", message.NewString("summary", "lovely"), message.NewString("author", "me"))),
				reply(201, must(rest.AppendEntry(nil, rest.Entry{ID: "c2", Summary: "lovely", Author: "me"})))},
		} {
			build := testing.AllocsPerRun(200, func() {
				if _, err := b.BuildRequest(ex.action, ex.abs); err != nil {
					t.Fatal(ex.action, err)
				}
			})
			parse := testing.AllocsPerRun(200, func() {
				if st != nil {
					st.Reset()
				}
				if abs, err := b.ParseReplyIn(st, ex.action, ex.reply); err != nil || len(abs.Fields) == 0 {
					t.Fatal(ex.action, abs, err)
				}
			})
			t.Logf("%s: %s build %.1f parse %.1f", mode.name, ex.action, build, parse)
			total += build + parse
		}
		if testutil.RaceEnabled {
			t.Logf("race detector enabled; %s: measured %.1f allocs per flow unasserted", mode.name, total)
			continue
		}
		if total > mode.budget {
			t.Errorf("binding the Picasa half of a flickr_flow flow (%s) allocated %.0f times, budget %.0f", mode.name, total, mode.budget)
		}
	}
}

// TestXMLRPCParseRequestAllocBudget pins what the four client requests of a
// flickr_flow flow cost the mediator to bind: each call decoded from the
// Reader's tokens straight into its fields, onto the heap. Measured per
// call: a string per string member, the node slab, the list slab and the
// abstract message — 17 in all; the HTTP head is checked where it stands
// and the method name interned with the element names, as a member name
// the Reader does not know is. An HTTP head parsed into a struct and a
// method name a string per call made it 11 + 10 + 10 + 12 = 43, and a map
// of Values converted to fields, a box per value and a node at a time 16 +
// 14 + 14 + 18 = 62.
func TestXMLRPCParseRequestAllocBudget(t *testing.T) {
	b := &XMLRPCBinder{Path: "/services/xmlrpc"}
	total := 0.0
	for _, call := range []struct {
		method string
		params map[string]xmlrpc.Value
	}{
		{casestudy.FlickrSearch, map[string]xmlrpc.Value{"text": "tree", "per_page": int64(3)}},
		{casestudy.FlickrGetInfo, map[string]xmlrpc.Value{"photo_id": "photo-0001"}},
		{casestudy.FlickrGetComments, map[string]xmlrpc.Value{"photo_id": "photo-0001"}},
		{casestudy.FlickrAddComment, map[string]xmlrpc.Value{"photo_id": "photo-0001", "comment_text": "lovely"}},
	} {
		body, err := xmlrpc.MarshalCall(call.method, call.params)
		if err != nil {
			t.Fatal(err)
		}
		packet := (&httpwire.Request{Method: "POST", Target: "/services/xmlrpc", Headers: httpwire.Headers{{Name: "Content-Type", Value: "text/xml"}}, Body: body}).Marshal()
		allocs := testing.AllocsPerRun(200, func() {
			action, abs, err := b.ParseRequest(packet)
			if err != nil || action != call.method || len(abs.Fields) != len(call.params) {
				t.Fatal(action, abs, err)
			}
		})
		total += allocs
	}
	if testutil.RaceEnabled {
		t.Skipf("race detector enabled; measured %.1f allocs per flow unasserted", total)
	}
	if total > 17 {
		t.Errorf("binding the four requests of a flickr_flow flow allocated %.0f times, budget 17", total)
	}
}

// TestSOAPBuildAllocBudget pins what the SOAP binder's append forms cost an
// add_steady flow, whose operands are seeded past the integers strconv
// keeps strings of: the Plus request built and the Plus reply of the
// reverse direction, each into a buffer the caller lends. A number is
// appended into the envelope where it stands (soap.AppendRequestFields),
// never made a string, and the envelope is rendered in a pooled body
// buffer, and the reply's <PlusResponse> is written in its two parts.
// Measured: 0 and 0, where joining the reply's name into one string made the
// second 1, and a string per integer parameter made them 2 and 2.
func TestSOAPBuildAllocBudget(t *testing.T) {
	service := &SOAPBinder{Path: "/soap"}
	plus := message.New("Plus", message.NewInt64("x", 123456789), message.NewInt64("y", -987654321))
	sum := message.New("Plus.reply", message.NewInt64("result", 123456789-987654321))
	dst := make([]byte, 0, 1024)
	for _, step := range []struct {
		name, want string
		budget     float64
		call       func() ([]byte, error)
	}{
		{"AppendRequest", "<y>-987654321</y>", 0, func() ([]byte, error) { return service.AppendRequest(dst[:0], "Plus", plus) }},
		{"AppendReply", "<result>-864197532</result>", 0, func() ([]byte, error) { return service.AppendReply(dst[:0], "Plus", sum) }},
	} {
		if packet, err := step.call(); err != nil || !bytes.Contains(packet, []byte(step.want)) {
			t.Fatalf("%s: %q, %v", step.name, packet, err)
		}
		allocs := testing.AllocsPerRun(200, func() { step.call() })
		if testutil.RaceEnabled {
			t.Logf("race detector enabled; %s measured %.1f allocs unasserted", step.name, allocs)
			continue
		}
		if allocs > step.budget {
			t.Errorf("SOAP %s allocated %.1f times, budget %.0f", step.name, allocs, step.budget)
		}
	}
}

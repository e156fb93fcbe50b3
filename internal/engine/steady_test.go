package engine

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"starlink/internal/bind"
	"starlink/internal/casestudy"
	"starlink/internal/message"
	"starlink/internal/mtl"
	"starlink/internal/network"
	"starlink/internal/protocol/httpwire"
	"starlink/internal/protocol/rest"
	"starlink/internal/protocol/xmlrpc"
	"starlink/internal/testutil"
)

// scriptedService is a service peer over network.Pipe: the mediator's
// dialer hands it the other end of each connection it opens, and it
// answers every request with the packet reply picks for it, reading into
// one buffer and sending packets made before, so that it allocates
// nothing of its own per exchange. closeAll closes every connection it
// has open, as a service that closes idle keep-alive connections does.
func scriptedService(t *testing.T, reply func(request []byte) []byte) (dial func(network.Semantics, string, network.Framer) (network.Conn, error), closeAll func()) {
	var mu sync.Mutex
	var conns []network.Conn
	closeAll = func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}
	t.Cleanup(closeAll)
	return func(_ network.Semantics, _ string, framer network.Framer) (network.Conn, error) {
		mine, theirs := network.Pipe(framer)
		mu.Lock()
		conns = append(conns, mine)
		mu.Unlock()
		go func() {
			var buf []byte
			for {
				var err error
				if buf, err = mine.RecvAppend(buf[:0]); err != nil {
					return
				}
				if mine.Send(reply(buf)) != nil {
					return
				}
			}
		}()
		return theirs, nil
	}, closeAll
}

// steadyClient drives a session over network.Pipe the way a keep-alive
// client does, with requests made before and replies read into one buffer.
type steadyClient struct {
	conn network.Conn
	buf  []byte
}

// call sends request and returns the reply, checked to start with want.
func (c *steadyClient) call(t *testing.T, request []byte, want string) {
	if err := c.conn.Send(request); err != nil {
		t.Fatal(err)
	}
	var err error
	if c.buf, err = c.conn.RecvAppend(c.buf[:0]); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(c.buf, []byte(want)) {
		t.Fatalf("reply %q, want it to start %q", c.buf, want)
	}
}

// startSteady starts a detached mediator and one session on it over a
// pipe, and returns the client's end.
func startSteady(t *testing.T, cfg Config, framer network.Framer) *steadyClient {
	med, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := med.StartDetached(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { med.Close() })
	client, conn := network.Pipe(framer)
	t.Cleanup(func() { client.Close() })
	if err := med.ServeConn(conn); err != nil {
		t.Fatal(err)
	}
	return &steadyClient{conn: client}
}

// TestSteadyFlowAllocBudget pins what the mediator allocates per flow of a
// keep-alive session in steady state: the add_steady flow (GIOP Add in,
// SOAP Plus out), the flickr_flow flow (four XML-RPC calls, three Picasa
// REST exchanges) and the search_large flow (one XML-RPC search, one
// fifty-entry Picasa feed), with both peers scripted over network.Pipe so
// that what is counted is the mediator's and the pipe's. Every message a
// flow parses, and every node its γ programs build, is made in the
// session's store, and every build's scaffold in a pooled scratch store;
// an Atom feed's kept text is one string, and a REST reply's head is read
// in place, so what is left is what a flow keeps or sends — a string per
// document or scalar a parse copies out of a packet, the flow's first
// packet, the packets built — and a timer per deadline the pipe arms (12 of an Add flow, 52
// of a Flickr flow; a TCP connection arms the runtime's poller, which
// allocates nothing). Measured: 17 per Add flow, 61 per Flickr flow and 15
// per search flow, where a heap copy and a boxed key per photo the Flickr
// flow caches, and a string per filled REST path, made the second 72, and
// a string per kept Atom text, a copy of each REST reply's head and heap
// nodes for newstruct and newarray made the last two 102 and 174.
func TestSteadyFlowAllocBudget(t *testing.T) {
	t.Run("add", func(t *testing.T) {
		dial, _ := plusService(t)
		cfg, request := addPlusConfig(t, dial)
		c := startSteady(t, cfg, network.GIOPFramer{})
		flow := func() { c.call(t, request, "GIOP") }
		checkBudget(t, "an Add flow", flow, 17)
	})
	t.Run("flickr", func(t *testing.T) {
		checkBudget(t, "a Flickr flow", flickrFlow(t, 3), 61)
	})
	t.Run("search", func(t *testing.T) {
		cfg, request := searchConfig(t)
		c := startSteady(t, cfg, network.HTTPFramer{})
		flow := func() { c.call(t, request, "HTTP/1.1 200") }
		checkBudget(t, "a fifty-entry search flow", flow, 15)
	})
}

// TestFlickrFlowAllocsFlatInPhotos: what a Flickr flow allocates does not
// grow with the photos its search finds. Each photo the search γ caches is
// copied into the slab of the entry the flow before cached under its key,
// its key read where it stands, and the rest of the flow's messages are the
// session's store: the full mediator with a fifty-photo search allocates
// within 2 of its three-photo flow, where a heap copy and a boxed key per
// cached photo made it about 141 more.
func TestFlickrFlowAllocsFlatInPhotos(t *testing.T) {
	few, many := flickrFlow(t, 3), flickrFlow(t, 50)
	for i := 0; i < 20; i++ {
		few()
		many()
	}
	a, b := testing.AllocsPerRun(200, few), testing.AllocsPerRun(200, many)
	if testutil.RaceEnabled {
		t.Skipf("race detector enabled; measured %.1f and %.1f allocs per flow unasserted", a, b)
	}
	t.Logf("a Flickr flow allocated %.1f times over 3 photos and %.1f over 50", a, b)
	if b > a+2 {
		t.Errorf("a fifty-photo Flickr flow allocated %.1f times, more than 2 over the three-photo flow's %.1f", b, a)
	}
}

// flickrFlow starts the full Flickr mediator (casestudy.XMLRPCMediator) and
// one session on it, against a scripted Picasa service whose searches find
// photos photos, and returns one flow of the session: the four XML-RPC
// calls, the search for photos photos first.
func flickrFlow(t *testing.T, photos int) func() {
	routes, err := bind.ParseRoutes(casestudy.PicasaRoutesDoc)
	if err != nil {
		t.Fatal(err)
	}
	restBinder, err := bind.NewRESTBinder(routes)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(status int, f rest.Feed) []byte {
		body, err := rest.AppendFeed(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		return (&httpwire.Response{Status: status, Headers: httpwire.Headers{{Name: "Content-Type", Value: "application/atom+xml"}}, Body: body}).Marshal()
	}
	var found, comments rest.Feed
	for i := 0; i < photos; i++ {
		found.Entries = append(found.Entries, rest.Entry{
			ID: fmt.Sprintf("photo-%04d", i), Title: fmt.Sprintf("Tree at dawn #%d", i), Author: "owner",
			ContentType: "image/jpeg", ContentSrc: fmt.Sprintf("http://photos.example/full/photo-%04d.jpg", i),
		})
	}
	for i := 0; i < 2; i++ {
		comments.Entries = append(comments.Entries, rest.Entry{ID: fmt.Sprintf("c%d", i), Summary: "nice", Author: "bob"})
	}
	searched, commented := feed(200, found), feed(200, comments)
	body, err := rest.AppendEntry(nil, rest.Entry{ID: "c2", Summary: "lovely", Author: "flickr-user"})
	if err != nil {
		t.Fatal(err)
	}
	added := (&httpwire.Response{Status: 201, Headers: httpwire.Headers{{Name: "Content-Type", Value: "application/atom+xml"}}, Body: body}).Marshal()
	picasa, _ := scriptedService(t, func(request []byte) []byte {
		switch {
		case bytes.HasPrefix(request, []byte("POST")):
			return added
		case bytes.Contains(request[:bytes.IndexByte(request, '\n')], []byte("kind=comment")):
			return commented
		}
		return searched
	})
	c := startSteady(t, Config{
		Merged: casestudy.XMLRPCMediator(),
		Sides: map[int]*Side{
			1: {Binder: &bind.XMLRPCBinder{Path: "/services/xmlrpc", Defs: casestudy.FlickrUsage().Messages}},
			2: {Binder: restBinder, Target: "picasa", Dialer: picasa},
		},
		HostMap: map[string]string{casestudy.PicasaHost: "picasa"},
	}, network.HTTPFramer{})
	var calls [][]byte
	for _, call := range []struct {
		method string
		params map[string]xmlrpc.Value
	}{
		{casestudy.FlickrSearch, map[string]xmlrpc.Value{"text": "tree", "per_page": int64(photos)}},
		{casestudy.FlickrGetInfo, map[string]xmlrpc.Value{"photo_id": "photo-0001"}},
		{casestudy.FlickrGetComments, map[string]xmlrpc.Value{"photo_id": "photo-0001"}},
		{casestudy.FlickrAddComment, map[string]xmlrpc.Value{"photo_id": "photo-0001", "comment_text": "lovely"}},
	} {
		body, err := xmlrpc.MarshalCall(call.method, call.params)
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, (&httpwire.Request{Method: "POST", Target: "/services/xmlrpc", Headers: httpwire.Headers{{Name: "Content-Type", Value: "text/xml"}}, Body: body}).Marshal())
	}
	return func() {
		for _, call := range calls {
			c.call(t, call, "HTTP/1.1 200")
		}
	}
}

// searchConfig configures casestudy.SearchMediator against a scripted
// Picasa service whose every feed has fifty entries, and returns it with
// the XML-RPC request of a fifty-entry search.
func searchConfig(t *testing.T) (Config, []byte) {
	routes, err := bind.ParseRoutes(casestudy.PicasaRoutesDoc)
	if err != nil {
		t.Fatal(err)
	}
	restBinder, err := bind.NewRESTBinder(routes)
	if err != nil {
		t.Fatal(err)
	}
	var photos rest.Feed
	for i := 0; i < 50; i++ {
		photos.Entries = append(photos.Entries, rest.Entry{
			ID: fmt.Sprintf("photo-%04d", i), Title: fmt.Sprintf("Tree at dawn #%d", i), Author: fmt.Sprintf("owner-%d", i%7),
			ContentType: "image/jpeg", ContentSrc: fmt.Sprintf("http://photos.example/full/photo-%04d.jpg", i),
		})
	}
	body, err := rest.AppendFeed(nil, photos)
	if err != nil {
		t.Fatal(err)
	}
	searched := (&httpwire.Response{Status: 200, Headers: httpwire.Headers{{Name: "Content-Type", Value: "application/atom+xml"}}, Body: body}).Marshal()
	picasa, _ := scriptedService(t, func([]byte) []byte { return searched })
	cfg := Config{
		Merged: casestudy.SearchMediator(),
		Sides: map[int]*Side{
			1: {Binder: &bind.XMLRPCBinder{Path: "/services/xmlrpc", Defs: casestudy.FlickrUsage().Messages}},
			2: {Binder: restBinder, Target: "picasa", Dialer: picasa},
		},
		HostMap: map[string]string{casestudy.PicasaHost: "picasa"},
	}
	call, err := xmlrpc.MarshalCall(casestudy.FlickrSearch, map[string]xmlrpc.Value{"text": "tree", "per_page": int64(50)})
	if err != nil {
		t.Fatal(err)
	}
	return cfg, (&httpwire.Request{Method: "POST", Target: "/services/xmlrpc", Headers: httpwire.Headers{{Name: "Content-Type", Value: "text/xml"}}, Body: call}).Marshal()
}

// checkBudget runs flow until the session's stores have grown, then holds
// what one more flow allocates to budget.
func checkBudget(t *testing.T, what string, flow func(), budget float64) {
	t.Helper()
	for i := 0; i < 20; i++ {
		flow()
	}
	allocs := testing.AllocsPerRun(200, flow)
	if testutil.RaceEnabled {
		t.Skipf("race detector enabled; measured %.1f allocs per flow unasserted", allocs)
	}
	t.Logf("%s allocated %.1f times", what, allocs)
	if allocs > budget {
		t.Errorf("%s allocated %.1f times, budget %.0f", what, allocs, budget)
	}
}

// keeper is a GIOP binder that keeps the last request it parsed, and one
// of its parameters, for a test to look at after the flow.
type keeper struct {
	*bind.GIOPBinder
	msg   *message.Message
	param *message.Field
}

func (k *keeper) ParseRequestIn(st *message.Store, packet []byte) (string, *message.Message, error) {
	op, msg, err := k.GIOPBinder.ParseRequestIn(st, packet)
	if err == nil {
		k.msg, k.param = msg, msg.Fields[0]
	}
	return op, msg, err
}

// addSession starts a detached Add+Plus mediator whose client side is
// client and whose service is scripted, and returns it with a function
// that runs one session over a pipe to its end: one Add flow, then the
// client hangs up and the session ends.
func addSession(t *testing.T, client bind.Binder) (*Mediator, func() *session) {
	dial, _ := plusService(t)
	cfg, request := addPlusConfig(t, dial)
	cfg.Sides[1].Binder = client
	med, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := med.StartDetached(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { med.Close() })
	return med, func() *session {
		client, conn := network.Pipe(network.GIOPFramer{})
		s := med.newSession(conn)
		ended := make(chan struct{})
		go func() {
			defer close(ended)
			s.run()
		}()
		c := &steadyClient{conn: client}
		c.call(t, request, "GIOP")
		client.Close()
		<-ended
		return s
	}
}

// TestParsedRequestPoisonedPastItsFlow: a client request is parsed into the
// flow's store and is valid until the flow ends. Kept past it, its message
// and its nodes read as poisoned under the race detector (here the poison
// is set whatever the build), so `make race` runs every flow over storage a
// message kept past its flow would show up in.
func TestParsedRequestPoisonedPastItsFlow(t *testing.T) {
	defer func(was bool) { message.Poison = was }(message.Poison)
	message.Poison = true
	giopBinder, err := bind.NewGIOPBinder("calc", casestudy.AddUsage().Messages)
	if err != nil {
		t.Fatal(err)
	}
	k := &keeper{GIOPBinder: giopBinder}
	_, session := addSession(t, k)
	session()
	if k.msg == nil {
		t.Fatal("no request was parsed")
	}
	if k.msg.Name != message.Poisoned || len(k.msg.Fields) != 0 {
		t.Errorf("the request kept past its flow reads %v, want the poison", k.msg)
	}
	if k.param.Label != message.Poisoned || k.param.Text() != message.Poisoned {
		t.Errorf("a parameter kept past its flow reads %q = %q, want the poison", k.param.Label, k.param.Text())
	}
}

// TestOneFlowSessionReusesTheStore: a session that lives for one call —
// a connection per call, as add_churn_gateway drives it — takes the flow
// state an ended flow left, store and all, and gives it back when its flow
// ends, so the next session parses and builds in the store the first one
// grew instead of growing its own.
func TestOneFlowSessionReusesTheStore(t *testing.T) {
	giopBinder, err := bind.NewGIOPBinder("calc", casestudy.AddUsage().Messages)
	if err != nil {
		t.Fatal(err)
	}
	med, session := addSession(t, giopBinder)
	session()
	med.mu.Lock()
	spares := slices.Clone(med.spares)
	med.mu.Unlock()
	if len(spares) != 1 {
		t.Fatalf("the ended session left %d flow states, want 1", len(spares))
	}
	store := spares[0].step.env.Store()
	var parsedIn *message.Store
	k := &storeSpy{GIOPBinder: giopBinder, into: &parsedIn}
	med.cfg.Sides[1].Binder = k
	session()
	if parsedIn != store {
		t.Errorf("the second session parsed into store %p, want the first session's %p", parsedIn, store)
	}
	med.mu.Lock()
	defer med.mu.Unlock()
	if len(med.spares) != 1 || med.spares[0].step.env.Store() != store {
		t.Errorf("the second session did not give the store back: %d spares", len(med.spares))
	}
}

// storeSpy is a GIOP binder that notes the store it parses requests into.
type storeSpy struct {
	*bind.GIOPBinder
	into **message.Store
}

func (s *storeSpy) ParseRequestIn(st *message.Store, packet []byte) (string, *message.Message, error) {
	*s.into = st
	return s.GIOPBinder.ParseRequestIn(st, packet)
}

// TestSparesKeepBoundedBytes: the flow states ended flows leave are kept
// while their stores keep at most maxSpareBytes between them, so a burst
// of flows that grew large stores leaves a few of them behind, not one
// each; a flow that takes a spare takes its bytes off the count.
func TestSparesKeepBoundedBytes(t *testing.T) {
	giopBinder, err := bind.NewGIOPBinder("calc", casestudy.AddUsage().Messages)
	if err != nil {
		t.Fatal(err)
	}
	med, _ := addSession(t, giopBinder)
	s := &session{med: med}
	grown := func() *flowState {
		f := &flowState{session: s}
		f.step.reset(med.plan, &s.cache)
		f.step.env.Store().Nodes(500)
		return f
	}
	held := grown().step.env.Store().Held()
	for i := 0; i < 2*maxSpareBytes/held; i++ {
		med.give(grown())
	}
	med.mu.Lock()
	kept, bytes := len(med.spares), med.spareBytes
	med.mu.Unlock()
	if want := maxSpareBytes / held; kept != want || bytes != kept*held {
		t.Errorf("%d ended flows of %d bytes each left %d spares holding %d bytes, want %d", 2*maxSpareBytes/held, held, kept, bytes, want)
	}
	f := med.take(s)
	med.mu.Lock()
	defer med.mu.Unlock()
	if f.step.env == nil || med.spareBytes != bytes-held {
		t.Errorf("lending a spare left %d bytes counted, want %d", med.spareBytes, bytes-held)
	}
}

// TestCacheRenderedHitAllocBudget pins the step's part of a search flow
// whose hit is sent the client reply an earlier hit rendered: from the
// client's request through the request's γ, the send and the hit, past the
// reply's γ, which does not run, to the client reply handed to the shell
// as it was rendered. It allocates nothing. The first hit on the entry,
// which finds no rendering kept, composes the reply and asks the shell to
// keep one for the state, client action and request ID it answers.
func TestCacheRenderedHitAllocBudget(t *testing.T) {
	p, err := newPlan(casestudy.SearchMediator(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	recv := slices.IndexFunc(p.steps, func(st step) bool { return st.once })
	if recv < 0 {
		t.Fatal("no receive of the search mediator renders its reply once")
	}
	req := message.New(casestudy.FlickrSearch,
		message.NewPrimitive("text", message.TypeString, "tree"),
		message.NewPrimitive("per_page", message.TypeInt64, 5))
	var entries []*message.Field
	for i := 0; i < 5; i++ {
		entries = append(entries, message.NewStruct("entry",
			message.NewPrimitive("id", message.TypeString, fmt.Sprintf("photo-%04d", i)),
			message.NewPrimitive("title", message.TypeString, "tree")))
	}
	reply := message.New(casestudy.PicasaSearchReply, entries...)
	var cache mtl.Cache
	var f flow
	// walk runs one flow whose hit finds kept beside the cached reply and
	// returns the client reply's action.
	walk := func(kept *rendering) action {
		act := f.reset(p, &cache)
		var last action
		for act.kind != kDone {
			var ev event
			switch act.kind {
			case kRead:
				ev = event{op: casestudy.FlickrSearch, msg: req}
			case kRecv:
				ev = event{msg: reply, cached: true, hit: true, kept: kept}
			case kReply:
				last = act
			}
			if act, err = f.next(ev); err != nil {
				t.Fatal(err)
			}
		}
		return last
	}
	first := walk(nil)
	if r := first.keep; first.wire != nil || r == nil || r.state != recv || r.op != casestudy.FlickrSearch || r.id != req.ID {
		t.Fatalf("the first hit sent %q and asked to keep %+v", first.wire, first.keep)
	}
	if len(first.msg.Fields) == 0 {
		t.Fatal("the first hit composed no reply")
	}
	kept := &rendering{state: recv, op: casestudy.FlickrSearch, id: req.ID, wire: []byte("HTTP/1.1 200 OK\r\n\r\nrendered")}
	if act := walk(kept); &act.wire[0] != &kept.wire[0] || act.keep != nil || len(act.msg.Fields) != 0 {
		t.Fatalf("a later hit sent %q, asked to keep %+v and composed %v", act.wire, act.keep, act.msg)
	}
	checkBudget(t, "a hit sent a rendered reply", func() { walk(kept) }, 0)
}

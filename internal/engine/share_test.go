package engine_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"starlink/internal/automata"
	"starlink/internal/bind"
	"starlink/internal/casestudy"
	"starlink/internal/engine"
	"starlink/internal/message"
	"starlink/internal/mtl"
	"starlink/internal/network"
	"starlink/internal/protocol/giop"
	"starlink/internal/protocol/httpwire"
	"starlink/internal/protocol/jsonrpc"
	"starlink/internal/protocol/xmlrpc"
)

// The response cache serves the reply it stores to every flow, uncopied
// where no γ program of the automaton can write into it and copied where one
// can. Either way a client must not be able to tell that the cache is there:
// these tests compare the bytes clients are sent.

// searchBinder is the Flickr XML-RPC side of casestudy.SearchMediator.
func searchBinder() bind.Binder {
	return &bind.XMLRPCBinder{Path: "/services/xmlrpc", Defs: casestudy.FlickrUsage().Messages}
}

// cacheSearch declares the Picasa search cacheable.
func cacheSearch(cfg *engine.Config) {
	cfg.Cache = &engine.CachePolicy{Rules: map[string]engine.CacheRule{
		casestudy.PicasaSearch: {TTL: time.Minute},
	}}
}

// dialRaw connects to addr with a client that sends and reads packets as
// they are.
func dialRaw(t testing.TB, addr string, framer network.Framer) network.Conn {
	t.Helper()
	var eng network.Engine
	conn, err := eng.Dial(network.Semantics{Transport: "tcp"}, addr, framer)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// roundTrip sends one packet on conn and returns a copy of the reply.
func roundTrip(conn network.Conn, packet []byte) ([]byte, error) {
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		return nil, err
	}
	if err := conn.Send(packet); err != nil {
		return nil, err
	}
	reply, err := conn.Recv()
	return bytes.Clone(reply), err
}

// searchPacket is the XML-RPC search call for text and perPage.
func searchPacket(t testing.TB, text string, perPage int64) []byte {
	t.Helper()
	body, err := xmlrpc.MarshalCall(casestudy.FlickrSearch, map[string]xmlrpc.Value{
		"text": text, "per_page": perPage,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := &httpwire.Request{Method: "POST", Target: "/services/xmlrpc",
		Headers: httpwire.Headers{{Name: "Content-Type", Value: "text/xml"}}, Body: body}
	return req.Marshal()
}

// addPacket is the GIOP request id for Add(x, y).
func addPacket(t testing.TB, id uint64, x, y int64) []byte {
	t.Helper()
	codec, err := giop.NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	packet, err := codec.Compose(giop.NewRequest(id, "calc", "Add",
		[]*message.Field{giop.IntParam(x), giop.IntParam(y)}))
	if err != nil {
		t.Fatal(err)
	}
	return packet
}

// sameReplies fails t where two runs of one request sequence sent a client
// different bytes.
func sameReplies(t *testing.T, what string, off, on [][]byte) {
	t.Helper()
	for i := range off {
		if !bytes.Equal(off[i], on[i]) {
			t.Errorf("%s request %d: the reply with the cache differs from the one without\nwithout: %q\nwith:    %q",
				what, i, off[i], on[i])
		}
	}
}

// TestCacheOnEqualsCacheOff runs one seeded request sequence, repeats
// included, through the search mediator and the Add/Plus mediator, once
// without a cache and once with the service operation cacheable: every
// client reply is the same, byte for byte. The search's hits after the
// first of each query are sent the reply that first hit rendered, so they
// run the request's γ and not the reply's: Stats.Translations falls by one
// a hit, but for the first hit of each query.
func TestCacheOnEqualsCacheOff(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	type query struct {
		text    string
		perPage int64
	}
	queries := []query{{"tree", 3}, {"cat", 5}, {"lake", 2}, {"night", 4}, {"tree", 5}}
	searches := make([]query, 40)
	for i := range searches {
		searches[i] = queries[rng.Intn(len(queries))]
	}
	search := func(tweaks ...func(*engine.Config)) ([][]byte, engine.Stats) {
		med, _ := startCaseStudy(t, casestudy.SearchMediator(), searchBinder(), tweaks...)
		conn := dialRaw(t, med.Addr(), network.HTTPFramer{})
		var replies [][]byte
		for i, q := range searches {
			reply, err := roundTrip(conn, searchPacket(t, q.text, q.perPage))
			if err != nil {
				t.Fatalf("search %d: %v", i, err)
			}
			replies = append(replies, reply)
		}
		return replies, med.Snapshot().Stats
	}
	off, offSt := search()
	on, st := search(cacheSearch)
	sameReplies(t, "search", off, on)
	if st.CacheHits+st.CacheMisses != uint64(len(searches)) || st.CacheMisses > uint64(len(queries)) {
		t.Errorf("search: %d hits and %d misses over %d requests of %d queries",
			st.CacheHits, st.CacheMisses, len(searches), len(queries))
	}
	seen := map[query]int{}
	for _, q := range searches {
		seen[q]++
	}
	firstHits := uint64(0)
	for _, n := range seen {
		if n > 1 {
			firstHits++
		}
	}
	if want := uint64(len(searches)) + st.CacheMisses + firstHits; offSt.Translations != 2*uint64(len(searches)) || st.Translations != want {
		t.Errorf("search: %d translations without the cache and %d with it, want %d and %d",
			offSt.Translations, st.Translations, 2*len(searches), want)
	}

	operands := [][2]int64{{20, 22}, {1, 2}, {7, 5}, {-3, 3}}
	adds := make([][2]int64, 30)
	for i := range adds {
		adds[i] = operands[rng.Intn(len(operands))]
	}
	add := func(cache *engine.CachePolicy) ([][]byte, engine.Stats) {
		med := startAddPlus(t, startPlusService(t, nil).Addr(), func(cfg *engine.Config) { cfg.Cache = cache })
		conn := dialRaw(t, med.Addr(), network.GIOPFramer{})
		var replies [][]byte
		for i, xy := range adds {
			reply, err := roundTrip(conn, addPacket(t, uint64(i+1), xy[0], xy[1]))
			if err != nil {
				t.Fatalf("add %d: %v", i, err)
			}
			replies = append(replies, reply)
		}
		return replies, med.Snapshot().Stats
	}
	off, _ = add(nil)
	on, st = add(&engine.CachePolicy{Rules: map[string]engine.CacheRule{"Plus": {TTL: time.Minute}}})
	sameReplies(t, "add", off, on)
	if st.CacheHits+st.CacheMisses != uint64(len(adds)) || st.CacheMisses > uint64(len(operands)) {
		t.Errorf("add: %d hits and %d misses over %d requests of %d operand pairs",
			st.CacheHits, st.CacheMisses, len(adds), len(operands))
	}
}

// withReplyGamma returns the search mediator with statements put in front
// of its reply-side γ, the one that reads the received reply at m4.
func withReplyGamma(stmts string) *automata.Merged {
	return withGamma("m4", stmts)
}

// withGamma returns the search mediator with statements put in front of the
// γ that leaves state from.
func withGamma(from, stmts string) *automata.Merged {
	merged := casestudy.SearchMediator()
	for i, tr := range merged.Transitions {
		if tr.Kind == automata.KindGamma && tr.From == from {
			merged.Transitions[i].MTL = stmts + "\n" + tr.MTL
		}
	}
	return merged
}

// jsonSearchPacket is the JSON-RPC search call id for text and perPage.
func jsonSearchPacket(t testing.TB, id uint64, text string, perPage int64) []byte {
	t.Helper()
	body, err := jsonrpc.MarshalCall(id, casestudy.FlickrSearch, map[string]any{"text": text, "per_page": perPage})
	if err != nil {
		t.Fatal(err)
	}
	return (&httpwire.Request{Method: "POST", Target: "/j",
		Headers: httpwire.Headers{{Name: "Content-Type", Value: "application/json"}}, Body: body}).Marshal()
}

// TestCacheRenderedReplyEqualsCacheOff: a hit is sent the client reply an
// earlier hit on its entry rendered only where that reply is what running
// the flow's γ programs and composing again would give. Each row runs one
// request sequence through a variant of the search mediator without a
// cache and with one: every client reply is the same, byte for byte. In
// the rows whose reply depends on more than the cached reply — the client's
// per_page under vary=q, the session cache, a function of the deployment,
// an earlier γ writing into the reply — every hit runs every γ program
// (Stats.Translations is the same with the cache and without). In the
// JSON-RPC row a rendered reply is sent only to a request with the id it
// was rendered for, so each reply carries its own id.
func TestCacheRenderedReplyEqualsCacheOff(t *testing.T) {
	xmlrpcSeq := func(perPages ...int64) [][]byte {
		var packets [][]byte
		for _, text := range []string{"cat", "lake", "cat"} {
			for _, n := range perPages {
				packets = append(packets, searchPacket(t, text, n))
			}
		}
		return packets
	}
	ticks := func() map[string]mtl.Func {
		n := 0
		return map[string]mtl.Func{"tick": func(*mtl.Env, []any) (any, error) { n++; return int64(n), nil }}
	}
	// "cat" matches two photos and "lake" one, so per_page 2 to 4 is sent
	// the same feed and vary=q keys it the same.
	cases := []struct {
		name     string
		merged   *automata.Merged
		client   func() bind.Binder
		funcs    func() map[string]mtl.Func
		vary     []string
		packets  [][]byte
		ids      []uint64 // the JSON-RPC ids of packets
		rendered bool     // whether a hit may be sent a rendered reply
	}{
		{name: "the reply is a function of the cached reply", merged: withReplyGamma(""),
			packets: xmlrpcSeq(3, 3, 3), rendered: true},
		{name: "the γ copies the client's per_page into the reply", merged: withReplyGamma(`m5.Msg.per_page = m1.Msg.per_page`),
			vary: []string{"q"}, packets: xmlrpcSeq(2, 3, 4)},
		{name: "the γ calls getcache", merged: withReplyGamma(`try m5.Msg.before = getcache("last")` + "\n" + `cache("last", count(m4.Msg))`),
			packets: xmlrpcSeq(3, 3)},
		{name: "the γ calls a function of the deployment", merged: withReplyGamma(`m5.Msg.tick = tick()`),
			funcs: ticks, packets: xmlrpcSeq(3, 3)},
		{name: "an earlier γ writes into the reply", merged: withGamma("m1", `m5.Msg.per_page = m1.Msg.per_page`),
			vary: []string{"q"}, packets: xmlrpcSeq(2, 3, 4)},
		{name: "the JSON-RPC client", merged: withReplyGamma(""), rendered: true,
			client: func() bind.Binder { return &bind.JSONRPCBinder{Path: "/j", Defs: casestudy.FlickrUsage().Messages} },
			ids:    []uint64{1, 1, 2, 1, 2, 2, 1, 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.ids != nil {
				for i, id := range tc.ids {
					tc.packets = append(tc.packets, jsonSearchPacket(t, id, []string{"cat", "lake"}[i%2], 3))
				}
			}
			run := func(cached bool) ([][]byte, engine.Stats) {
				client := searchBinder()
				if tc.client != nil {
					client = tc.client()
				}
				med, _ := startCaseStudy(t, tc.merged, client, func(cfg *engine.Config) {
					if tc.funcs != nil {
						cfg.Funcs = tc.funcs()
					}
					if cached {
						cfg.Cache = &engine.CachePolicy{Rules: map[string]engine.CacheRule{
							casestudy.PicasaSearch: {TTL: time.Minute, Vary: tc.vary},
						}}
					}
				})
				conn := dialRaw(t, med.Addr(), network.HTTPFramer{})
				var replies [][]byte
				for i, packet := range tc.packets {
					reply, err := roundTrip(conn, packet)
					if err != nil {
						t.Fatalf("request %d: %v", i, err)
					}
					replies = append(replies, reply)
				}
				return replies, med.Snapshot().Stats
			}
			off, offSt := run(false)
			on, st := run(true)
			sameReplies(t, tc.name, off, on)
			if st.CacheHits == 0 || st.Failures != 0 {
				t.Fatalf("%d hits and %d failures with the cache", st.CacheHits, st.Failures)
			}
			if rendered := st.Translations < offSt.Translations; rendered != tc.rendered {
				t.Errorf("%d translations with the cache, %d without: rendered %v, want %v", st.Translations, offSt.Translations, rendered, tc.rendered)
			}
			for i, id := range tc.ids {
				resp, err := httpwire.ParseResponse(on[i])
				if err != nil {
					t.Fatalf("reply %d: %v", i, err)
				}
				if got, _, err := jsonrpc.ParseResponse(resp.Body); err != nil || got != id {
					t.Errorf("request %d of id %d answered with id %d (%v)", i, id, got, err)
				}
			}
		})
	}
}

// TestCacheCopiesForWritingGamma: where a γ program can write into the
// received reply — by assigning into its handle, or by calling a function
// of the deployment, which may write its arguments — a flow must bind a copy
// of the cached reply. Were the stored reply shared, every hit would write
// into it once more and the next hit would answer differently: three hits
// give three equal replies, equal to the miss's, so the stored entry is
// unchanged.
func TestCacheCopiesForWritingGamma(t *testing.T) {
	cases := []struct {
		name  string
		stmts string
		funcs map[string]mtl.Func
		// wrote is what the γ's write shows in the reply.
		wrote func(photos []xmlrpc.Value, total xmlrpc.Value) bool
	}{
		{name: "the γ appends to the reply it received", stmts: `m4.Msg.extra[] = "x"`,
			wrote: func(photos []xmlrpc.Value, total xmlrpc.Value) bool {
				return total == int64(len(photos)+1)
			}},
		{name: "the γ calls a function of the deployment", stmts: `touch(m4.Msg.entry)`,
			funcs: map[string]mtl.Func{"touch": func(_ *mtl.Env, args []any) (any, error) {
				entry, ok := args[0].(*message.Field)
				if !ok || entry.Child("title") == nil {
					return nil, fmt.Errorf("touch(%v): no entry with a title", args[0])
				}
				title := entry.Child("title")
				title.SetText(title.Text() + "*")
				return nil, nil
			}},
			wrote: func(photos []xmlrpc.Value, _ xmlrpc.Value) bool {
				title, _ := member(photos[0], "title").(string)
				return strings.HasSuffix(title, "*") && !strings.HasSuffix(title, "**")
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			med, _ := startCaseStudy(t, withReplyGamma(tc.stmts), searchBinder(), cacheSearch,
				func(cfg *engine.Config) { cfg.Funcs = tc.funcs })
			conn := dialRaw(t, med.Addr(), network.HTTPFramer{})
			miss, err := roundTrip(conn, searchPacket(t, "tree", 3))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := httpwire.ParseResponse(miss)
			if err != nil {
				t.Fatal(err)
			}
			v, err := xmlrpc.ParseResponse(resp.Body)
			if err != nil {
				t.Fatalf("the miss: %v", err)
			}
			photos, _ := member(v, "photos").([]xmlrpc.Value)
			if len(photos) == 0 || !tc.wrote(photos, member(v, "total")) {
				t.Fatalf("the γ's write does not show in the miss's reply %#v", v)
			}
			for i := 0; i < 3; i++ {
				hit, err := roundTrip(conn, searchPacket(t, "tree", 3))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(hit, miss) {
					t.Fatalf("hit %d answered differently from the miss:\nmiss: %q\nhit:  %q", i+1, miss, hit)
				}
			}
			if st := med.Snapshot().Stats; st.CacheMisses != 1 || st.CacheHits != 3 {
				t.Errorf("%d misses and %d hits, want 1 and 3", st.CacheMisses, st.CacheHits)
			}
		})
	}
}

// member returns one member of an XML-RPC struct, nil when absent.
func member(v xmlrpc.Value, name string) xmlrpc.Value {
	st, _ := v.(map[string]xmlrpc.Value)
	return st[name]
}

// TestCacheSharedReplyConcurrentHits: eight sessions at once are served one
// stored search reply, which every one of them binds as it is. Each gets the
// bytes the miss got; under the race detector (make race) it also shows that
// no session writes into the reply the others read.
func TestCacheSharedReplyConcurrentHits(t *testing.T) {
	const sessions, flows = 8, 25
	med, _ := startCaseStudy(t, casestudy.SearchMediator(), searchBinder(), cacheSearch)
	packet := searchPacket(t, "tree", 5)
	want, err := roundTrip(dialRaw(t, med.Addr(), network.HTTPFramer{}), packet)
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]network.Conn, sessions)
	for i := range conns {
		conns[i] = dialRaw(t, med.Addr(), network.HTTPFramer{})
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, conn := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < flows; j++ {
				got, err := roundTrip(conn, packet)
				if err != nil {
					t.Errorf("session %d flow %d: %v", i, j, err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("session %d flow %d: the reply differs from the miss's", i, j)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if st := med.Snapshot().Stats; st.CacheMisses != 1 || st.CacheHits != sessions*flows {
		t.Errorf("%d misses and %d hits, want 1 and %d", st.CacheMisses, st.CacheHits, sessions*flows)
	}
}

// TestCacheSharedReplyAnsweredWithoutGamma: an Add/Plus mediator whose
// client reply is built straight from the received Plus reply, with no γ
// between, so the engine itself names the shared reply and carries the GIOP
// request id into it. It must do both on a copy of the reply's header: the
// stored reply keeps its name and gains no request id, and each flow of
// eight concurrent sessions is answered under its own id.
func TestCacheSharedReplyAnsweredWithoutGamma(t *testing.T) {
	const sessions, flows = 8, 10
	srv := startPlusService(t, nil)
	med := startAddPlus(t, srv.Addr(), replyWithoutGamma)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, err := giop.Dial(med.Addr(), "calc")
			if err != nil {
				t.Error(err)
				return
			}
			defer client.Close()
			for j := 0; j < flows; j++ {
				results, err := client.Invoke("Add", giop.IntParam(20), giop.IntParam(22))
				if err != nil {
					t.Errorf("session %d flow %d: %v", i, j, err)
					return
				}
				if len(results) != 1 || results[0].ValueString() != "42" {
					t.Errorf("session %d flow %d: Add = %v", i, j, results)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := med.Snapshot().Stats; st.CacheHits+st.CacheCoalesced+st.CacheMisses != sessions*flows || st.Failures != 0 {
		t.Errorf("%d hits, %d coalesced, %d misses and %d failures over %d flows",
			st.CacheHits, st.CacheCoalesced, st.CacheMisses, st.Failures, sessions*flows)
	}
}

// replyWithoutGamma answers Add with the Plus reply as it is received, no γ
// between, and caches Plus.
func replyWithoutGamma(cfg *engine.Config) {
	merged := *cfg.Merged
	merged.Transitions = nil
	merged.States = slices.DeleteFunc(slices.Clone(merged.States), func(st automata.MergedState) bool { return st.Name == "m5" })
	for _, tr := range cfg.Merged.Transitions {
		switch {
		case tr.Kind == automata.KindGamma && tr.From == "m4":
			continue
		case tr.Kind == automata.KindMessage && tr.To == "m6":
			tr.From = "m4"
		}
		merged.Transitions = append(merged.Transitions, tr)
	}
	cfg.Merged = &merged
	cfg.Cache = &engine.CachePolicy{Rules: map[string]engine.CacheRule{"Plus": {TTL: time.Minute}}}
}

// TestCacheSharedReplyAnsweredWithoutGammaJSONRPC is the JSON-RPC row of
// TestCacheSharedReplyAnsweredWithoutGamma: two clients whose requests carry
// different ids are answered from one cached Plus reply, and each response
// carries the id of the request it answers.
func TestCacheSharedReplyAnsweredWithoutGammaJSONRPC(t *testing.T) {
	srv := startPlusService(t, nil)
	med := startAddPlus(t, srv.Addr(), func(cfg *engine.Config) {
		replyWithoutGamma(cfg)
		cfg.Sides[1] = &engine.Side{Binder: &bind.JSONRPCBinder{Path: "/j", Defs: casestudy.AddUsage().Messages}}
	})
	clients := []network.Conn{dialRaw(t, med.Addr(), network.HTTPFramer{}), dialRaw(t, med.Addr(), network.HTTPFramer{})}
	for i, id := range []uint64{101, 202, 103, 204} {
		body, err := jsonrpc.MarshalCall(id, "Add", 20, 22)
		if err != nil {
			t.Fatal(err)
		}
		packet := (&httpwire.Request{Method: "POST", Target: "/j",
			Headers: httpwire.Headers{{Name: "Content-Type", Value: "application/json"}}, Body: body}).Marshal()
		reply, err := roundTrip(clients[i%2], packet)
		if err != nil {
			t.Fatalf("call %d: %v", id, err)
		}
		resp, err := httpwire.ParseResponse(reply)
		if err != nil {
			t.Fatalf("call %d: %v", id, err)
		}
		got, result, err := jsonrpc.ParseResponse(resp.Body)
		if err != nil || got != id || result != "42" {
			t.Errorf("call %d answered id %d, result %v, err %v", id, got, result, err)
		}
	}
	if st := med.Snapshot().Stats; st.CacheMisses != 1 || st.CacheHits != 3 || st.Failures != 0 {
		t.Errorf("%d misses, %d hits and %d failures, want 1, 3 and 0", st.CacheMisses, st.CacheHits, st.Failures)
	}
}

package engine

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"time"

	"starlink/internal/automata"
	"starlink/internal/bind"
	"starlink/internal/casestudy"
	"starlink/internal/message"
	"starlink/internal/mtl"
	"starlink/internal/network"
	"starlink/internal/protocol/httpwire"
	"starlink/internal/protocol/xmlrpc"
	"starlink/internal/rcache"
	"starlink/internal/services/photostore"
	"starlink/internal/services/picasa"
)

// A reply binder that is a bind.Projector parses only what the plan reads
// of each reply (plan.keeps). No client may be able to tell: these tests
// run the same requests with projection on and with it off.

// TestProjectionOnEqualsOff holds projection to parsing whole, twice.
//
// In the step: over random traversals of every shipped merged automaton,
// casestudy.SearchMediator and Merge(AAdd, APlus), a flow that binds the
// replies its service binder parses projected asks for exactly what one
// that binds them whole asks for — every send and reply, message and host
// — it sends its client the same bytes, and its session cache ends with the
// same entries. A reply the response cache holds is bound whole, as the
// shell parses it.
//
// In the shell: the search mediator behind a response cache answers a
// client the same bytes, and its response cache ends with the same
// entries: what the service sent, whole.
func TestProjectionOnEqualsOff(t *testing.T) {
	worlds := shippedWorlds(t, true)
	worlds = append(worlds, searchVariants(worlds[len(worlds)-1])...)
	projected := 0
	for i, w := range worlds {
		p, err := newPlan(w.merged, w.merged.Color1, w.funcs)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(p.links) != 1 {
			t.Fatalf("%s: %d service links, want 1", w.name, len(p.links))
		}
		reader := w.service
		if pj, ok := reader.(bind.Projector); ok {
			reader = pj.Project(p.keeps[0])
			projected++
		}
		rng := rand.New(rand.NewPCG(*modelSeed, uint64(i)))
		md, err := newModel(w.merged, w.funcs)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var on, off mtl.Cache
		var keys []string
		for k := 0; k < 60; k++ {
			tr := w.draw(rng, md)
			keys = append(keys, texts(tr)...)
			whole := walk(t, w, p, &off, tr, nil)
			if got := walk(t, w, p, &on, tr, reader); !slices.Equal(got, whole) {
				t.Fatalf("%s, traversal %d (-model.seed=%d): projected, the flow is not what it is whole\n%s",
					w.name, k, *modelSeed, diffLines(got, whole))
			}
		}
		if on.Len() != off.Len() {
			t.Errorf("%s: the session cache holds %d entries projected, %d whole", w.name, on.Len(), off.Len())
		}
		for _, key := range keys {
			a, errOn := on.Get(key)
			b, errOff := off.Get(key)
			if (errOn == nil) != (errOff == nil) || !a.Equal(b) {
				t.Errorf("%s: session cache entry %q is %v projected, %v whole", w.name, key, a, b)
			}
		}
	}
	if projected != 6 {
		t.Errorf("%d automata had a projected reply binder, want the six with a REST service", projected)
	}

	// The shell, with the response cache.
	run := func(whole bool) ([][]byte, []string) {
		med, target, sent := startSearch(t, whole)
		conn, err := network.Engine{DialTimeout: 5 * time.Second}.Dial(network.Semantics{Transport: "tcp"}, med.Addr(), network.HTTPFramer{})
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var replies [][]byte
		for _, q := range []string{"tree", "cat", "tree", "lake", "cat", "tree"} {
			body, err := xmlrpc.MarshalCall(casestudy.FlickrSearch, map[string]xmlrpc.Value{"text": q, "per_page": int64(3)})
			if err != nil {
				t.Fatal(err)
			}
			req := &httpwire.Request{Method: "POST", Target: "/services/xmlrpc", Body: body,
				Headers: httpwire.Headers{{Name: "Content-Type", Value: "text/xml"}}}
			if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
				t.Fatal(err)
			}
			if err := conn.Send(req.Marshal()); err != nil {
				t.Fatal(err)
			}
			reply, err := conn.Recv()
			if err != nil {
				t.Fatal(err)
			}
			replies = append(replies, bytes.Clone(reply))
		}
		var entries []string
		for _, abs := range *sent {
			key := rcache.Key(casestudy.PicasaSearch, target, abs, nil)
			reply, flight, _ := med.rcache.Acquire(casestudy.PicasaSearch, key)
			if flight != nil {
				med.rcache.Abort(flight, errors.New("not cached"))
				t.Errorf("whole %v: the response cache does not hold %v", whole, abs)
				continue
			}
			entries = append(entries, reply.String())
		}
		return replies, entries
	}
	onReplies, onEntries := run(false)
	offReplies, offEntries := run(true)
	for i := range offReplies {
		if !bytes.Equal(onReplies[i], offReplies[i]) {
			t.Errorf("search %d: the reply projected differs from the one whole\nprojected: %q\nwhole:     %q", i, onReplies[i], offReplies[i])
		}
	}
	if len(onEntries) != 3 || !slices.Equal(onEntries, offEntries) {
		t.Errorf("the response cache holds\n%q projected,\n%q whole", onEntries, offEntries)
	}
}

// searchVariants are two search mediators whose flows read a reply past
// what their γ programs name: one answers its client with the reply as it
// is, without a γ between, and one reads it through a function of the
// deployment, which is handed the environment.
func searchVariants(search *world) []*world {
	forward, peek := *search, *search
	forward.name, forward.merged = "search forwarding its reply", casestudy.SearchMediator()
	m := forward.merged
	m.Transitions = slices.DeleteFunc(m.Transitions, func(tr automata.MergedTransition) bool { return tr.From == "m4" })
	for i := range m.Transitions {
		if m.Transitions[i].From == "m5" {
			m.Transitions[i].From = "m4"
		}
	}
	m.States = slices.DeleteFunc(m.States, func(st automata.MergedState) bool { return st.Name == "m5" })
	peek.name, peek.merged = "search reading its reply through a function", casestudy.SearchMediator()
	for i, tr := range peek.merged.Transitions {
		if tr.From == "m4" {
			peek.merged.Transitions[i].MTL += "m5.Msg.src = peek()\n"
		}
	}
	peek.funcs = map[string]mtl.Func{"peek": func(env *mtl.Env, _ []any) (any, error) {
		var srcs []string
		for _, e := range env.Message("m4").Fields {
			if src := e.Child("src"); src != nil {
				srcs = append(srcs, src.Text())
			}
		}
		return strings.Join(srcs, " "), nil
	}}
	return []*world{&forward, &peek}
}

// walk is replay for the projection test: it walks f through tr's events
// and returns what it asked, with the bytes of each client reply. With a
// reader, a reply the network answered is the service's packet parsed by
// it, as the shell parses it; a cached one stays what was drawn.
func walk(t *testing.T, w *world, p *plan, cache *mtl.Cache, tr traversal, reader bind.Binder) []string {
	var f flow
	act := f.reset(p, cache)
	asked := []string{renderFlow(&f, act)}
	var op string // the operation last sent
	for _, ev := range tr.events {
		if act.kind == kDone {
			break
		}
		ev = copyEvent(ev)
		switch {
		case act.kind == kSend:
			op = act.op
		case act.kind == kRecv && reader != nil && !ev.cached:
			var err error
			if ev.msg, err = reader.ParseReply(op, w.packets[op]); err != nil {
				t.Fatalf("%s: the projected reader refuses the reply to %s: %v", w.name, op, err)
			}
			fallthrough
		case act.kind == kRecv && !ev.cached:
			ev.msg.Name = act.op
		}
		var err error
		if act, err = f.next(ev); err != nil {
			asked = append(asked, renderErr(err, f.pendingAction, f.pending))
			break
		}
		asked = append(asked, renderFlow(&f, act))
		if act.kind == kReply {
			packet, err := w.client.BuildReply(act.op, act.msg)
			asked = append(asked, string(packet))
			if err != nil {
				asked = append(asked, err.Error())
			}
		}
	}
	return asked
}

// texts are the scalars of a traversal's messages as text: the keys a γ
// program can have cached its entries under.
func texts(tr traversal) []string {
	var out []string
	var visit func(fs []*message.Field)
	visit = func(fs []*message.Field) {
		for _, f := range fs {
			if f.Type.Primitive() {
				out = append(out, f.ValueString())
			}
			visit(f.Children)
		}
	}
	for _, ev := range tr.events {
		if ev.msg != nil {
			visit(ev.msg.Fields)
		}
	}
	return out
}

// startSearch starts casestudy.SearchMediator behind a response cache for
// the Picasa search, its replies parsed whole or not. It returns the
// mediator, the target its cache keys name, and the search requests its
// service binder is handed, in order.
func startSearch(t *testing.T, whole bool) (*Mediator, string, *[]*message.Message) {
	t.Helper()
	store := photostore.Generate(60)
	pic, err := picasa.New(store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pic.Close() })
	routes, err := bind.ParseRoutes(casestudy.PicasaRoutesDoc)
	if err != nil {
		t.Fatal(err)
	}
	rest, err := bind.NewRESTBinder(routes)
	if err != nil {
		t.Fatal(err)
	}
	sent := new([]*message.Message)
	med, err := New(Config{
		Merged: casestudy.SearchMediator(),
		Sides: map[int]*Side{
			1: {Binder: &bind.XMLRPCBinder{Path: "/services/xmlrpc", Defs: casestudy.FlickrUsage().Messages}},
			2: {Binder: recorder{rest, sent}, Target: pic.Addr()},
		},
		HostMap:      map[string]string{casestudy.PicasaHost: pic.Addr()},
		Cache:        &CachePolicy{Rules: map[string]CacheRule{casestudy.PicasaSearch: {TTL: time.Minute}}},
		wholeReplies: whole,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := med.readers[0].(recorder); !ok || med.readers[0] == med.cfg.Sides[2].Binder != whole {
		t.Fatalf("whole %v, and the reply reader is %T, the side's binder or not", whole, med.readers[0])
	}
	if err := med.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { med.Close() })
	return med, pic.Addr(), sent
}

// recorder is a REST binder that keeps a copy of each request it builds,
// and stays one when it is projected.
type recorder struct {
	*bind.RESTBinder
	sent *[]*message.Message
}

func (r recorder) AppendRequest(dst []byte, action string, abs *message.Message) ([]byte, error) {
	*r.sent = append(*r.sent, abs.Clone())
	return r.RESTBinder.AppendRequest(dst, action, abs)
}

func (r recorder) BuildRequest(action string, abs *message.Message) ([]byte, error) {
	return r.AppendRequest(nil, action, abs)
}

func (r recorder) Project(keep map[string][]string) bind.Binder {
	return recorder{r.RESTBinder.Project(keep).(*bind.RESTBinder), r.sent}
}

package engine

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"starlink/internal/automata"
	"starlink/internal/bind"
	"starlink/internal/casestudy"
	"starlink/internal/message"
	"starlink/internal/mtl"
	"starlink/internal/network"
	"starlink/internal/protocol/slp"
	"starlink/internal/protocol/soap"
	"starlink/internal/services/flickr"
	"starlink/internal/services/photostore"
	"starlink/internal/services/picasa"
	"starlink/models"
)

// The step is held to the paper's automaton semantics by a reference
// model: the slow and obvious interpreter below, kept beside the fast one
// in the style of the oracle_test.go files of xmlenc, binenc, textenc, bind
// and mtl. TestFlowMatchesModel drives flow.next and the model side by side
// over random traversals and compares what each asks for, step by step.

var modelSeed = flag.Uint64("model.seed", 1, "seed of TestFlowMatchesModel's traversals")

// model interprets a merged automaton the way Definitions 1–8 read: at
// every state it scans the transitions (Merged.Out, IsFinal); a receiving
// state binds the message received to the transition's target, a sending
// state sends the message bound to it, named after the transition, and a
// no-action state runs its γ. A multi-out state is the client's choice. Each
// traversal runs in a fresh mtl.Env, and a reply the response cache holds
// is always deep-copied. There is no plan, recycling, pool, cache, retry
// or budget.
type model struct {
	m     *automata.Merged
	gamma map[string]*mtl.CompiledProgram // by "from->to"
	funcs map[string]mtl.Func
	cache mtl.Cache // lasts as long as the session, like the shell's

	env           *mtl.Env
	state, host   string
	pendingAction string
	pending       *message.Message
}

func newModel(m *automata.Merged, funcs map[string]mtl.Func) (*model, error) {
	md := &model{m: m, gamma: map[string]*mtl.CompiledProgram{}, funcs: funcs}
	var handles []string
	for _, st := range m.States {
		handles = append(handles, st.Name)
	}
	for _, t := range m.Transitions {
		if t.Kind != automata.KindGamma {
			continue
		}
		prog, err := mtl.Parse(t.MTL)
		if err != nil {
			return nil, err
		}
		if md.gamma[t.From+"->"+t.To], err = mtl.Compile(prog, mtl.CompileOptions{Handles: handles, Funcs: funcs}); err != nil {
			return nil, err
		}
	}
	return md, nil
}

// start begins a traversal and says what its first state asks for.
func (md *model) start() string {
	md.env = mtl.NewEnv(&md.cache)
	md.env.Funcs = md.funcs
	for _, st := range md.m.States {
		md.env.Bind(st.Name, message.New(""))
	}
	md.state, md.host, md.pendingAction, md.pending = md.m.Start, "", "", nil
	return md.ask()
}

// ask says what the current state asks for, as render words it.
func (md *model) ask() string {
	if md.m.IsFinal(md.state) {
		return md.render(kDone, 0, "", nil, nil)
	}
	t := md.m.Out(md.state)[0]
	client := t.Color == md.m.Color1
	switch {
	case t.Kind == automata.KindGamma:
		return md.render(kGamma, 0, "", nil, nil)
	case client && t.Action == automata.Send:
		return md.render(kRead, 0, "", nil, nil)
	case t.Action == automata.Receive && !client:
		return md.render(kRecv, t.Color, t.Message, nil, nil)
	}
	msg := md.env.Message(t.From)
	msg.Name = t.Message
	if client {
		// A reply is correlated by the id of the request it answers.
		msg.ID = md.pending.ID
		return md.render(kReply, 0, md.pendingAction, msg, md.pending)
	}
	return md.render(kSend, t.Color, t.Message, msg, nil)
}

// next takes the transition ev picks and says what the state it enters
// asks for.
func (md *model) next(ev event) (string, error) {
	out := md.m.Out(md.state)
	t := out[0]
	client := t.Color == md.m.Color1
	switch {
	case t.Kind == automata.KindGamma:
		md.env.Host = ""
		if err := md.gamma[t.From+"->"+t.To].Exec(md.env); err != nil {
			return "", fmt.Errorf("γ %s->%s: %w", t.From, t.To, err)
		}
		if md.env.Host != "" {
			md.host = md.env.Host
		}
	case client && t.Action == automata.Send:
		md.pendingAction, md.pending = ev.op, ev.msg
		var offers []string
		for _, o := range out {
			offers = append(offers, o.Message)
		}
		i := slices.Index(offers, ev.op)
		if i < 0 {
			return "", fmt.Errorf("%w: got %q, automaton offers %s at %s",
				ErrUnexpectedAction, ev.op, strings.Join(offers, "|"), md.state)
		}
		t = out[i]
		md.env.Bind(t.To, ev.msg)
	case client:
		md.pendingAction, md.pending = "", nil
	case t.Action == automata.Receive:
		msg := ev.msg
		if ev.cached {
			msg = msg.Clone()
			msg.Name = t.Message
		}
		md.env.Bind(t.To, msg)
	}
	md.state = t.To
	return md.ask(), nil
}

func (md *model) render(k kind, color int, op string, msg, req *message.Message) string {
	if k == kRead || k == kDone {
		req = md.pending
	}
	return render(k, color, op, msg, req, md.host)
}

// render words an action with what it depends on: its kind, colour,
// operation and messages, and the host a send goes to. At a read, and at
// the end, req is the client request still pending, which there is none.
func render(k kind, color int, op string, msg, req *message.Message, host string) string {
	s := [...]string{"read", "γ", "send", "recv", "reply", "done"}[k] + " c" + strconv.Itoa(color) + " " + op
	if msg != nil {
		s += " " + words(msg)
	}
	if req != nil {
		s += " to " + words(req)
	}
	if k == kSend {
		s += " @" + host
	}
	return s
}

// words renders a message with its ID, which String leaves out.
func words(msg *message.Message) string {
	return msg.String() + " #" + strconv.FormatUint(msg.ID, 10)
}

func renderFlow(f *flow, act action) string {
	var color int
	var req *message.Message
	switch act.kind {
	case kSend, kRecv:
		color = f.p.links[act.link]
	case kRead, kReply, kDone:
		req = f.pending
	}
	return render(act.kind, color, act.op, act.msg, req, f.host)
}

// renderErr words a failed step: the error, and the request it leaves
// pending.
func renderErr(err error, pendingAction string, pending *message.Message) string {
	s := "error " + err.Error()
	if errors.Is(err, ErrUnexpectedAction) {
		s = "unexpected " + s
	}
	if pending != nil {
		s += " | pending " + pendingAction + " " + words(pending)
	}
	return s
}

// world is one merged automaton with what its traversals are drawn from:
// the client's requests, built for and parsed by the client's binder, and
// the service's replies — for a shipped automaton, what the simulated
// service answered, parsed by the service's binder.
type world struct {
	name    string
	merged  *automata.Merged
	funcs   map[string]mtl.Func
	request func(rng *rand.Rand, op string) *message.Message
	reply   func(rng *rand.Rand, name, op string, sent *message.Message) *message.Message // nil: it does not parse
	// For a shipped automaton: the binders of its deployment, and the
	// packet the service answered each operation with.
	client, service bind.Binder
	packets         map[string][]byte
}

// traversal is a drawn walk: the event of each step, as the model took
// it, and what the model asked along the way.
type traversal struct {
	events []event
	asked  []string
}

const maxSteps = 200

// draw walks md once, drawing each event: at a client read an offered
// action, or one in eight times one that is not; at a service receive the
// world's reply, cached one time in two.
func (w *world) draw(rng *rand.Rand, md *model) traversal {
	var tr traversal
	ask := md.start()
	tr.asked = append(tr.asked, ask)
	sent := map[int]*message.Message{}
	for len(tr.events) < maxSteps && !md.m.IsFinal(md.state) {
		out := md.m.Out(md.state)
		t := out[0]
		var ev event
		switch {
		case t.Kind == automata.KindGamma:
		case t.Color == md.m.Color1 && t.Action == automata.Send:
			ev.op = out[rng.IntN(len(out))].Message
			if rng.IntN(8) == 0 {
				ev.op = w.offTheMenu(rng, out)
			}
			ev.msg = w.request(rng, ev.op)
		case t.Color == md.m.Color1:
		case t.Action == automata.Send:
			sent[t.Color] = md.env.Message(t.From).Clone()
		default:
			req := sent[t.Color]
			if ev.msg = w.reply(rng, t.Message, req.Name, req); ev.msg == nil {
				// A reply that does not parse fails the exchange, which
				// ends the flow in the shell; the step never sees it.
				return tr
			}
			if ev.cached = rng.IntN(2) == 0; ev.cached && rng.IntN(4) == 0 {
				ev.msg.Name = "stored.under.another.name"
			}
		}
		tr.events = append(tr.events, ev)
		next, err := md.next(copyEvent(ev))
		if err != nil {
			tr.asked = append(tr.asked, renderErr(err, md.pendingAction, md.pending))
			break
		}
		tr.asked = append(tr.asked, next)
	}
	return tr
}

// offTheMenu is a client action the state does not offer: another of the
// automaton's, or one it has none of.
func (w *world) offTheMenu(rng *rand.Rand, out []automata.MergedTransition) string {
	var others []string
	for _, t := range w.merged.Transitions {
		if t.Kind == automata.KindMessage && t.Color == w.merged.Color1 && t.Action == automata.Send &&
			!slices.ContainsFunc(out, func(o automata.MergedTransition) bool { return o.Message == t.Message }) {
			others = append(others, t.Message)
		}
	}
	if len(others) == 0 || rng.IntN(2) == 0 {
		return "no.such.action"
	}
	return others[rng.IntN(len(others))]
}

// copyEvent gives a run its own copy of an event's message: a γ may write
// into a message bound as it was received.
func copyEvent(ev event) event {
	if ev.msg != nil {
		ev.msg = ev.msg.Clone()
	}
	return ev
}

// replay walks f through tr's events and returns what it asked. A cached
// reply is handed over as one message, which must render the same after
// the traversal as before it: the flow may bind it, but not write into
// it. With cached false every reply is handed over as the network's.
func replay(t *testing.T, f *flow, p *plan, cache *mtl.Cache, tr traversal, cached bool) []string {
	act := f.reset(p, cache)
	if f.pending != nil || f.pendingAction != "" || f.host != "" || len(f.shared) != 0 {
		t.Errorf("reset left pending %q %v, host %q and %d shared replies", f.pendingAction, f.pending, f.host, len(f.shared))
	}
	asked := []string{renderFlow(f, act)}
	type held struct {
		msg    *message.Message
		before string
	}
	var holds []held
	for _, ev := range tr.events {
		if act.kind == kDone {
			break
		}
		ev = copyEvent(ev)
		if ev.cached = ev.cached && cached; ev.cached {
			holds = append(holds, held{ev.msg, words(ev.msg)})
		} else if ev.msg != nil && act.kind == kRecv {
			ev.msg.Name = act.op
		}
		var err error
		if act, err = f.next(ev); err != nil {
			asked = append(asked, renderErr(err, f.pendingAction, f.pending))
			break
		}
		asked = append(asked, renderFlow(f, act))
	}
	for _, h := range holds {
		if after := words(h.msg); after != h.before {
			t.Errorf("a cached reply was written into:\n%s\nbecame\n%s", h.before, after)
		}
	}
	return asked
}

// TestFlowMatchesModel drives the step and the reference model side by
// side over random traversals of the six shipped merged automata — the
// five under models/ and Merge(AAdd, APlus) — and of small random ones, and
// holds four properties:
//
//  1. at every step the flow asks for what the model asks for: kind,
//     colour, operation and the rendered message;
//  2. cached or not, a reply leads to the same actions, and a cached one
//     renders the same before and after the traversal;
//  3. traversal k on a reused flow acts exactly as on a fresh one;
//  4. an action the state does not offer is ErrUnexpectedAction in both,
//     with the same request left pending.
//
// A failure names the seed; -model.seed replays or varies the draw.
func TestFlowMatchesModel(t *testing.T) {
	start := time.Now()
	worlds := shippedWorlds(t, false)
	rng := rand.New(rand.NewPCG(*modelSeed, ^uint64(0)))
	for i := 0; i < 320; i++ {
		worlds = append(worlds, randomWorld(rng, i))
	}
	traversals := 0
	for i, w := range worlds {
		sessions, perSession := 1, 20
		if i < 6 {
			sessions, perSession = 24, 25
		}
		p, err := newPlan(w.merged, w.merged.Color1, w.funcs)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for s := 0; s < sessions; s++ {
			rng := rand.New(rand.NewPCG(*modelSeed, uint64(i)<<32|uint64(s)))
			md, err := newModel(w.merged, w.funcs)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			var reused flow
			var cache mtl.Cache
			for k := 0; k < perSession; k++ {
				tr := w.draw(rng, md)
				traversals++

				// Every traversal holds the reused flow to the model; one in
				// four holds it to a fresh flow as well, and another one in
				// four to a fresh flow that is told no reply is cached.
				got := replay(t, &reused, p, &cache, tr, true)
				check := func(what string, other []string) {
					if !slices.Equal(got, other) {
						t.Fatalf("%s, session %d, traversal %d (-model.seed=%d): the flow is not %s\n%s",
							w.name, s, k, *modelSeed, what, diffLines(got, other))
					}
				}
				check("the model", tr.asked)
				switch k % 4 {
				case 0:
					check("a fresh flow", replay(t, new(flow), p, new(mtl.Cache), tr, true))
				case 2:
					check("the flow with no reply cached", replay(t, new(flow), p, new(mtl.Cache), tr, false))
				}
			}
		}
	}
	if traversals < 10000 {
		t.Errorf("%d traversals, want at least 10000", traversals)
	}
	t.Logf("%d traversals of %d automata in %v", traversals, len(worlds), time.Since(start).Round(time.Millisecond))
}

// diffLines shows two runs side by side from the first step they differ.
func diffLines(got, want []string) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "first difference at step %d\n", i)
	for j := i; j < len(got) || j < len(want); j++ {
		var g, w string
		if j < len(got) {
			g = got[j]
		}
		if j < len(want) {
			w = want[j]
		}
		fmt.Fprintf(&b, "  flow:  %s\n  other: %s\n", g, w)
	}
	return b.String()
}

// shippedWorlds are the six shipped automata, each with the binders its
// deployment uses and, behind them, the simulated services: the first time
// a traversal needs a reply to an operation it is fetched from the service
// and parsed by the service's binder, and every traversal gets a copy. With
// search set, casestudy.SearchMediator follows them.
func shippedWorlds(t *testing.T, search bool) []*world {
	store := photostore.New()
	pic, err := picasa.New(store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pic.Close() })
	fl, err := flickr.New(store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fl.Close() })
	da, err := slp.NewDirectoryAgent("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { da.Close() })
	da.Register("service:printer:lpr", slp.URLEntry{URL: "service:printer:lpr://printer1.example:515", Lifetime: 300})
	plus, err := soap.NewServer("127.0.0.1:0", "/soap", map[string]soap.Operation{
		"Plus": func(params []soap.Param) ([]soap.Param, *soap.Fault) {
			sum := 0
			for _, p := range params {
				n, _ := strconv.Atoi(p.Value)
				sum += n
			}
			return []soap.Param{{Name: "result", Value: strconv.Itoa(sum)}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { plus.Close() })

	routes, err := bind.ParseRoutes(casestudy.PicasaRoutesDoc)
	if err != nil {
		t.Fatal(err)
	}
	rest, err := bind.NewRESTBinder(routes)
	if err != nil {
		t.Fatal(err)
	}
	slpBinder, err := bind.NewSLPBinder()
	if err != nil {
		t.Fatal(err)
	}
	giopBinder, err := bind.NewGIOPBinder("calc", casestudy.AddUsage().Messages)
	if err != nil {
		t.Fatal(err)
	}
	xmlrpc := &bind.XMLRPCBinder{Path: flickr.XMLRPCPath, Defs: casestudy.FlickrUsage().Messages}

	var ids []string
	for _, p := range store.Search("tree", 3) {
		ids = append(ids, p.ID)
	}
	photo := func(rng *rand.Rand) string {
		if rng.IntN(6) == 0 {
			return "photo-none"
		}
		return ids[rng.IntN(len(ids))]
	}
	str := func(label, s string) *message.Field { return message.NewString(label, s) }
	flickrRequest := func(typed bool) func(rng *rand.Rand, op string) []*message.Field {
		return func(rng *rand.Rand, op string) []*message.Field {
			switch op {
			case casestudy.FlickrSearch:
				perPage := message.NewInt64("per_page", 3)
				if !typed {
					perPage = str("per_page", "3")
				}
				return []*message.Field{str("api_key", "k"), str("text", "tree"), perPage}
			case casestudy.FlickrAddComment:
				return []*message.Field{str("photo_id", photo(rng)), str("comment_text", "nice "+strconv.Itoa(rng.IntN(9)))}
			}
			return []*message.Field{str("api_key", "k"), str("photo_id", photo(rng))}
		}
	}
	picasaRequest := func(rng *rand.Rand, op string) []*message.Field {
		switch op {
		case casestudy.PicasaSearch:
			return []*message.Field{str("q", "tree"), str("max-results", "3")}
		case casestudy.PicasaAddComment:
			return []*message.Field{str("photo_id", photo(rng)), message.NewStruct("entry", str("title", "comment"), str("summary", "nice"))}
		}
		return []*message.Field{str("photo_id", photo(rng)), str("kind", "comment")}
	}
	discoveryRequest := func(rng *rand.Rand, op string) []*message.Field {
		st := "urn:schemas-upnp-org:service:Printer:1"
		if rng.IntN(6) == 0 {
			st = "urn:unmapped:thing"
		}
		return []*message.Field{str("st", st)}
	}
	addRequest := func(rng *rand.Rand, op string) []*message.Field {
		return []*message.Field{message.NewInt64("x", rng.Int64N(100)), message.NewInt64("y", rng.Int64N(100))}
	}

	const addPlusName, searchName = "Merge(AAdd, APlus)", "casestudy.SearchMediator"
	addPlus, err := automata.Merge(casestudy.AddUsage(), casestudy.PlusUsage(), automata.MergeOptions{
		Name: "Add+Plus", Equiv: casestudy.AddPlusEquivalence(),
	})
	if err != nil {
		t.Fatal(err)
	}
	type deployment struct {
		client, service bind.Binder
		addr            string
		request         func(rng *rand.Rand, op string) []*message.Field
		funcs           map[string]mtl.Func
	}
	deployments := map[string]deployment{
		"flickr-xmlrpc-to-picasa-rest.merged.xml": {xmlrpc, rest, pic.Addr(), flickrRequest(true), nil},
		"flickr-picasa-auto.merged.xml":           {xmlrpc, rest, pic.Addr(), flickrRequest(true), nil},
		"flickr-soap-to-picasa-rest.merged.xml":   {&bind.SOAPBinder{Path: flickr.SOAPPath}, rest, pic.Addr(), flickrRequest(false), nil},
		"picasa-to-flickr.merged.xml":             {rest, xmlrpc, fl.XMLRPCAddr(), picasaRequest, nil},
		"ssdp-to-slp.merged.xml":                  {&bind.SSDPBinder{}, slpBinder, da.Addr(), discoveryRequest, casestudy.DiscoveryFuncs()},
		addPlusName:                               {giopBinder, &bind.SOAPBinder{Path: "/soap"}, plus.Addr(), addRequest, nil},
		searchName:                                {xmlrpc, rest, pic.Addr(), flickrRequest(true), nil},
	}
	files, err := fs.Glob(models.FS, "*.merged.xml")
	if err != nil {
		t.Fatal(err)
	}
	names := append(files, addPlusName)
	if search {
		names = append(names, searchName)
	}
	var worlds []*world
	for _, name := range names {
		d, ok := deployments[name]
		if !ok {
			t.Fatalf("models/%s has no deployment in this test", name)
		}
		merged := addPlus
		switch name {
		case addPlusName:
		case searchName:
			merged = casestudy.SearchMediator()
		default:
			data, err := models.FS.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			if merged, err = automata.UnmarshalMerged(data); err != nil {
				t.Fatal(err)
			}
		}
		// What the binders made of a request and of a reply is kept, and
		// each traversal gets its own copy.
		requests, replies, refused := map[string]*message.Message{}, map[string]*message.Message{}, map[string]bool{}
		packets := map[string][]byte{}
		worlds = append(worlds, &world{
			name: name, merged: merged, funcs: d.funcs,
			client: d.client, service: d.service, packets: packets,
			request: func(rng *rand.Rand, op string) *message.Message {
				msg := message.New(op, d.request(rng, op)...)
				key := msg.String()
				if parsed, ok := requests[key]; ok {
					return parsed.Clone()
				}
				if packet, err := d.client.BuildRequest(op, msg); err == nil { // else an action the client's protocol has no form for
					if _, msg, err = d.client.ParseRequest(packet); err != nil {
						t.Fatalf("%s: the client binder does not read back its %s: %v", name, op, err)
					}
				}
				requests[key] = msg
				return msg.Clone()
			},
			reply: func(rng *rand.Rand, replyName, op string, sent *message.Message) *message.Message {
				parsed, ok := replies[op]
				if !ok {
					if refused[sent.String()] {
						return nil
					}
					packet := exchange(t, d.service, d.addr, op, sent)
					var err error
					if parsed, err = d.service.ParseReply(op, packet); err != nil {
						refused[sent.String()] = true
						return nil
					}
					replies[op], packets[op] = parsed, packet
				}
				msg := parsed.Clone()
				msg.Name = replyName
				return msg
			},
		})
	}
	return worlds
}

// exchange sends op to the simulated service at addr and returns its
// reply.
func exchange(t *testing.T, b bind.Binder, addr, op string, sent *message.Message) []byte {
	conn, err := network.Engine{DialTimeout: 5 * time.Second}.Dial(network.SemanticsOf(b.Framer()), addr, b.Framer())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	packet, err := b.BuildRequest(op, sent)
	if err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(packet); err != nil {
		t.Fatal(err)
	}
	reply, err := conn.Recv()
	if err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	return reply
}

// randomWorld is a small random merged automaton: a chain of hubs where
// the client picks one of up to three actions, each a segment of a
// γ-translated request, zero to two exchanges with services of colour 2
// or 3, and the client's reply, which loops back to its hub or moves on.
// There is a γ at every bicoloured state, and the γ programs read and
// write whatever is bound: the request, each reply, each other's output,
// other segments' messages under try, and the host.
func randomWorld(rng *rand.Rand, n int) *world {
	m := &automata.Merged{Name: fmt.Sprintf("random-%d", n), Color1: 1, Color2: 2, Start: "s0"}
	state := func() string {
		name := fmt.Sprintf("s%d", len(m.States))
		m.States = append(m.States, automata.MergedState{Name: name})
		return name
	}
	msg := func(from, to string, color int, act automata.Action, op string) {
		m.Transitions = append(m.Transitions, automata.MergedTransition{From: from, To: to, Kind: automata.KindMessage, Color: color, Action: act, Message: op})
	}
	var seen []string // states other segments may have bound
	hub := state()
	hubs := 1 + rng.IntN(3)
	for h := 0; h < hubs; h++ {
		next := ""
		actions := 1 + rng.IntN(3)
		for a := 0; a < actions; a++ {
			op := fmt.Sprintf("op%d.%d", h, a)
			to := hub
			if a == actions-1 {
				if next == "" {
					next = state()
				}
				to = next
			}
			req := state()
			msg(hub, req, 1, automata.Send, op)
			// The segment's first γ may read what another segment bound,
			// which this traversal may not have visited.
			other := ""
			if len(seen) > 0 && rng.IntN(3) == 0 {
				other = seen[rng.IntN(len(seen))]
			}
			gamma := func(from, to, last string) {
				lines := fillIn(rng, to, last, req)
				if other != "" {
					lines, other = append(lines, fmt.Sprintf("try %s.Msg.seen = %s.Msg.v", to, other)), ""
				}
				m.Transitions = append(m.Transitions, automata.MergedTransition{From: from, To: to, Kind: automata.KindGamma, MTL: strings.Join(lines, "\n")})
			}
			at, last := req, req
			calls := rng.IntN(3)
			for c := 0; c < calls; c++ {
				color := 2 + rng.IntN(2)
				out := state()
				gamma(at, out, last)
				svc := fmt.Sprintf("svc%d", rng.IntN(3))
				sent, got := state(), state()
				msg(out, sent, color, automata.Send, svc)
				msg(sent, got, color, automata.Receive, svc+".reply")
				at, last = got, got
				seen = append(seen, got)
			}
			reply := at
			if calls == 0 || rng.IntN(4) != 0 {
				reply = state()
				gamma(at, reply, last)
			}
			msg(reply, to, 1, automata.Receive, op+".reply")
			seen = append(seen, req)
		}
		hub = next
	}
	m.Final = []string{hub}
	return &world{
		name: m.Name, merged: m,
		request: func(rng *rand.Rand, op string) *message.Message {
			msg := message.New(op, message.NewString("x", fmt.Sprint("x", rng.IntN(9))))
			msg.ID = rng.Uint64N(1 << 16)
			if rng.IntN(8) != 0 {
				msg.Add(message.NewInt64("y", rng.Int64N(9)))
			}
			return msg
		},
		reply: func(rng *rand.Rand, name, op string, sent *message.Message) *message.Message {
			msg := message.New(name, message.NewString("v", fmt.Sprint(op, rng.IntN(9))),
				message.NewStruct("s", message.NewInt64("n", rng.Int64N(9))))
			if rng.IntN(8) != 0 {
				msg.Add(message.NewString("w", "w"))
			}
			return msg
		},
	}
}

// fillIn is a γ that writes the message of state to from the last
// message received (a reply, or the request) and from the request: copies,
// a literal, a field that may be missing, sometimes a write into the
// message it reads, and sometimes a sethost.
func fillIn(rng *rand.Rand, to, last, req string) []string {
	lines := []string{fmt.Sprintf("%s.Msg.a = %s.Msg.x", to, req)}
	if last != req {
		lines = append(lines, fmt.Sprintf("%s.Msg.b = %s.Msg.v", to, last), fmt.Sprintf("%s.Msg.c = %s.Msg.s.n", to, last))
		if rng.IntN(4) == 0 {
			lines = append(lines, fmt.Sprintf("%s.Msg.touched = \"yes\"", last))
		}
		if rng.IntN(3) == 0 {
			lines = append(lines, fmt.Sprintf("%s.Msg.d = %s.Msg.w", to, last))
		}
	}
	switch rng.IntN(4) {
	case 0:
		lines = append(lines, fmt.Sprintf("%s.Msg.e = %s.Msg.y", to, req))
	case 1:
		lines = append(lines, fmt.Sprintf("try %s.Msg.e = %s.Msg.y", to, req))
	case 2:
		lines = append(lines, fmt.Sprintf("sethost(\"host-%d\")", rng.IntN(3)))
	}
	return lines
}

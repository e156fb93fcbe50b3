package engine

import (
	"fmt"
	"strings"

	"starlink/internal/automata"
	"starlink/internal/message"
	"starlink/internal/mtl"
)

// kind is what the automaton does at a state, and what the step asks the
// shell to do there: the paper's three state types (§4) — receiving,
// sending and no-action (γ) — the first two split by the party they face.
type kind uint8

const (
	kRead  kind = iota // receive the client's request: a branch on its action
	kGamma             // run the state's translation
	kSend              // send a request to a service
	kRecv              // receive that service's reply
	kReply             // send the client its reply
	kDone              // a final state: the traversal is over
)

// arc is a transition as the step takes it, with what the trace says of it.
type arc struct {
	to    int    // the target state, an index of plan.steps
	op    string // the message of a message transition
	label string // "from->to"
	color int    // 0 for γ
}

// step is one state of the plan.
type step struct {
	kind  kind
	name  string
	arcs  []arc // a branch's alternatives, else the one transition
	gamma *mtl.CompiledProgram
	// offers names a branch's actions, "|" between, for the error of one
	// it does not offer; link is the service link of a send or receive, an
	// index of plan.links; share says whether no γ program can write into
	// a receive's reply, which may then be bound as the cache holds it, and
	// once whether its client reply is rendered once per cached reply.
	offers string
	link   int
	share  bool
	once   bool
}

// plan is a merged automaton compiled by New, one step per state.
type plan struct {
	steps []step
	start int
	links []int // the client-role colours, one service link each
	funcs map[string]mtl.Func
	// keeps are what the flow reads of each link's replies, by action: the
	// paths below the message bind.Projector.Project takes, "" for all.
	keeps []map[string][]string
}

// newPlan compiles m, which Merged.Validate has passed, for a mediator
// serving color server. It also refuses what a flow could not walk: a
// start that is not the client's request, and a state whose ways out are
// not all distinct client invocations, for the client's action picks one.
func newPlan(m *automata.Merged, server int, funcs map[string]mtl.Func) (*plan, error) {
	p := &plan{steps: make([]step, len(m.States)), funcs: funcs}
	index := make(map[string]int, len(m.States))
	handles := make([]string, len(m.States))
	for i, st := range m.States {
		index[st.Name], handles[i], p.steps[i].name = i, st.Name, st.Name
	}
	for _, name := range m.Final {
		p.steps[index[name]].kind = kDone
	}
	for _, t := range m.Transitions {
		from, to := index[t.From], index[t.To]
		a := arc{to: to, op: t.Message, label: t.From + "->" + t.To, color: t.Color}
		k, link := kRecv, 0
		var prog *mtl.CompiledProgram
		switch {
		case t.Kind == automata.KindGamma:
			parsed, err := mtl.Parse(t.MTL)
			if err == nil {
				prog, err = mtl.Compile(parsed, mtl.CompileOptions{Handles: handles, Funcs: funcs})
			}
			if err != nil {
				return nil, fmt.Errorf("%w: γ %s: %v", ErrConfig, a.label, err)
			}
			k = kGamma
		case t.Color == server && t.Action == automata.Send:
			k = kRead
		case t.Color == server:
			k = kReply
		default:
			if t.Action == automata.Send {
				k = kSend
			}
			// The link of a colour is where the colour is in links.
			for link < len(p.links) && p.links[link] != t.Color {
				link++
			}
			if link == len(p.links) {
				p.links = append(p.links, t.Color)
			}
		}
		st := &p.steps[from]
		switch {
		case len(st.arcs) > 0 && (k != kRead || st.kind != kRead):
			return nil, fmt.Errorf("%w: branch state %s mixes non-client-invocation alternatives", ErrConfig, t.From)
		case k == kRead && st.offer(t.Message) != nil:
			return nil, fmt.Errorf("%w: branch state %s offers %q twice", ErrConfig, t.From, t.Message)
		}
		st.kind, st.gamma, st.link, st.arcs = k, prog, link, append(st.arcs, a)
		st.offers = strings.TrimPrefix(st.offers+"|"+t.Message, "|")
	}
	p.start = index[m.Start]
	if p.steps[p.start].kind != kRead {
		return nil, fmt.Errorf("%w: start state %q does not read the client's request", ErrConfig, m.Start)
	}
	for i := range p.steps {
		st := &p.steps[i]
		st.share = st.kind == kRecv
		for _, g := range p.steps {
			st.share = st.share && (g.gamma == nil || g.gamma.ReadOnly(p.steps[st.arcs[0].to].name))
		}
		st.once = st.kind == kRecv && p.renderedOnce(st)
	}
	p.keeps = make([]map[string][]string, len(p.links))
	for i := range p.keeps {
		p.keeps[i] = map[string][]string{}
	}
	for _, send := range p.steps {
		if send.kind != kSend {
			continue
		}
		// The reply to a send is received at the state the send enters; a
		// reply received elsewhere is parsed whole.
		a := send.arcs[0]
		if recv := &p.steps[a.to]; recv.kind == kRecv && recv.link == send.link {
			keep := p.keeps[recv.link]
			keep[a.op] = append(keep[a.op], p.reads(recv)...)
		}
	}
	return p, nil
}

// reads are the paths of the reply a receive binds that the flow reads, as
// plan.keeps holds them: what any γ program reads of it (mtl.Reads), or all
// of it where it is not shared (step.share) — a program may write into it,
// or calls a deployment's function, handed the whole environment — or is
// sent on as it is. A reply parse keeps every top-level field, so a read of
// the child list or of a top-level label needs no path.
func (p *plan) reads(recv *step) []string {
	at := &p.steps[recv.arcs[0].to]
	if !recv.share || at.kind == kSend || at.kind == kReply {
		return []string{""}
	}
	var paths []string
	for _, g := range p.steps {
		if g.gamma == nil {
			continue
		}
		for _, r := range g.gamma.Reads(at.name) {
			switch {
			case r.Path == "" && r.Shape >= mtl.ReadValue:
				return []string{""}
			case r.Path != "" && (r.Shape > mtl.ReadLabel || strings.Contains(r.Path, ".")):
				paths = append(paths, r.Path)
			}
		}
	}
	return paths
}

// renderedOnce reports whether the rest of a flow from recv depends on its
// reply alone (DESIGN.md §13): γ steps, each a function of the reply, then
// the client reply, whose message no other γ writes, and a final state.
func (p *plan) renderedOnce(recv *step) bool {
	received, at := p.steps[recv.arcs[0].to].name, recv.arcs[0].to
	tail := map[*step]bool{}
	for p.steps[at].kind == kGamma {
		g := &p.steps[at]
		if tail[g] || !g.gamma.FunctionOf(received) {
			return false
		}
		tail[g], at = true, g.arcs[0].to
	}
	if p.steps[at].kind != kReply || p.steps[p.steps[at].arcs[0].to].kind != kDone {
		return false
	}
	for i := range p.steps {
		if g := &p.steps[i]; g.gamma != nil && !tail[g] && !g.gamma.ReadOnly(p.steps[at].name) {
			return false
		}
	}
	return true
}

// offer returns the arc of a branch that takes the client's action op, or nil.
func (st *step) offer(op string) *arc {
	for i := range st.arcs {
		if st.arcs[i].op == op {
			return &st.arcs[i]
		}
	}
	return nil
}

// action is what the step asks the shell to do next.
type action struct {
	kind kind
	link int              // kSend, kRecv: the service link
	op   string           // kSend: the operation; kRecv: the reply's name; kReply: the client's action
	msg  *message.Message // kSend, kReply: what to send
	// kReply: wire, sent instead of msg; keep, the rendering to fill.
	wire []byte
	keep *rendering
}

// event is the outcome of an action: the client's action and request for
// kRead, the service's reply for kRecv, cached when the response cache
// holds it too — a hit when a lookup found it, with what its entry kept —
// and nothing for a send, a client reply or a γ.
type event struct {
	op          string
	msg         *message.Message
	cached, hit bool
	kept        *rendering
}

// rendering is a client reply rendered at a receive that renders once, and
// the state, client action and request ID a hit must match to be sent it.
type rendering struct {
	state int
	op    string
	id    uint64
	wire  []byte
}

// flow is the step: one traversal of the plan, walked without I/O. The
// session, its shell, performs each action next returns and feeds the
// outcome back.
type flow struct {
	p     *plan
	at    int
	fired *arc // the transition the last next took
	env   *mtl.Env
	// bound are the per-state target messages, recycled between
	// traversals: a flow's parsed messages are bound over them, so by the
	// next traversal the recycled trees are unreferenced. pendingAction and
	// pending are the client request not yet answered, which a reply or a
	// fault answers.
	bound         []*message.Message
	pendingAction string
	pending       *message.Message
	// shared are the bound replies the response cache holds too: read-only,
	// so where the flow writes into one it writes into a copy (own).
	shared []*message.Message
	host   string
	// sent is the rendering a hit is sent; keep, the one it asks to keep.
	sent, keep *rendering
}

// reset starts a traversal of p whose γ programs keep their cache/getcache
// entries in cache, and returns its first action. The env and the bound
// messages of the traversal before are reused, whichever session it was of.
func (f *flow) reset(p *plan, cache *mtl.Cache) action {
	if f.env == nil {
		f.env = mtl.NewEnv(nil)
		f.env.Funcs = p.funcs
		f.bound = make([]*message.Message, len(p.steps))
		for i := range f.bound {
			f.bound[i] = message.New("")
		}
	}
	f.release()
	f.env.Cache = cache
	for i, msg := range f.bound {
		msg.Name, msg.Fields, msg.ID = "", msg.Fields[:0], 0
		f.env.Bind(p.steps[i].name, msg)
	}
	f.p, f.at, f.fired, f.host = p, p.start, nil, ""
	return f.act()
}

// release ends the traversal's hold on what it made and bound: the env is
// reset, which takes back every message the flow parsed into its store and
// every node its γ programs built, so a flow state given back holds none of
// them, nor a reply the cache shares.
func (f *flow) release() {
	if f.env != nil {
		f.env.Reset()
	}
	clear(f.shared)
	f.shared, f.pendingAction, f.pending = f.shared[:0], "", nil
	f.sent, f.keep = nil, nil
}

// next takes the transition ev picks out of the current state and returns
// what the state it enters asks for.
func (f *flow) next(ev event) (action, error) {
	st := &f.p.steps[f.at]
	a := &st.arcs[0]
	switch st.kind {
	case kRead:
		// The request is pending before it is checked, so even an
		// unexpected action is answered with a fault.
		f.pendingAction, f.pending = ev.op, ev.msg
		if a = st.offer(ev.op); a == nil {
			return action{}, fmt.Errorf("%w: got %q, automaton offers %s at %s",
				ErrUnexpectedAction, ev.op, st.offers, st.name)
		}
		f.env.Bind(f.p.steps[a.to].name, ev.msg)
	case kGamma:
		if f.sent != nil {
			break
		}
		f.env.Host = ""
		if err := st.gamma.Exec(f.env); err != nil {
			return action{}, fmt.Errorf("γ %s: %w", a.label, err)
		}
		if f.env.Host != "" {
			f.host = f.env.Host
		}
	case kRecv:
		msg := ev.msg
		if ev.cached {
			msg = f.bindCached(msg, st.share, a.op)
		}
		f.env.Bind(f.p.steps[a.to].name, msg)
		if r := ev.kept; st.once && ev.hit && f.pending != nil {
			switch {
			case r == nil:
				f.keep = &rendering{state: f.at, op: f.pendingAction, id: f.pending.ID}
			case r.state == f.at && r.op == f.pendingAction && r.id == f.pending.ID:
				f.sent = r
			}
		}
	case kReply:
		f.pendingAction, f.pending = "", nil
	}
	f.at, f.fired = a.to, a
	return f.act(), nil
}

// act is what the current state asks for. A send and a client reply send
// what the preceding γ composed, named after the transition's message; a
// client reply answers the pending request, whose ID it carries.
func (f *flow) act() action {
	st := &f.p.steps[f.at]
	act := action{kind: st.kind, link: st.link}
	switch st.kind {
	case kRecv:
		act.op = st.arcs[0].op
	case kSend, kReply:
		act.op, act.msg = st.arcs[0].op, f.own(f.env.Message(st.name))
		act.msg.Name = act.op
		if st.kind == kReply {
			act.op, act.keep = f.pendingAction, f.keep
			if f.sent != nil {
				act.wire = f.sent.wire
			}
			if f.pending != nil {
				act.msg.ID = f.pending.ID
			}
		}
	}
	return act
}

// own returns msg, or a copy of its header when msg is a reply the cache
// holds, so that naming it and giving it an ID leave the shared one as it
// is.
func (f *flow) own(msg *message.Message) *message.Message {
	for _, r := range f.shared {
		if r == msg {
			cp := *msg
			return &cp
		}
	}
	return msg
}

// bindCached returns what the flow binds of a reply the cache holds: the
// reply itself where share says no γ program can write into it —
// remembered in shared, named by a header copy if its name is not name —
// and else a deep copy of its own.
func (f *flow) bindCached(reply *message.Message, share bool, name string) *message.Message {
	if !share {
		reply = reply.Clone()
	} else {
		f.shared = append(f.shared, reply)
		if reply.Name == name {
			return reply
		}
		reply = f.own(reply)
	}
	reply.Name = name
	return reply
}

package engine

import (
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"time"

	"starlink/internal/testutil"
)

// The link is held to a reference model the way the flow is
// (model_test.go): refLink below is the service exchange written the slow
// and obvious way, as the retry loop it was before it became a machine,
// and TestLinkMatchesModel drives both through the same seeded worlds and
// compares every action each asks for. The world checks the properties of
// DESIGN.md §8 and §16 as it performs the actions.

var linkSeed = flag.Uint64("link.seed", 1, "seed of TestLinkMatchesModel's worlds")

var (
	errReset   = errors.New("connection reset")
	errRefused = errors.New("connection refused")
	errGarbled = errors.New("garbled")
	errClosed  = errors.New("mediator closing")
	errFlow    = errors.New("the flow failed")
)

var linkReplicas = []string{"r1", "r2", "r3"}

// linkWorld is what a link's actions meet: a virtual clock and a flow
// budget, a pool whose checkouts may fail, a connection that may be lost
// or garble a reply, a response cache whose leader may fail, and a
// mediator that may start stopping. Every outcome is drawn from its seed,
// so two worlds of one seed answer the same actions the same way.
type linkWorld struct {
	rng      *rand.Rand
	attempts int
	balanced bool
	serve    bool   // a followed leader delivers
	waits    [2]int // follower waits that fell back, and that were served
	stops    int    // the action at which the mediator starts stopping, or -1
	log      []string
	errs     []string

	now, deadline time.Duration
	actions       int
	stopping      bool
	// What the world knows of the link: a connection held, to addr, with a
	// reply that may still come; a request sent this flow; a flight led.
	held, replyPending, sent, flightOpen bool
	addr                                 string
	// The phase under way: a receive or a send, and the faults and sleeps
	// it met; and the replica the next checkout must avoid.
	receiving      bool
	faults, sleeps int
	mustAvoid      string
}

func newLinkWorld(seed uint64) *linkWorld {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	w := &linkWorld{rng: rng, attempts: rng.IntN(4), balanced: rng.IntN(2) == 0, stops: -1}
	if rng.IntN(8) == 0 {
		w.stops = rng.IntN(30)
	}
	return w
}

func (w *linkWorld) left() time.Duration { return w.deadline - w.now }

// event stamps an event with the budget left.
func (w *linkWorld) event(ev linkEvent) linkEvent {
	ev.left = w.left()
	return ev
}

func (w *linkWorld) spend(d time.Duration) { w.now += max(d, 0) }

func (w *linkWorld) chance(p float64) bool { return w.rng.Float64() < p }

func (w *linkWorld) upTo(d time.Duration) time.Duration {
	return time.Duration(w.rng.Int64N(int64(d) + 1))
}

func (w *linkWorld) failf(format string, args ...any) {
	w.errs = append(w.errs, fmt.Sprintf("action %d: ", w.actions)+fmt.Sprintf(format, args...))
}

// fault is a transport fault, with the backoff drawn for its retry: now
// and then exactly the budget left, which the link must not sleep.
func (w *linkWorld) fault(kind linkEventKind, err error) linkEvent {
	w.faults++
	jitter := time.Millisecond + w.upTo(30*time.Millisecond)
	if w.chance(0.1) {
		jitter = max(w.left(), 0)
	}
	return w.event(linkEvent{kind: kind, err: err, jitter: jitter})
}

// do performs one action of the link, checking it, and returns its outcome.
func (w *linkWorld) do(act linkAction) linkEvent {
	w.log = append(w.log, renderLinkAction(act))
	w.actions++
	if w.actions == w.stops {
		w.stopping = true
	}
	switch act.kind {
	case aWait:
		if w.waits[b2i(w.serve)]++; w.serve {
			w.spend(w.upTo(act.d / 2))
			return w.event(linkEvent{kind: evFlightDone})
		}
		w.spend(w.upTo(act.d))
		return w.event(linkEvent{kind: evFlightFailed})
	case aBuild:
		if w.chance(0.03) {
			return w.event(linkEvent{kind: evProtocolFault, err: errGarbled})
		}
		return w.event(linkEvent{kind: evBuilt})
	case aCheckout:
		if w.mustAvoid != "" && act.avoid != w.mustAvoid {
			w.failf("checkout avoids %q, but replica %q just faulted", act.avoid, w.mustAvoid)
		}
		w.mustAvoid = ""
		if w.held {
			if !w.receiving && w.chance(0.05) {
				return w.event(linkEvent{kind: evRetarget})
			}
			return w.event(linkEvent{kind: evCheckedOut, addr: w.addr, balanced: w.balanced})
		}
		if w.stopping {
			return w.event(linkEvent{kind: evStopping, err: errClosed})
		}
		addr := "target"
		if w.balanced {
			for addr = act.avoid; addr == act.avoid; {
				addr = linkReplicas[w.rng.IntN(len(linkReplicas))]
			}
		}
		took := w.upTo(5 * time.Millisecond)
		if took > act.d || w.chance(0.15) {
			w.spend(min(took, max(act.d, 0)))
			w.noteFault(addr)
			ev := w.fault(evCheckoutFailed, errRefused)
			ev.addr, ev.balanced = addr, w.balanced
			return ev
		}
		w.spend(took)
		w.held, w.addr, w.replyPending = true, addr, false
		return w.event(linkEvent{kind: evCheckedOut, addr: addr, balanced: w.balanced})
	case aWrite, aRead:
		if act.kind == aWrite {
			if w.receiving && (w.faults == 0 || !w.sent) {
				w.failf("a receive writes with %d faults before it and a request sent: %v", w.faults, w.sent)
			}
			if w.replyPending {
				w.failf("a request is written where an earlier reply may still arrive")
			}
			w.replyPending = true
		}
		took := w.upTo(2 * time.Millisecond)
		if act.kind == aRead {
			took = w.upTo(40 * time.Millisecond)
		}
		switch {
		case took > act.d || w.chance(0.12):
			w.spend(min(took, max(act.d, 0)))
			w.noteFault(w.addr)
			ev := w.fault(evTransportFault, errReset)
			ev.addr, ev.balanced = w.addr, w.balanced
			return ev
		case w.chance(0.02):
			w.spend(took)
			return w.event(linkEvent{kind: evProtocolFault, err: errGarbled})
		}
		w.spend(took)
		if act.kind == aRead {
			w.replyPending = false
			return w.event(linkEvent{kind: evRead})
		}
		if !w.receiving {
			w.sent = true
		}
		return w.event(linkEvent{kind: evWritten})
	case aParse:
		if w.chance(0.03) {
			return w.event(linkEvent{kind: evProtocolFault, err: errGarbled})
		}
		return w.event(linkEvent{kind: evParsed})
	case aRelease:
		if !w.held {
			w.failf("release with no connection held")
		}
		if act.fate == connPut && w.replyPending {
			w.failf("a connection with a reply pending is put back")
		}
		w.held, w.replyPending = false, false
	case aFulfil, aAbort:
		if !w.flightOpen {
			w.failf("%s with no flight led", renderLinkAction(act))
		}
		w.flightOpen = false
	case aSleep:
		w.sleeps++
		if act.d >= w.left() {
			w.failf("a sleep of %v with %v of the budget left", act.d, w.left())
		}
		if w.faults > w.attempts+1 || w.sleeps > w.attempts {
			w.failf("%d faults and %d sleeps with %d attempts", w.faults, w.sleeps, w.attempts)
		}
		if w.receiving && !w.sent {
			w.failf("a receive with nothing sent retries")
		}
		if w.stopping {
			return w.event(linkEvent{kind: evStopping})
		}
		w.spend(act.d)
	case aDone, aFail:
		w.failf("%s performed", renderLinkAction(act))
	}
	return w.event(linkEvent{kind: evAck})
}

// noteFault remembers a balanced replica that faulted, for the next
// checkout to avoid.
func (w *linkWorld) noteFault(addr string) {
	if w.balanced {
		w.mustAvoid = addr
	}
}

// start begins a phase and says how it starts.
func (w *linkWorld) start(kind linkEventKind) linkEvent {
	w.receiving, w.faults, w.sleeps = kind == evRecv, 0, 0
	switch kind {
	case evLead:
		w.flightOpen = true
	case evFollow:
		w.serve = w.chance(0.5)
	}
	w.log = append(w.log, fmt.Sprintf("start %d", kind))
	return w.event(linkEvent{kind: kind})
}

// ended checks what ended a phase.
func (w *linkWorld) ended(act linkAction) {
	w.log = append(w.log, renderLinkAction(act))
	if act.kind != aDone && act.kind != aFail {
		w.failf("a phase ended with %s", renderLinkAction(act))
	}
	if act.kind == aFail && w.flightOpen {
		w.failf("failed with a flight led and not aborted")
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func renderLinkAction(act linkAction) string {
	var b strings.Builder
	fmt.Fprintf(&b, "action %d", act.kind)
	if act.d != 0 {
		fmt.Fprintf(&b, " d=%v", act.d)
	}
	if act.avoid != "" {
		fmt.Fprintf(&b, " avoid=%s", act.avoid)
	}
	if act.fate != connKept {
		fmt.Fprintf(&b, " fate=%d", act.fate)
	}
	if act.cached {
		b.WriteString(" cached")
	}
	if act.why != failNone {
		fmt.Fprintf(&b, " why=%d", act.why)
	}
	if act.err != nil {
		fmt.Fprintf(&b, " err=%v", act.err)
	}
	return b.String()
}

// linkDriver is what a session's flows do with a link: phases and flow
// ends. The machine and the model each implement it.
type linkDriver interface {
	phase(start linkEvent) linkAction
	end(ev linkEvent) linkAction
}

type machineDriver struct {
	l *link
	w *linkWorld
}

func (d *machineDriver) phase(start linkEvent) linkAction {
	act := d.l.next(start)
	for act.kind != aDone && act.kind != aFail {
		act = d.l.next(d.w.do(act))
	}
	return act
}

func (d *machineDriver) end(ev linkEvent) linkAction { return d.phase(ev) }

// session plays one seeded session with a link: flows of exchanges, each
// a send as the cache finds it and its receive, or, first in a flow, a
// receive with nothing sent, until a phase fails or the flows run out.
func (w *linkWorld) session(d linkDriver) {
	budget := 10*time.Millisecond + w.upTo(190*time.Millisecond)
	flows := 1 + w.rng.IntN(3)
	for f := 0; f < flows; f++ {
		w.deadline, w.sent = w.now+budget, false
		var failed error
		for x, n := 0, 1+w.rng.IntN(3); x < n && failed == nil; x++ {
			kind := []linkEventKind{evSend, evHit, evLead, evFollow, evRecv}[w.rng.IntN(5)]
			if kind == evRecv && x > 0 {
				kind = evSend
			}
			act := d.phase(w.start(kind))
			w.ended(act)
			if act.kind == aDone && kind != evRecv {
				if w.chance(0.03) {
					break // now and then a flow ends between a send and its receive
				}
				act = d.phase(w.start(evRecv))
				w.ended(act)
			}
			if act.kind == aFail {
				failed = errFlow
			}
		}
		w.log = append(w.log, "flow end")
		w.ended(d.end(w.event(linkEvent{kind: evFlowEnd, err: failed})))
		if w.flightOpen {
			w.failf("the flow ended with a flight led")
		}
		if w.held {
			w.failf("the flow ended with a connection held")
		}
		if failed != nil {
			break
		}
		w.now, w.mustAvoid = w.now+w.upTo(time.Second), ""
	}
}

// refLink is the link the obvious way: the retry loop as a loop, each
// decision where it is made, no state machine.
type refLink struct {
	w              *linkWorld
	attempts       int
	exchange, dial time.Duration
	left           time.Duration // the budget the last event said was left

	held, pending, balanced bool
	addr, avoid             string
	sent                    bool
	role                    cacheRole
}

var linkDone = linkAction{kind: aDone}

func (r *refLink) do(act linkAction) linkEvent {
	ev := r.w.do(act)
	r.left = ev.left
	return ev
}

func (r *refLink) phase(start linkEvent) linkAction {
	r.left = start.left
	if start.kind == evRecv {
		return r.recv()
	}
	return r.send(start.kind)
}

func (r *refLink) send(kind linkEventKind) linkAction {
	r.sent, r.role = false, roleNone
	switch kind {
	case evHit:
		r.role = roleHit
		return linkDone
	case evLead:
		r.role = roleLead
	case evFollow:
		if r.do(linkAction{kind: aWait, d: min(r.exchange, r.left)}).kind == evFlightDone {
			r.role = roleHit
			return linkDone
		}
		r.role = roleStore
	}
	if ev := r.do(linkAction{kind: aBuild}); ev.kind == evProtocolFault {
		return r.fail(failBuild, ev.err)
	}
	return r.retryLoop(false)
}

func (r *refLink) recv() linkAction {
	if r.role == roleHit {
		r.role = roleNone
		return linkAction{kind: aDone, cached: true}
	}
	return r.retryLoop(true)
}

// retryLoop is one phase of an exchange: attempts while the budget lasts,
// each a checkout, a write unless the request is on the connection, and
// for a receive a read.
func (r *refLink) retryLoop(receiving bool) linkAction {
	var cause error
	wrote := receiving
	for attempt := 0; ; attempt++ {
		if r.left <= 0 {
			return r.fail(failDeadline, cause)
		}
		ev := r.do(linkAction{kind: aCheckout, avoid: r.avoid, d: min(r.dial, r.left)})
		for ev.kind == evRetarget {
			r.release(r.giveBack())
			ev = r.do(linkAction{kind: aCheckout, avoid: r.avoid, d: min(r.dial, r.left)})
		}
		if ev.kind == evStopping {
			if ev.err != nil {
				cause = ev.err
			}
			return r.fail(failExhausted, cause)
		}
		faulted, balanced := ev.addr, ev.balanced
		if ev.kind == evCheckedOut {
			r.held, r.addr, r.balanced = true, ev.addr, ev.balanced
			faulted, balanced = r.addr, r.balanced
			if !wrote {
				r.pending = true
				if ev = r.do(linkAction{kind: aWrite, d: min(r.exchange, r.left)}); ev.kind == evWritten {
					wrote = true
					if !receiving {
						r.sent = true
						return linkDone
					}
				}
			}
			if ev.kind == evCheckedOut || ev.kind == evWritten {
				if ev = r.do(linkAction{kind: aRead, d: min(r.exchange, r.left)}); ev.kind == evRead {
					return r.reply()
				}
			}
		}
		if ev.kind == evProtocolFault {
			return r.fail(failProtocol, ev.err)
		}
		// A transport fault, or a checkout that failed.
		faultLeft := ev.left
		if ev.kind == evTransportFault {
			r.release(connFlush)
			wrote = false
		}
		if balanced {
			r.avoid = faulted
			r.do(linkAction{kind: aReport, err: ev.err})
		}
		cause = ev.err
		if attempt >= r.attempts || receiving && !r.sent {
			return r.fail(failExhausted, cause)
		}
		if ev.jitter >= faultLeft {
			return r.fail(failDeadline, cause)
		}
		if r.do(linkAction{kind: aSleep, d: ev.jitter}).kind == evStopping {
			return r.fail(failExhausted, cause)
		}
	}
}

// reply is what follows a reply read: the replica is reported healthy, the
// reply parsed and handed to the cache where it keeps it.
func (r *refLink) reply() linkAction {
	r.pending, r.avoid = false, ""
	if r.balanced {
		r.do(linkAction{kind: aReport})
	}
	cached := r.role != roleNone
	if ev := r.do(linkAction{kind: aParse, cached: cached}); ev.kind == evProtocolFault {
		return r.fail(failParse, ev.err)
	}
	switch r.role {
	case roleLead:
		r.do(linkAction{kind: aFulfil})
	case roleStore:
		r.do(linkAction{kind: aStore})
	}
	r.role = roleNone
	return linkAction{kind: aDone, cached: cached}
}

func (r *refLink) fail(why failure, cause error) linkAction {
	if r.role == roleLead {
		r.do(linkAction{kind: aAbort, err: cause})
	}
	r.role = roleNone
	return linkAction{kind: aFail, why: why, err: cause}
}

func (r *refLink) giveBack() connFate {
	if r.pending {
		return connDiscard
	}
	return connPut
}

func (r *refLink) release(fate connFate) {
	r.do(linkAction{kind: aRelease, fate: fate})
	r.held, r.pending = false, false
}

func (r *refLink) end(ev linkEvent) linkAction {
	r.left = ev.left
	if r.held {
		r.release(r.giveBack())
	}
	if r.role == roleLead {
		r.do(linkAction{kind: aAbort, err: ev.err})
	}
	r.role, r.sent, r.avoid = roleNone, false, ""
	return linkDone
}

// TestLinkMatchesModel drives the link and the reference model through
// 10 000 seeded worlds — a literal target or a replica set, every cache
// role, Attempts 0 to 3 — and requires the same actions, in the same
// order, and the properties the world checks, from both.
func TestLinkMatchesModel(t *testing.T) {
	const exchange, dial = 50 * time.Millisecond, 10 * time.Millisecond
	var roles [5]int
	var fails [failDeadline + 1]int
	var attempts [4][2]int // worlds by Attempts and balanced
	var waits [2]int
	for i := uint64(0); i < 10_000; i++ {
		seed := *linkSeed + i
		wm, wr := newLinkWorld(seed), newLinkWorld(seed)
		l := &link{p: &linkPolicy{retry: RetryPolicy{Attempts: wm.attempts}, exchange: exchange, dial: dial}}
		wm.session(&machineDriver{l: l, w: wm})
		attempts[wm.attempts][b2i(wm.balanced)]++
		waits[0], waits[1] = waits[0]+wm.waits[0], waits[1]+wm.waits[1]
		wr.session(&refLink{w: wr, attempts: wr.attempts, exchange: exchange, dial: dial})
		for _, w := range []*linkWorld{wm, wr} {
			if len(w.errs) > 0 {
				t.Fatalf("seed %d: %s\n%s", seed, strings.Join(w.errs, "\n"), strings.Join(w.log, "\n"))
			}
		}
		if !slices.Equal(wm.log, wr.log) {
			t.Fatalf("seed %d: the link (flow:) and the model (other:) part:\n%s", seed, diffLines(wm.log, wr.log))
		}
		for _, line := range wm.log {
			var k, why int
			if _, err := fmt.Sscanf(line, "start %d", &k); err == nil && k < len(roles) {
				roles[k]++
			}
			if i := strings.Index(line, " why="); i >= 0 {
				if _, err := fmt.Sscanf(line[i+1:], "why=%d", &why); err == nil {
					fails[why]++
				}
			}
		}
	}
	for k, n := range roles {
		if n == 0 {
			t.Errorf("no phase started with event %d", k)
		}
	}
	for why := failBuild; why <= failDeadline; why++ {
		if fails[why] == 0 {
			t.Errorf("no exchange failed for reason %d", why)
		}
	}
	for n, by := range attempts {
		if by[0] == 0 || by[1] == 0 {
			t.Errorf("Attempts %d: %d worlds with a literal target and %d with a replica set", n, by[0], by[1])
		}
	}
	if waits[0] == 0 || waits[1] == 0 {
		t.Errorf("followers fell back %d times and were served %d times", waits[0], waits[1])
	}
	t.Logf("phases by start %v, failures by reason %v, worlds by Attempts and target %v, follower waits %v",
		roles, fails[1:], attempts, waits)
}

// TestLinkStepAllocBudget: the machine allocates nothing. A led exchange
// to a replica set that loses its reply, backs off, replays and is
// fulfilled, then a flow end that gives the connection back, are fed event
// by event.
func TestLinkStepAllocBudget(t *testing.T) {
	script := []linkEvent{
		{kind: evLead, left: time.Second},
		{kind: evBuilt, left: time.Second},
		{kind: evCheckedOut, left: time.Second, addr: "r1", balanced: true},
		{kind: evWritten, left: time.Second},
		{kind: evRecv, left: time.Second},
		{kind: evCheckedOut, left: time.Second, addr: "r1", balanced: true},
		{kind: evTransportFault, left: time.Second, err: errReset, jitter: time.Millisecond},
		{kind: evAck, left: time.Second}, // release
		{kind: evAck, left: time.Second}, // report
		{kind: evAck, left: time.Second}, // sleep
		{kind: evCheckedOut, left: time.Second, addr: "r2", balanced: true},
		{kind: evWritten, left: time.Second},
		{kind: evRead, left: time.Second},
		{kind: evAck, left: time.Second}, // report
		{kind: evParsed, left: time.Second},
		{kind: evAck, left: time.Second}, // fulfil
		{kind: evFlowEnd, left: time.Second},
		{kind: evAck, left: time.Second}, // release
	}
	l := link{p: &linkPolicy{retry: RetryPolicy{Attempts: 2}, exchange: time.Second, dial: time.Second}}
	var last linkActionKind
	feed := func() {
		for _, ev := range script {
			last = l.next(ev).kind
		}
	}
	feed()
	if last != aDone {
		t.Fatalf("the script ends with action %d, want done", last)
	}
	allocs := testing.AllocsPerRun(1000, feed)
	if testutil.RaceEnabled {
		t.Skipf("race detector enabled; measured %.1f allocations per script, unasserted", allocs)
	}
	if allocs != 0 {
		t.Errorf("%.1f allocations per script of %d events, want 0", allocs, len(script))
	}
}

package engine

import "time"

// The link is the step of one service exchange: a machine that makes every
// decision of the service side — retry or fail, replay, which replica to
// avoid, the response cache's part, the budget, what becomes of a
// connection, which error ends the exchange — and touches no socket, pool,
// cache or clock. The shell, serviceLink in engine.go, performs each action
// the machine returns and feeds the outcome back as the next event, stamped
// with what is left of the flow's budget (DESIGN.md §8).

// linkEventKind is what happened.
type linkEventKind uint8

const (
	// A send starts as the response cache finds it: not cached, answered
	// (hit), fetched for a flight this exchange leads, or being fetched by
	// the leader of another (follow).
	evSend linkEventKind = iota
	evHit
	evLead
	evFollow
	evRecv // a receive starts
	evFlightDone
	evFlightFailed // the followed leader failed, or the wait ran out
	evBuilt
	evCheckedOut
	evCheckoutFailed
	evRetarget // the held connection points where the flow no longer talks
	evWritten
	evRead
	evParsed
	evTransportFault // the connection is lost; a retry may get round it
	evProtocolFault  // building, writing, reading or parsing failed for good
	evStopping       // the mediator is stopping: no checkout, no sleep
	evAck            // a release, report, sleep, abort or cache action was done
	evFlowEnd
)

// linkActionKind is what the machine asks the shell to do.
type linkActionKind uint8

// linkEvent is one event, a value, with the budget left when it was fed
// in. A fault carries the backoff RetryPolicy.delay drew for a retry, and a
// fault or a checkout the replica and whether a set picked it.
type linkEvent struct {
	kind         linkEventKind
	left, jitter time.Duration
	err          error
	addr         string
	balanced     bool
}

const (
	aDone     linkActionKind = iota // the phase is over; a receive's reply is cached or not
	aWait                           // wait at most d for the followed flight
	aBuild                          // build the request
	aCheckout                       // get a connection within d, avoiding a replica
	aWrite                          // write the request within d
	aRead                           // read the reply within d
	aParse                          // parse the reply, whole if cached, or as the flow reads it
	aFulfil                         // fulfil the led flight with the reply
	aStore                          // store the reply in the cache
	aRelease                        // give the held connection up
	aReport                         // report the replica's outcome to its set: err, or a reply
	aAbort                          // abort the led flight
	aSleep                          // back off d
	aFail                           // the exchange failed, for why
)

// connFate is what becomes of a connection given up.
type connFate uint8

const (
	connKept    connFate = iota
	connPut              // back to the pool
	connDiscard          // closed: a reply may still be on its way
	connFlush            // closed with its key's idle ones: its endpoint failed
)

// failure is why an exchange failed (serviceLink.failed).
type failure uint8

const (
	failNone failure = iota
	failBuild
	failProtocol
	failParse
	failExhausted
	failDeadline
)

// linkAction is one action, a value.
type linkAction struct {
	kind   linkActionKind
	d      time.Duration
	avoid  string
	fate   connFate
	cached bool
	why    failure
	err    error
}

// cacheRole is an exchange's part in the response cache.
type cacheRole uint8

const (
	roleNone  cacheRole = iota
	roleHit             // the reply is in hand: nothing goes out
	roleLead            // the fetched reply fulfils the flight
	roleStore           // the fetched reply is stored: the followed leader failed
)

// linkPolicy is the part of the mediator's configuration its links share:
// the retry policy and the bounds of an attempt and of a checkout.
type linkPolicy struct {
	retry          RetryPolicy
	exchange, dial time.Duration
}

// link is the machine: its policy and its state, of one flow. It is laid
// out small, for a flow state holds one per service colour.
type link struct {
	p         *linkPolicy
	receiving bool           // the phase: the receive, else the send
	step      linkActionKind // the mechanism the exchange needs next
	asked     linkActionKind
	role      cacheRole
	// held: a connection is checked out, which balanced says a replica set
	// picked; pending: a reply may still arrive on it; wrote: the exchange's
	// request is on it; sent: the request went out in this flow.
	held, pending, balanced, wrote, sent bool
	// What is owed before the next step: a connection to give up, a report
	// of a reply (answered) or of cause, an aborted flight, a failure with
	// its cause, a backoff of jitter.
	drop                           connFate
	report, answered, abort, sleep bool
	fail                           failure
	attempt                        int32
	left, jitter                   time.Duration
	avoid                          string
	cause                          error
}

// replays is the replay rule (DESIGN.md §8): a reply lost to a transport
// fault is asked for again by writing the exchange's request once more on
// a fresh connection, which is possible only when the request went out. A
// receive with nothing sent does not replay; its first fault is final.
func (l *link) replays() bool { return l.sent }

// fits is the budget rule: a step that may take d begins only if it ends
// before the flow's deadline. An attempt begins while any budget is left,
// fits(0), and a backoff sleeps only if the retry after it has some.
func (l *link) fits(d time.Duration) bool { return d < l.left }

// clip bounds a step's limit by the budget left.
func (l *link) clip(limit time.Duration) time.Duration { return min(limit, l.left) }

// next takes ev and returns what the link does next.
func (l *link) next(ev linkEvent) linkAction {
	l.left = ev.left
	switch ev.kind {
	case evSend, evHit, evLead, evFollow:
		l.receiving, l.attempt, l.wrote, l.sent, l.cause = false, 0, false, false, nil
		l.role, l.step = roleNone, aBuild
		switch ev.kind {
		case evHit:
			l.role, l.step = roleHit, aDone
		case evLead:
			l.role = roleLead
		case evFollow:
			l.step = aWait
		}
	case evRecv:
		l.receiving, l.attempt, l.wrote, l.cause, l.step = true, 0, true, nil, aDone
		if l.role != roleHit {
			l.begin()
		}
	case evFlightDone:
		l.role, l.step = roleHit, aDone
	case evFlightFailed:
		l.role, l.step = roleStore, aBuild
	case evBuilt:
		l.begin()
	case evCheckedOut:
		l.held, l.balanced, l.step = true, ev.balanced, aWrite
		if l.wrote {
			l.step = aRead
		}
	case evRetarget:
		l.drop = l.giveBack()
	case evWritten:
		l.wrote, l.step = true, aRead
		if !l.receiving {
			l.sent, l.step = true, aDone
		}
	case evRead:
		l.pending, l.avoid, l.step = false, "", aParse
		l.report, l.answered = l.balanced, true
	case evParsed:
		l.step = [...]linkActionKind{roleNone: aDone, roleLead: aFulfil, roleStore: aStore}[l.role]
	case evTransportFault:
		l.drop, l.wrote = connFlush, false
		l.lost(ev)
	case evCheckoutFailed:
		l.lost(ev)
	case evProtocolFault:
		why := failProtocol
		switch l.asked {
		case aBuild:
			why = failBuild
		case aParse:
			why = failParse
		}
		l.failWith(why, ev.err)
	case evStopping:
		l.failWith(failExhausted, ev.err)
	case evAck:
		switch l.asked {
		case aSleep:
			l.attempt++
			l.begin()
		case aFulfil, aStore:
			l.step = aDone
		}
	case evFlowEnd:
		if l.held {
			l.drop = l.giveBack() // a connection is held for a flow, not a session
		}
		l.abort = l.role == roleLead
		l.role, l.step, l.sent, l.cause, l.avoid = roleNone, aDone, false, ev.err, ""
	}
	act := l.decide()
	l.asked = act.kind
	return act
}

// begin starts an attempt at a checkout, if any budget is left.
func (l *link) begin() {
	if l.step = aCheckout; !l.fits(0) {
		l.failWith(failDeadline, nil)
	}
}

// lost takes a fault of a replica: a balanced one is reported and avoided
// next, and the exchange retried after a backoff while the attempts, the
// replay rule and the budget allow.
func (l *link) lost(ev linkEvent) {
	if ev.balanced {
		l.avoid, l.report, l.answered = ev.addr, true, false
	}
	l.cause, l.step = ev.err, aCheckout
	switch {
	case int(l.attempt) >= l.p.retry.Attempts || l.receiving && !l.replays():
		l.failWith(failExhausted, nil)
	case !l.fits(ev.jitter):
		l.failWith(failDeadline, nil)
	default:
		l.sleep, l.jitter = true, ev.jitter
	}
}

// failWith ends the exchange for why; a flight it leads is aborted first.
// A nil err keeps the cause already known.
func (l *link) failWith(why failure, err error) {
	l.fail, l.abort = why, l.role == roleLead
	if err != nil {
		l.cause = err
	}
}

// giveBack is the fate of a healthy connection given up: back to the pool,
// unless a reply may still arrive on it for the next user to read.
func (l *link) giveBack() connFate {
	if l.pending {
		return connDiscard
	}
	return connPut
}

// decide returns what is owed first, else the exchange's next step.
func (l *link) decide() linkAction {
	switch {
	case l.drop != connKept:
		fate := l.drop
		l.drop, l.held, l.pending = connKept, false, false
		return linkAction{kind: aRelease, fate: fate}
	case l.report:
		l.report = false
		if l.answered {
			return linkAction{kind: aReport}
		}
		return linkAction{kind: aReport, err: l.cause}
	case l.abort:
		l.abort, l.role = false, roleNone
		return linkAction{kind: aAbort, err: l.cause}
	case l.fail != failNone:
		why := l.fail
		l.fail, l.sleep, l.role, l.step = failNone, false, roleNone, aDone
		return linkAction{kind: aFail, why: why, err: l.cause}
	case l.sleep:
		l.sleep = false
		return linkAction{kind: aSleep, d: l.jitter}
	}
	act := linkAction{kind: l.step}
	switch l.step {
	case aWait, aWrite, aRead:
		act.d = l.clip(l.p.exchange)
		l.pending = l.pending || l.step == aWrite
	case aCheckout:
		act.avoid, act.d = l.avoid, l.clip(l.p.dial)
	case aParse:
		act.cached = l.role != roleNone // a reply the cache is to hold outlives the flow, whole
	case aDone:
		if l.receiving {
			act.cached, l.role = l.role != roleNone, roleNone
		}
	}
	return act
}

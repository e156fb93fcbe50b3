package gateway

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"starlink/internal/bind"
	"starlink/internal/network"
	"starlink/internal/protocol/httpwire"
)

// Errors reported by the gateway.
var (
	// ErrConfig is wrapped by configuration validation failures.
	ErrConfig = errors.New("gateway: invalid configuration")
	// ErrNoRoute is returned by Swap for an unknown route name.
	ErrNoRoute = errors.New("gateway: no such route")
	// ErrClosed is returned by Start/Swap after Close.
	ErrClosed = errors.New("gateway: closed")
)

// rejectTimeout bounds a shed connection's goodbye exchange: reading
// the one request a protocol-correct reject must answer (a GIOP fault
// echoes the request id) and writing the reject itself.
const rejectTimeout = time.Second

// Target is what a route forwards admitted connections to. A running
// *engine.Mediator satisfies it; tests substitute fakes.
type Target interface {
	// ServeConn takes ownership of a pre-established client connection
	// and mediates it. engine.ErrDraining (or any error) means the
	// target refused it and the caller still owns the connection.
	ServeConn(conn network.Conn) error
	// Shutdown drains in-flight flows; used when a route is repointed.
	Shutdown(ctx context.Context) error
	// Close aborts immediately.
	Close() error
}

// Matcher decides whether a route claims a sniffed connection.
type Matcher struct {
	// Class is the wire class the route serves; ClassUnknown builds a
	// route reachable only as the default.
	Class WireClass
	// PathPrefix, for ClassHTTP, additionally requires the request path
	// to start with this prefix ("" matches any path).
	PathPrefix string
	// Payload, for ClassHTTP, additionally requires the sniffed body
	// hint (ClassXML or ClassJSON) — how an XML-RPC POST is told from a
	// JSON-RPC POST on the same path. ClassUnknown accepts any body.
	Payload WireClass
}

// Matches reports whether the sniff satisfies the matcher.
func (m Matcher) Matches(s Sniff) bool {
	if m.Class == ClassUnknown || s.Class != m.Class {
		return false
	}
	if m.Class != ClassHTTP {
		return true
	}
	if m.PathPrefix != "" && !hasPrefix(s.Path, m.PathPrefix) {
		return false
	}
	if m.Payload != ClassUnknown && s.Body != m.Payload {
		return false
	}
	return true
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

// RouteConfig declares one hosted mediator behind the front door.
type RouteConfig struct {
	// Name identifies the route in metrics, Swap and the spec.
	Name string
	// Match is the sniff-based claim.
	Match Matcher
	// Admission is the route's admission-control policy.
	Admission AdmissionPolicy
	// Binder is the hosted mediator's server-side binder: its Framer
	// frames admitted connections for the target, and a shed connection
	// that is not HTTP gets its BuildErrorReply when it is an
	// bind.ErrorReplier.
	Binder bind.Binder
	// Target is the initial mediator (typically started detached).
	Target Target
}

// Config assembles a gateway.
type Config struct {
	// Routes are evaluated in order; the first match claims the
	// connection.
	Routes []RouteConfig
	// Default names the route that takes connections no matcher claims
	// (including sniff timeouts). "" means unmatched connections are
	// dropped.
	Default string
	// SniffBytes bounds the sniff window (default DefaultSniffBytes).
	SniffBytes int
	// SniffTimeout bounds the sniff wait (default DefaultSniffTimeout).
	SniffTimeout time.Duration
}

// route is one RouteConfig's runtime state.
type route struct {
	name   string
	match  Matcher
	adm    *admission
	binder bind.Binder
	framer network.Framer
	target atomic.Pointer[targetBox]

	accepted atomic.Uint64 // admitted and handed to the target
	shed     atomic.Uint64 // refused by admission control
	dropped  atomic.Uint64 // lost to a draining target mid-swap
	reloads  atomic.Uint64 // Swap calls
}

// targetBox wraps a Target so atomic.Pointer can hold interface values.
type targetBox struct{ t Target }

// Gateway is the running front door. Lifecycle: New → Start →
// (Shutdown | Close). It owns the listener and the sniffing phase of
// each connection; hosted mediators are owned by the deployer (they
// outlive a gateway Close so their in-flight flows can drain).
type Gateway struct {
	cfg    Config
	routes []*route
	byName map[string]*route
	deflt  *route

	conns    atomic.Uint64 // connections accepted by the listener
	sniffed  [5]atomic.Uint64
	fallback atomic.Uint64 // unmatched sniffs sent to the default route
	unrouted atomic.Uint64 // unmatched sniffs with no default: dropped

	mu       sync.Mutex
	listener net.Listener
	sniffing map[net.Conn]struct{} // conns still in the sniff/reject phase
	closed   bool
	wg       sync.WaitGroup
}

// New validates the configuration and builds a gateway (not yet
// listening).
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Routes) == 0 {
		return nil, fmt.Errorf("%w: no routes", ErrConfig)
	}
	g := &Gateway{
		cfg:      cfg,
		byName:   make(map[string]*route, len(cfg.Routes)),
		sniffing: make(map[net.Conn]struct{}),
	}
	for _, rc := range cfg.Routes {
		if rc.Name == "" {
			return nil, fmt.Errorf("%w: route without a name", ErrConfig)
		}
		if g.byName[rc.Name] != nil {
			return nil, fmt.Errorf("%w: duplicate route %q", ErrConfig, rc.Name)
		}
		if rc.Target == nil {
			return nil, fmt.Errorf("%w: route %q has no target", ErrConfig, rc.Name)
		}
		if rc.Binder == nil {
			return nil, fmt.Errorf("%w: route %q has no binder", ErrConfig, rc.Name)
		}
		rt := &route{name: rc.Name, match: rc.Match, adm: newAdmission(rc.Admission), binder: rc.Binder, framer: rc.Binder.Framer()}
		rt.target.Store(&targetBox{t: rc.Target})
		g.routes = append(g.routes, rt)
		g.byName[rc.Name] = rt
	}
	if cfg.Default != "" {
		rt := g.byName[cfg.Default]
		if rt == nil {
			return nil, fmt.Errorf("%w: default route %q not declared", ErrConfig, cfg.Default)
		}
		g.deflt = rt
	}
	return g, nil
}

// Config returns the configuration New was given.
func (g *Gateway) Config() Config { return g.cfg }

// Start binds addr and begins accepting.
func (g *Gateway) Start(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("gateway: listen %s: %w", addr, err)
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		l.Close()
		return ErrClosed
	}
	g.listener = l
	g.mu.Unlock()
	g.wg.Add(1)
	go g.acceptLoop()
	return nil
}

// Addr returns the bound front-door address.
func (g *Gateway) Addr() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.listener == nil {
		return ""
	}
	return g.listener.Addr().String()
}

// Routes lists the route names in declaration order.
func (g *Gateway) Routes() []string {
	names := make([]string, len(g.routes))
	for i, rt := range g.routes {
		names[i] = rt.name
	}
	return names
}

// Target returns the route's current target (the zero-downtime swap
// makes this a moving answer).
func (g *Gateway) Target(routeName string) (Target, error) {
	rt := g.byName[routeName]
	if rt == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoRoute, routeName)
	}
	return rt.target.Load().t, nil
}

// Swap atomically repoints a route at a new target and returns the old
// one for the caller to drain (typically old.Shutdown(ctx) in the
// background). Connections admitted before the swap keep flowing on
// the old target; connections sniffed after it land on the new one —
// zero-downtime reload is Swap plus a graceful drain.
func (g *Gateway) Swap(routeName string, newTarget Target) (Target, error) {
	if newTarget == nil {
		return nil, fmt.Errorf("%w: nil target for route %q", ErrConfig, routeName)
	}
	rt := g.byName[routeName]
	if rt == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoRoute, routeName)
	}
	old := rt.target.Swap(&targetBox{t: newTarget})
	rt.reloads.Add(1)
	return old.t, nil
}

// acceptLoop runs until the listener is closed; a connection accepted
// while the gateway closes is dropped.
func (g *Gateway) acceptLoop() {
	defer g.wg.Done()
	network.AcceptLoop(g.listener.Accept, func(c net.Conn) {
		g.conns.Add(1)
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			c.Close()
			return
		}
		g.sniffing[c] = struct{}{}
		g.wg.Add(1)
		g.mu.Unlock()
		go g.handle(c)
	})
}

// doneSniffing removes a connection from the sniff-phase set; returns
// false when the gateway closed it underneath us.
func (g *Gateway) doneSniffing(c net.Conn) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.sniffing[c]; !ok {
		return false
	}
	delete(g.sniffing, c)
	return true
}

// handle sniffs, routes and admits one raw connection.
func (g *Gateway) handle(c net.Conn) {
	defer g.wg.Done()
	pc := network.NewPeekConn(c)
	s := sniffConn(pc, g.cfg.SniffBytes, g.cfg.SniffTimeout)
	g.sniffed[s.Class].Add(1)
	rt := g.routeFor(s)
	if !g.doneSniffing(c) {
		pc.Close() // gateway closed the conn mid-sniff; this returns the buffer
		return
	}
	if rt == nil {
		g.unrouted.Add(1)
		pc.Close()
		return
	}
	if ok, _ := rt.adm.admit(time.Now()); !ok {
		rt.shed.Add(1)
		rt.reject(pc, s)
		return
	}
	gc := &gatedConn{Conn: pc.Framed(rt.framer), rt: rt}
	// A swap between the target load and ServeConn can hand us a
	// draining mediator; re-load the pointer and retry once before
	// giving up on the connection.
	for attempt := 0; attempt < 2; attempt++ {
		if err := rt.target.Load().t.ServeConn(gc); err == nil {
			gc.handedOff()
			return
		}
	}
	rt.dropped.Add(1)
	gc.Close()
}

// routeFor picks the first matching route, else the default.
func (g *Gateway) routeFor(s Sniff) *route {
	for _, rt := range g.routes {
		if rt.match.Matches(s) {
			return rt
		}
	}
	if g.deflt != nil {
		g.fallback.Add(1)
		return g.deflt
	}
	return nil
}

// reject answers an over-limit connection with a cheap protocol-correct
// refusal and closes it: HTTP 503 with Retry-After for HTTP-shaped
// traffic, whichever binder the route has; otherwise the fault the
// route's binder builds for the one request the client sent (a GIOP
// system exception echoing its request id). A bare close when the binder
// builds no fault, the sniff named no protocol (a silent client would
// hold the reject for its whole timeout) or no request arrives. The
// client sees load shedding as a middleware-level fault it already knows
// how to handle, not a hang.
func (rt *route) reject(pc *network.PeekConn, s Sniff) {
	if s.Class == ClassHTTP {
		resp := &httpwire.Response{
			Status: 503,
			Reason: "Service Unavailable",
			Headers: httpwire.Headers{
				{Name: "Connection", Value: "close"},
				{Name: "Retry-After", Value: "1"},
			},
			Body: []byte("gateway: over capacity\n"),
		}
		conn := pc.Framed(network.HTTPFramer{})
		conn.SetDeadline(time.Now().Add(rejectTimeout))
		conn.Send(resp.Marshal())
		conn.Close()
		return
	}
	replier, ok := rt.binder.(bind.ErrorReplier)
	if !ok || s.Class == ClassUnknown {
		pc.Close()
		return
	}
	conn := pc.Framed(rt.framer)
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(rejectTimeout))
	data, err := conn.Recv()
	if err != nil {
		return
	}
	action, req, _ := rt.binder.ParseRequest(data)
	if wire, err := replier.BuildErrorReply(action, req, "gateway: over capacity"); err == nil {
		conn.Send(wire)
	}
}

// Shutdown stops accepting and waits for connections still in the
// sniff phase to resolve; admitted connections belong to their
// mediators and drain with them.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.closeListener()
	done := make(chan struct{})
	go func() {
		g.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		g.closeSniffing()
		<-done
		return ctx.Err()
	}
}

// Close abruptly stops the gateway: the listener and every connection
// still being sniffed are closed. Admitted connections are owned by
// their mediators and are not touched.
func (g *Gateway) Close() error {
	g.closeListener()
	g.closeSniffing()
	g.wg.Wait()
	return nil
}

func (g *Gateway) closeListener() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.closed && g.listener != nil {
		g.listener.Close()
	}
	g.closed = true
}

func (g *Gateway) closeSniffing() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for c := range g.sniffing {
		c.Close()
		delete(g.sniffing, c)
	}
}

// gatedConn ties a route's admission slot to the connection's
// lifetime: the mediator closes the client conn when the session ends,
// which releases the slot exactly once. It also counts the hand-off: once,
// when the target first answers on it or when ServeConn returns, whichever
// comes first — a session that answers before ServeConn has returned is
// counted accepted before its client holds the answer.
type gatedConn struct {
	network.Conn
	rt       *route
	released atomic.Bool
	counted  atomic.Bool
}

// handedOff counts the connection accepted by its route, once.
func (c *gatedConn) handedOff() {
	if !c.counted.Swap(true) {
		c.rt.accepted.Add(1)
	}
}

// Send implements network.Conn.
func (c *gatedConn) Send(data []byte) error {
	c.handedOff()
	return c.Conn.Send(data)
}

// Close implements network.Conn.
func (c *gatedConn) Close() error {
	if !c.released.Swap(true) {
		c.rt.adm.release()
	}
	return c.Conn.Close()
}

// RouteStats is one route's counters snapshot.
type RouteStats struct {
	// Name identifies the route.
	Name string
	// Accepted counts connections admitted and handed to the target.
	Accepted uint64
	// Shed counts connections refused by admission control.
	Shed uint64
	// Dropped counts admitted connections lost to a draining target.
	Dropped uint64
	// Reloads counts target swaps (hot reloads).
	Reloads uint64
	// ActiveFlows is the current number of admitted, still-open
	// connections.
	ActiveFlows int64
}

// Stats is a point-in-time snapshot of the gateway's counters.
type Stats struct {
	// Conns counts connections accepted by the front-door listener.
	Conns uint64
	// Sniffed counts classifications by wire-class name.
	Sniffed map[string]uint64
	// Fallbacks counts sniffs no matcher claimed that went to the
	// default route.
	Fallbacks uint64
	// Unrouted counts sniffs dropped for want of any route.
	Unrouted uint64
	// Routes holds the per-route counters in declaration order.
	Routes []RouteStats
}

// Stats snapshots the gateway's counters.
func (g *Gateway) Stats() Stats {
	st := Stats{
		Conns:     g.conns.Load(),
		Sniffed:   make(map[string]uint64, len(g.sniffed)),
		Fallbacks: g.fallback.Load(),
		Unrouted:  g.unrouted.Load(),
	}
	for i := range g.sniffed {
		if n := g.sniffed[i].Load(); n > 0 {
			st.Sniffed[WireClass(i).String()] = n
		}
	}
	for _, rt := range g.routes {
		st.Routes = append(st.Routes, RouteStats{
			Name:        rt.name,
			Accepted:    rt.accepted.Load(),
			Shed:        rt.shed.Load(),
			Dropped:     rt.dropped.Load(),
			Reloads:     rt.reloads.Load(),
			ActiveFlows: rt.adm.active.Load(),
		})
	}
	sort.SliceStable(st.Routes, func(i, j int) bool { return st.Routes[i].Name < st.Routes[j].Name })
	return st
}

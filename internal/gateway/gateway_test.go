package gateway

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"starlink/internal/bind"
	"starlink/internal/message"
	"starlink/internal/network"
	"starlink/internal/protocol/giop"
	"starlink/internal/protocol/httpwire"
)

// fakeTarget records the connections a route hands it; tests drive the
// received conns directly.
type fakeTarget struct {
	mu     sync.Mutex
	conns  []network.Conn
	refuse int // ServeConn errors this many times before accepting
}

func (f *fakeTarget) ServeConn(c network.Conn) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.refuse > 0 {
		f.refuse--
		return context.Canceled
	}
	f.conns = append(f.conns, c)
	return nil
}

func (f *fakeTarget) Shutdown(context.Context) error { return nil }
func (f *fakeTarget) Close() error                   { return nil }

// httpBinder and giopBinder stand for a hosted mediator's server-side
// binder: a route frames its connections with the binder's framer, and a
// shed connection that is not HTTP gets the binder's fault.
var httpBinder bind.Binder = &bind.XMLRPCBinder{}

func giopBinder(t *testing.T) bind.Binder {
	b, err := bind.NewGIOPBinder("calc", nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// wait polls until the target has received n connections.
func (f *fakeTarget) wait(t *testing.T, n int) network.Conn {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		f.mu.Lock()
		got := len(f.conns)
		var last network.Conn
		if got > 0 {
			last = f.conns[got-1]
		}
		f.mu.Unlock()
		if got >= n {
			return last
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("target received %d conns, want %d", len(f.conns), n)
	return nil
}

func startGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// giopWire composes an Add request and runs it through the GIOP framer
// (which patches the MessageSize header bytes) the way a real client
// connection would put it on the wire.
func giopWire(t *testing.T, id uint64) []byte {
	t.Helper()
	codec, err := giop.NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	wire, err := codec.Compose(giop.NewRequest(id, "obj", "Add", []*message.Field{giop.IntParam(1), giop.IntParam(2)}))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := (network.GIOPFramer{}).WriteMessage(&buf, wire); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRoutingBySniff drives one listener with a GIOP and an HTTP
// client concurrently; each must land on its own mediator purely by
// wire classification.
func TestRoutingBySniff(t *testing.T) {
	giopT, httpT := &fakeTarget{}, &fakeTarget{}
	g := startGateway(t, Config{Routes: []RouteConfig{
		{Name: "iiop", Match: Matcher{Class: ClassGIOP}, Binder: giopBinder(t), Target: giopT},
		{Name: "web", Match: Matcher{Class: ClassHTTP}, Binder: httpBinder, Target: httpT},
	}})

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := dialRaw(t, g.Addr())
		c.Write(giopWire(t, 1))
	}()
	go func() {
		defer wg.Done()
		c := dialRaw(t, g.Addr())
		c.Write([]byte("GET /x HTTP/1.1\r\nHost: a\r\n\r\n"))
	}()
	wg.Wait()

	gc := giopT.wait(t, 1)
	if data, err := gc.Recv(); err != nil || string(data[:4]) != "GIOP" {
		t.Errorf("giop route Recv = %q, %v; want replayed GIOP message", data, err)
	}
	hc := httpT.wait(t, 1)
	if data, err := hc.Recv(); err != nil {
		t.Errorf("http route Recv: %v", err)
	} else if req, err := httpwire.ParseRequest(data); err != nil || req.Path() != "/x" {
		t.Errorf("http route got %q (%v), want GET /x", data, err)
	}

	st := g.Stats()
	if st.Conns != 2 || st.Sniffed["giop"] != 1 || st.Sniffed["http"] != 1 {
		t.Errorf("stats = %+v, want 2 conns, one sniff each", st)
	}
}

// TestPathAndPayloadRouting tells two HTTP routes apart by path prefix
// and body kind.
func TestPathAndPayloadRouting(t *testing.T) {
	xmlT, jsonT, restT := &fakeTarget{}, &fakeTarget{}, &fakeTarget{}
	g := startGateway(t, Config{Routes: []RouteConfig{
		{Name: "xmlrpc", Match: Matcher{Class: ClassHTTP, PathPrefix: "/rpc", Payload: ClassXML},
			Binder: httpBinder, Target: xmlT},
		{Name: "jsonrpc", Match: Matcher{Class: ClassHTTP, PathPrefix: "/rpc", Payload: ClassJSON},
			Binder: httpBinder, Target: jsonT},
		{Name: "rest", Match: Matcher{Class: ClassHTTP},
			Binder: httpBinder, Target: restT},
	}})

	send := func(body string) {
		c := dialRaw(t, g.Addr())
		c.Write([]byte("POST /rpc HTTP/1.1\r\nContent-Length: " +
			itoa(len(body)) + "\r\n\r\n" + body))
	}
	send("<methodCall/>")
	send("{\"method\":1}")
	c := dialRaw(t, g.Addr())
	c.Write([]byte("GET /photos HTTP/1.1\r\n\r\n"))

	xmlT.wait(t, 1)
	jsonT.wait(t, 1)
	restT.wait(t, 1)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for ; n > 0; n /= 10 {
		b = append([]byte{byte('0' + n%10)}, b...)
	}
	return string(b)
}

// TestDefaultRouteFallback sends garbage: no matcher claims it, so it
// must land on the default route; without a default it is dropped.
func TestDefaultRouteFallback(t *testing.T) {
	def := &fakeTarget{}
	g := startGateway(t, Config{
		Routes: []RouteConfig{
			{Name: "web", Match: Matcher{Class: ClassHTTP}, Binder: httpBinder, Target: def},
		},
		Default:      "web",
		SniffTimeout: 100 * time.Millisecond,
	})
	c := dialRaw(t, g.Addr())
	c.Write([]byte{0xde, 0xad, 0xbe, 0xef})
	def.wait(t, 1)
	if st := g.Stats(); st.Fallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1", st.Fallbacks)
	}

	// No default: the connection is closed, not forwarded.
	g2 := startGateway(t, Config{
		Routes: []RouteConfig{
			{Name: "iiop", Match: Matcher{Class: ClassGIOP}, Binder: giopBinder(t), Target: &fakeTarget{}},
		},
		SniffTimeout: 100 * time.Millisecond,
	})
	c2 := dialRaw(t, g2.Addr())
	c2.Write([]byte("junk junk junk"))
	c2.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := c2.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("unrouted conn read = %v, want EOF", err)
	}
	if st := g2.Stats(); st.Unrouted != 1 {
		t.Errorf("unrouted = %d, want 1", st.Unrouted)
	}
}

// TestShedHTTP caps a route at one concurrent flow: the second client
// must get a protocol-correct 503 quickly, and closing the first
// connection must free the slot for a third.
func TestShedHTTP(t *testing.T) {
	target := &fakeTarget{}
	g := startGateway(t, Config{Routes: []RouteConfig{
		{Name: "web", Match: Matcher{Class: ClassHTTP}, Admission: AdmissionPolicy{MaxFlows: 1},
			Binder: httpBinder, Target: target},
	}})

	first := dialRaw(t, g.Addr())
	first.Write([]byte("GET /hold HTTP/1.1\r\n\r\n"))
	held := target.wait(t, 1)

	second := dialRaw(t, g.Addr())
	start := time.Now()
	second.Write([]byte("GET /x HTTP/1.1\r\n\r\n"))
	second.SetReadDeadline(time.Now().Add(3 * time.Second))
	raw, err := io.ReadAll(second)
	shedLatency := time.Since(start)
	if err != nil {
		t.Fatalf("reading shed response: %v", err)
	}
	resp, err := httpwire.ParseResponse(raw)
	if err != nil {
		t.Fatalf("parsing shed response %q: %v", raw, err)
	}
	if resp.Status != 503 {
		t.Errorf("shed status = %d, want 503", resp.Status)
	}
	if shedLatency > time.Second {
		t.Errorf("shed took %v, want a cheap reject", shedLatency)
	}
	if st := g.Stats(); st.Routes[0].Shed != 1 || st.Routes[0].ActiveFlows != 1 {
		t.Errorf("route stats = %+v, want shed=1 active=1", st.Routes[0])
	}

	// Releasing the admitted connection frees the slot.
	held.Close()
	deadline := time.Now().Add(2 * time.Second)
	for g.Stats().Routes[0].ActiveFlows != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	third := dialRaw(t, g.Addr())
	third.Write([]byte("GET /y HTTP/1.1\r\n\r\n"))
	target.wait(t, 2)
}

// TestShedGIOP: an over-limit IIOP client must receive a GIOP system
// exception echoing its request id — a middleware-level fault its ORB
// already understands.
func TestShedGIOP(t *testing.T) {
	target := &fakeTarget{}
	g := startGateway(t, Config{Routes: []RouteConfig{
		{Name: "iiop", Match: Matcher{Class: ClassGIOP}, Admission: AdmissionPolicy{MaxFlows: 1},
			Binder: giopBinder(t), Target: target},
	}})

	first := dialRaw(t, g.Addr())
	first.Write(giopWire(t, 1))
	target.wait(t, 1)

	second := dialRaw(t, g.Addr())
	second.Write(giopWire(t, 42))
	second.SetReadDeadline(time.Now().Add(3 * time.Second))
	data, err := network.GIOPFramer{}.ReadMessage(bufio.NewReader(second))
	if err != nil {
		t.Fatalf("reading shed reply: %v", err)
	}
	codec, err := giop.NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	reply, err := codec.Parse(data)
	if err != nil {
		t.Fatalf("parsing shed reply: %v", err)
	}
	if id, _ := reply.GetInt("RequestID"); id != 42 {
		t.Errorf("shed reply RequestID = %d, want 42 echoed", id)
	}
	if status, _ := reply.GetInt("ReplyStatus"); uint64(status) != giop.StatusSystemException {
		t.Errorf("shed reply status = %d, want system exception (%d)", status, giop.StatusSystemException)
	}
}

// TestRateLimitShed exhausts a token bucket and checks the overflow is
// shed while the bucket's burst is honoured.
func TestRateLimitShed(t *testing.T) {
	target := &fakeTarget{}
	g := startGateway(t, Config{Routes: []RouteConfig{
		{Name: "web", Match: Matcher{Class: ClassHTTP}, Admission: AdmissionPolicy{Rate: 0.001, Burst: 2},
			Binder: httpBinder, Target: target},
	}})
	for i := 0; i < 4; i++ {
		c := dialRaw(t, g.Addr())
		c.Write([]byte("GET /x HTTP/1.1\r\n\r\n"))
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := g.Stats().Routes[0]
		if st.Accepted+st.Shed == 4 {
			if st.Accepted != 2 || st.Shed != 2 {
				t.Errorf("accepted=%d shed=%d, want 2/2", st.Accepted, st.Shed)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("connections unresolved: %+v", g.Stats().Routes[0])
}

// TestHotSwap repoints a route mid-traffic: connections admitted
// before the swap stay with the old target, connections after it land
// on the new one, and the reload counter ticks.
func TestHotSwap(t *testing.T) {
	oldT, newT := &fakeTarget{}, &fakeTarget{}
	g := startGateway(t, Config{Routes: []RouteConfig{
		{Name: "web", Match: Matcher{Class: ClassHTTP}, Binder: httpBinder, Target: oldT},
	}})

	c1 := dialRaw(t, g.Addr())
	c1.Write([]byte("GET /old HTTP/1.1\r\n\r\n"))
	held := oldT.wait(t, 1)

	prev, err := g.Swap("web", newT)
	if err != nil {
		t.Fatal(err)
	}
	if prev != Target(oldT) {
		t.Errorf("Swap returned %v, want the old target", prev)
	}

	c2 := dialRaw(t, g.Addr())
	c2.Write([]byte("GET /new HTTP/1.1\r\n\r\n"))
	newT.wait(t, 1)

	// The pre-swap connection still flows on the old target.
	if _, err := held.Recv(); err != nil {
		t.Errorf("pre-swap conn broken by swap: %v", err)
	}
	if st := g.Stats(); st.Routes[0].Reloads != 1 {
		t.Errorf("reloads = %d, want 1", st.Routes[0].Reloads)
	}

	if _, err := g.Swap("nope", newT); err == nil {
		t.Error("Swap on unknown route succeeded")
	}
}

// answerFirst is a target whose session answers its client before
// ServeConn returns, as a mediator's session goroutine may: it echoes the
// request and returns only when release is closed.
type answerFirst struct{ release chan struct{} }

func (a *answerFirst) ServeConn(c network.Conn) error {
	req, err := c.Recv()
	if err == nil {
		err = c.Send(req)
	}
	<-a.release
	return err
}

func (a *answerFirst) Shutdown(context.Context) error { return nil }
func (a *answerFirst) Close() error                   { return nil }

// TestAcceptedBeforeAnswer: a client that holds its answer finds its
// connection counted accepted, even when the target answered before
// ServeConn returned.
func TestAcceptedBeforeAnswer(t *testing.T) {
	target := &answerFirst{release: make(chan struct{})}
	defer close(target.release)
	g := startGateway(t, Config{Routes: []RouteConfig{
		{Name: "web", Match: Matcher{Class: ClassHTTP}, Binder: httpBinder, Target: target},
	}})
	c := dialRaw(t, g.Addr())
	req := "POST /x HTTP/1.1\r\nHost: a\r\nContent-Length: 2\r\n\r\nhi"
	if _, err := c.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, make([]byte, len(req))); err != nil {
		t.Fatal(err)
	}
	if st := g.Stats().Routes[0]; st.Accepted != 1 {
		t.Errorf("the client holds its answer and the route has accepted %d connections, want 1", st.Accepted)
	}
}

// TestSwapRetryOnDraining: a target that refuses the first ServeConn
// (mid-swap drain) must not cost the client its connection — the
// gateway re-loads the route pointer and retries once.
func TestSwapRetryOnDraining(t *testing.T) {
	target := &fakeTarget{refuse: 1}
	g := startGateway(t, Config{Routes: []RouteConfig{
		{Name: "web", Match: Matcher{Class: ClassHTTP}, Binder: httpBinder, Target: target},
	}})
	c := dialRaw(t, g.Addr())
	c.Write([]byte("GET /x HTTP/1.1\r\n\r\n"))
	target.wait(t, 1)
	if st := g.Stats(); st.Routes[0].Accepted != 1 || st.Routes[0].Dropped != 0 {
		t.Errorf("stats = %+v, want accepted=1 dropped=0", st.Routes[0])
	}

	// Two consecutive refusals exhaust the retry: the conn is dropped
	// and the admission slot released.
	target.mu.Lock()
	target.refuse = 2
	target.mu.Unlock()
	c2 := dialRaw(t, g.Addr())
	c2.Write([]byte("GET /y HTTP/1.1\r\n\r\n"))
	deadline := time.Now().Add(3 * time.Second)
	for g.Stats().Routes[0].Dropped == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	st := g.Stats().Routes[0]
	if st.Dropped != 1 || st.ActiveFlows != 1 {
		t.Errorf("stats = %+v, want dropped=1 active=1 (only the held conn)", st)
	}
}

// TestGatewayConfigValidation exercises New's rejection paths.
func TestGatewayConfigValidation(t *testing.T) {
	ft := &fakeTarget{}
	cases := []Config{
		{},
		{Routes: []RouteConfig{{Name: "", Binder: httpBinder, Target: ft}}},
		{Routes: []RouteConfig{{Name: "a", Binder: httpBinder, Target: ft}, {Name: "a", Binder: httpBinder, Target: ft}}},
		{Routes: []RouteConfig{{Name: "a", Target: ft}}},
		{Routes: []RouteConfig{{Name: "a", Binder: httpBinder}}},
		{Routes: []RouteConfig{{Name: "a", Binder: httpBinder, Target: ft}}, Default: "missing"},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New accepted invalid config", i)
		}
	}
}

// TestGatewayShutdown: Shutdown stops accepting but leaves admitted
// connections to their mediators; Close is idempotent.
func TestGatewayShutdown(t *testing.T) {
	target := &fakeTarget{}
	g, err := New(Config{Routes: []RouteConfig{
		{Name: "web", Match: Matcher{Class: ClassHTTP}, Binder: httpBinder, Target: target},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c := dialRaw(t, g.Addr())
	c.Write([]byte("GET /x HTTP/1.1\r\n\r\n"))
	held := target.wait(t, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The admitted connection still works: the gateway does not own it.
	go c.Write([]byte("GET /again HTTP/1.1\r\n\r\n"))
	if _, err := held.Recv(); err != nil {
		t.Errorf("admitted conn broken by gateway shutdown: %v", err)
	}
	if err := g.Close(); err != nil {
		t.Errorf("Close after Shutdown: %v", err)
	}
	if err := g.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

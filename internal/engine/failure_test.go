package engine_test

import (
	"bytes"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"starlink/internal/bind"
	"starlink/internal/casestudy"
	"starlink/internal/engine"
	"starlink/internal/network"
	"starlink/internal/protocol/giop"
	"starlink/internal/protocol/httpwire"
	"starlink/internal/protocol/rest"
	"starlink/internal/protocol/soap"
	"starlink/internal/protocol/xmlrpc"
	"starlink/internal/services/photostore"
	"starlink/internal/services/picasa"
)

// startFragileCaseStudy returns a mediator plus handles to kill pieces.
func startFragileCaseStudy(t *testing.T) (*engine.Mediator, *picasa.Service) {
	t.Helper()
	store := photostore.New()
	pic, err := picasa.New(store)
	if err != nil {
		t.Fatal(err)
	}
	routes, err := bind.ParseRoutes(casestudy.PicasaRoutesDoc)
	if err != nil {
		t.Fatal(err)
	}
	restBinder, err := bind.NewRESTBinder(routes)
	if err != nil {
		t.Fatal(err)
	}
	med, err := engine.New(engine.Config{
		Merged: casestudy.XMLRPCMediator(),
		Sides: map[int]*engine.Side{
			1: {Binder: &bind.XMLRPCBinder{Path: "/services/xmlrpc", Defs: casestudy.FlickrUsage().Messages}},
			2: {Binder: restBinder, Target: pic.Addr()},
		},
		HostMap:         map[string]string{casestudy.PicasaHost: pic.Addr()},
		ExchangeTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := med.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { med.Close() })
	return med, pic
}

// TestServiceDownMidSession kills the Picasa service after a successful
// search: the in-flight session fails, but the mediator survives and the
// failure is visible to the client as a broken exchange, not a hang.
func TestServiceDownMidSession(t *testing.T) {
	med, pic := startFragileCaseStudy(t)
	c := xmlrpc.NewClient(med.Addr(), "/services/xmlrpc")
	defer c.Close()

	if _, err := c.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{
		"text": "tree", "per_page": int64(1),
	}); err != nil {
		t.Fatal(err)
	}
	// getInfo still works: it is served from the mediator cache (Fig. 10),
	// not from Picasa.
	pic.Close()
	if _, err := c.Call(casestudy.FlickrGetInfo, map[string]xmlrpc.Value{
		"photo_id": "photo-0001",
	}); err != nil {
		t.Fatalf("cache-resolved getInfo should survive service death: %v", err)
	}
	// getComments needs Picasa: the session must fail promptly.
	start := time.Now()
	_, err := c.Call(casestudy.FlickrGetComments, map[string]xmlrpc.Value{
		"photo_id": "photo-0001",
	})
	if err == nil {
		t.Fatal("call against dead service succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("failure took %v; should be bounded by the exchange timeout", elapsed)
	}
}

// TestGarbageClientBytesEndSessionOnly feeds raw garbage to the mediator:
// the session dies, the mediator keeps serving new clients.
func TestGarbageClientBytesEndSessionOnly(t *testing.T) {
	med, _ := startFragileCaseStudy(t)

	var eng network.Engine
	conn, err := eng.Dial(network.Semantics{Transport: "tcp"}, med.Addr(), network.HTTPFramer{})
	if err != nil {
		t.Fatal(err)
	}
	// A framed-but-wrong message: valid HTTP, not an XML-RPC call.
	if err := conn.Send([]byte("DELETE /nope HTTP/1.1\r\nContent-Length: 0\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Recv(); err == nil {
		t.Error("mediator answered a garbage request")
	}
	conn.Close()

	// A fresh, well-behaved client still works.
	c := xmlrpc.NewClient(med.Addr(), "/services/xmlrpc")
	defer c.Close()
	if _, err := c.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{
		"text": "tree", "per_page": int64(1),
	}); err != nil {
		t.Fatalf("mediator did not survive garbage session: %v", err)
	}
}

// TestClientDisconnectMidFlow drops the client between operations; the
// mediator must clean the session up and accept the next client.
func TestClientDisconnectMidFlow(t *testing.T) {
	med, _ := startFragileCaseStudy(t)
	c1 := xmlrpc.NewClient(med.Addr(), "/services/xmlrpc")
	if _, err := c1.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{
		"text": "tree", "per_page": int64(1),
	}); err != nil {
		t.Fatal(err)
	}
	c1.Close() // mid-automaton

	c2 := xmlrpc.NewClient(med.Addr(), "/services/xmlrpc")
	defer c2.Close()
	if _, err := c2.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{
		"text": "cat", "per_page": int64(1),
	}); err != nil {
		t.Fatalf("next session failed: %v", err)
	}
}

// TestConcurrentSessions runs several clients at once; sessions are
// independent (separate caches, separate service connections).
func TestConcurrentSessions(t *testing.T) {
	med, _ := startFragileCaseStudy(t)
	const n = 4
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			c := xmlrpc.NewClient(med.Addr(), "/services/xmlrpc")
			defer c.Close()
			v, err := c.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{
				"text": "tree", "per_page": int64(2),
			})
			if err != nil {
				errs <- err
				return
			}
			photos := v.(map[string]xmlrpc.Value)["photos"].([]xmlrpc.Value)
			id := photos[0].(map[string]xmlrpc.Value)["id"].(string)
			if _, err := c.Call(casestudy.FlickrGetInfo, map[string]xmlrpc.Value{"photo_id": id}); err != nil {
				errs <- err
				return
			}
			errs <- nil
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestMediatorCloseWithLiveSession closes the mediator while a client is
// connected; Close must not hang.
func TestMediatorCloseWithLiveSession(t *testing.T) {
	med, _ := startFragileCaseStudy(t)
	c := xmlrpc.NewClient(med.Addr(), "/services/xmlrpc")
	defer c.Close()
	if _, err := c.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{
		"text": "tree", "per_page": int64(1),
	}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		med.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with a live session")
	}
}

// TestMediationFailureSurfacesAsProtocolFault: when mediation fails
// mid-flow, the waiting client receives a proper protocol-level fault
// (here an XML-RPC fault) rather than a dropped connection.
func TestMediationFailureSurfacesAsProtocolFault(t *testing.T) {
	med, pic := startFragileCaseStudy(t)
	c := xmlrpc.NewClient(med.Addr(), "/services/xmlrpc")
	defer c.Close()
	if _, err := c.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{
		"text": "tree", "per_page": int64(1),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(casestudy.FlickrGetInfo, map[string]xmlrpc.Value{
		"photo_id": "photo-0001",
	}); err != nil {
		t.Fatal(err)
	}
	pic.Close() // the service dies
	_, err := c.Call(casestudy.FlickrGetComments, map[string]xmlrpc.Value{
		"photo_id": "photo-0001",
	})
	var fault *xmlrpc.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("err = %v, want *xmlrpc.Fault", err)
	}
	if fault.Code != 500 || !strings.Contains(fault.Message, "mediation failed") {
		t.Errorf("fault = %+v", fault)
	}
	st := med.Snapshot().Stats
	if st.Failures == 0 {
		t.Error("failure not counted")
	}
}

// TestServiceRestartMidSessionRecovered is the fault-tolerance
// acceptance test, as a soak: 200 invocations on one client session, the
// service endpoint stopped and restarted on the SAME address every 50.
// After each restart the session's cached connection is dead; the next
// flow must transparently evict it, redial, replay, and complete — the
// client never notices.
func TestServiceRestartMidSessionRecovered(t *testing.T) {
	srv := startPlusService(t, nil)
	addr := srv.Addr()
	med := startAddPlus(t, addr, func(cfg *engine.Config) {
		cfg.ExchangeTimeout = 2 * time.Second
		cfg.Retry = &engine.RetryPolicy{Attempts: engine.DefaultRetryAttempts, Backoff: time.Millisecond}
	})

	client, err := giop.Dial(med.Addr(), "calc")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	for i := 0; i < 200; i++ {
		if i > 0 && i%50 == 0 {
			// The connection the flows so far cached now points at a dead
			// socket.
			srv.Close()
			srv, err = soap.NewServer(addr, "/soap", plusOperations(nil))
			if err != nil {
				t.Fatalf("rebind %s: %v", addr, err)
			}
			defer srv.Close()
		}
		results, err := client.Invoke("Add", giop.IntParam(20), giop.IntParam(22))
		if err != nil {
			t.Fatalf("flow %d: %v", i, err)
		}
		if results[0].ValueString() != "42" {
			t.Fatalf("flow %d: Add = %s", i, results[0].ValueString())
		}
	}

	st := med.Snapshot().Stats
	if st.Redials < 3 {
		t.Errorf("redials = %d over three restarts, want at least 3", st.Redials)
	}
	if st.Failures != 0 || st.RetriesExhausted != 0 {
		t.Errorf("stats = %+v, want clean recovery", st)
	}
}

// TestUnexpectedActionGetsFault: a client invoking an action the
// automaton does not offer receives a protocol fault naming the problem.
func TestUnexpectedActionGetsFault(t *testing.T) {
	med, _ := startFragileCaseStudy(t)
	c := xmlrpc.NewClient(med.Addr(), "/services/xmlrpc")
	defer c.Close()
	// The automaton expects search first.
	_, err := c.Call(casestudy.FlickrAddComment, map[string]xmlrpc.Value{
		"photo_id": "x", "comment_text": "y",
	})
	var fault *xmlrpc.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("err = %v, want *xmlrpc.Fault", err)
	}
	if !strings.Contains(fault.Message, "unexpected action") {
		t.Errorf("fault = %+v", fault)
	}
}

// TestDeepReplyFaultsOneFlowOnly is the one-packet kill: a service reply
// of two million nested elements, inside the frame limit, overflowed the
// recursive XML decoder's stack and took the process — every session —
// with it. Now the flow that met it ends in the client's protocol fault
// and the next connection is served.
func TestDeepReplyFaultsOneFlowOnly(t *testing.T) {
	var hostile atomic.Bool
	hostile.Store(true)
	feed, err := rest.AppendFeed(nil, rest.Feed{Title: "Search Results", Entries: []rest.Entry{
		{ID: "photo-0001", Title: "tree", ContentType: "image/jpeg", ContentSrc: "http://photos.example/1.jpg"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := httpwire.Serve("127.0.0.1:0", func(*httpwire.Request) *httpwire.Response {
		body := feed
		if hostile.Load() {
			// The root has to be a feed for the decoder to read on.
			body = append([]byte("<feed>"), bytes.Repeat([]byte("<entry>"), 2<<20)...)
		}
		return &httpwire.Response{Status: 200, Headers: httpwire.Headers{{Name: "Content-Type", Value: "application/atom+xml"}}, Body: body}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	routes, err := bind.ParseRoutes(casestudy.PicasaRoutesDoc)
	if err != nil {
		t.Fatal(err)
	}
	restBinder, err := bind.NewRESTBinder(routes)
	if err != nil {
		t.Fatal(err)
	}
	med, err := engine.New(engine.Config{
		Merged: casestudy.SearchMediator(),
		Sides: map[int]*engine.Side{
			1: {Binder: &bind.XMLRPCBinder{Path: "/services/xmlrpc", Defs: casestudy.FlickrUsage().Messages}},
			2: {Binder: restBinder, Target: svc.Addr()},
		},
		HostMap: map[string]string{casestudy.PicasaHost: svc.Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := med.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer med.Close()
	search := func() (xmlrpc.Value, error) {
		c := xmlrpc.NewClient(med.Addr(), "/services/xmlrpc")
		defer c.Close()
		return c.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{"text": "tree", "per_page": int64(1)})
	}

	var fault *xmlrpc.Fault
	if _, err := search(); !errors.As(err, &fault) || !strings.Contains(fault.Message, "nested deeper") {
		t.Fatalf("search over the hostile reply: err = %v, want an XML-RPC fault naming the depth bound", err)
	}
	hostile.Store(false)
	if _, err := search(); err != nil {
		t.Fatalf("the flow after the hostile reply, on a new connection: %v", err)
	}
}

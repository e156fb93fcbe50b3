package engine_test

import (
	"sync/atomic"
	"testing"
	"time"

	"starlink/internal/bind"
	"starlink/internal/casestudy"
	"starlink/internal/engine"
	"starlink/internal/protocol/xmlrpc"
	"starlink/internal/services/photostore"
	"starlink/internal/services/picasa"
)

// TestHookPanicsDoNotKillSessions pins the hook-hardening contract: a
// Trace sink that panics — on every event after the first few, like a
// buggy user-supplied one would — must not break mediation: flows still
// complete, and the panics are counted in Stats.HookPanics. The mediator is
// the search flow alone, so the client hangs up between flows, which is no
// failure; a client gone in the middle of the four-call case study is one.
func TestHookPanicsDoNotKillSessions(t *testing.T) {
	var seen atomic.Uint64
	store := photostore.New()
	pic, err := picasa.New(store)
	if err != nil {
		t.Fatal(err)
	}
	defer pic.Close()

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
			2: {Binder: restBinder, Target: pic.Addr()},
		},
		HostMap: map[string]string{casestudy.PicasaHost: pic.Addr()},
		Trace: func(engine.TraceEvent) {
			if seen.Add(1) > 2 {
				panic("trace hook bug")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := med.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer med.Close()

	c := xmlrpc.NewClient(med.Addr(), "/services/xmlrpc")
	v, err := c.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{
		"text": "tree", "per_page": int64(1),
	})
	if err != nil {
		t.Fatalf("mediation failed under a panicking hook: %v", err)
	}
	photos := v.(map[string]xmlrpc.Value)["photos"].([]xmlrpc.Value)
	if len(photos) != 1 {
		t.Fatalf("photos = %#v", photos)
	}
	c.Close()

	deadline := time.Now().Add(2 * time.Second)
	var st engine.Stats
	for time.Now().Before(deadline) {
		st = med.Snapshot().Stats
		if st.Sessions == 1 && st.HookPanics > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Failures != 0 {
		t.Errorf("failures = %d, want 0", st.Failures)
	}
	if st.HookPanics == 0 {
		t.Error("HookPanics = 0, want > 0")
	}
}

package core_test

import (
	"sync"
	"testing"
	"time"

	"starlink/internal/bind"
	"starlink/internal/casestudy"
	"starlink/internal/core"
	"starlink/internal/engine"
	"starlink/internal/protocol/xmlrpc"
	"starlink/internal/services/photostore"
	"starlink/internal/services/picasa"
)

// TestE16ResponseCacheThroughDeploy is experiment E16: the Flickr search
// mediator deployed from a spec against a Picasa service that takes a
// millisecond to answer, driven by concurrent sessions drawing queries
// from a small shared pool — the read-mostly traffic a response cache
// targets — once without and once with the search declared cacheable. The
// cache must cut the service exchanges at least fivefold, and its counters
// must account for every flow.
func TestE16ResponseCacheThroughDeploy(t *testing.T) {
	const sessions, requests = 8, 24
	queries := []string{"tree", "cat", "lake", "night"}

	// run deploys the mediator with directives appended to its spec, drives
	// the load through it and returns its counters. The delay stands in for
	// a remote service's processing and network time, and gives concurrent
	// sessions a window in which to coalesce.
	run := func(directives string) engine.Stats {
		pic, err := picasa.NewWithConfig(photostore.New(), picasa.Config{ProcessingDelay: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer pic.Close()
		m := core.NewModels()
		m.Automata["AFlickr"] = casestudy.FlickrUsage()
		search := casestudy.SearchMediator()
		m.Merged[search.Name] = search
		if m.Routes["picasa"], err = bind.ParseRoutes(casestudy.PicasaRoutesDoc); err != nil {
			t.Fatal(err)
		}
		m.Mediators["flickr-search"], err = core.ParseMediatorSpec("merged " + search.Name + "\n" +
			"side 1 xmlrpc path=/services/xmlrpc defs=AFlickr server\n" +
			"side 2 rest routes=picasa target=" + pic.Addr() + "\n" +
			"hostmap " + casestudy.PicasaHost + " = " + pic.Addr() + "\n" + directives)
		if err != nil {
			t.Fatal(err)
		}
		dep, err := m.Deploy("flickr-search", "127.0.0.1:0", "")
		if err != nil {
			t.Fatal(err)
		}
		defer dep.Close()

		var wg sync.WaitGroup
		for s := 0; s < sessions; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				c := xmlrpc.NewClient(dep.Addr(), "/services/xmlrpc")
				defer c.Close()
				for i := 0; i < requests; i++ {
					if _, err := c.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{
						"text": queries[(s+i)%len(queries)], "per_page": int64(5),
					}); err != nil {
						t.Errorf("session %d request %d: %v", s, i, err)
						return
					}
				}
			}(s)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		return dep.Mediator.Snapshot().Stats
	}
	// Every flow sends the client one reply, and the service one request
	// unless the cache served it, so the rest of MessagesOut is the service
	// exchanges.
	exchanges := func(st engine.Stats) uint64 { return st.MessagesOut - st.Flows }

	off := run("")
	on := run("cacheable " + casestudy.PicasaSearch + " ttl=60s\ncache_size 65536\n")
	t.Logf("repeat workload @%d sessions: %d -> %d service exchanges", sessions, exchanges(off), exchanges(on))
	if exchanges(off) != sessions*requests {
		t.Errorf("cache off: exchanges = %d, want %d", exchanges(off), sessions*requests)
	}
	if exchanges(on)*5 > exchanges(off) {
		t.Errorf("exchanges %d -> %d: reduction below 5x", exchanges(off), exchanges(on))
	}
	if on.CacheHits+on.CacheCoalesced+on.CacheMisses != on.Flows {
		t.Errorf("cache counters %d+%d+%d don't cover %d flows",
			on.CacheHits, on.CacheCoalesced, on.CacheMisses, on.Flows)
	}
}

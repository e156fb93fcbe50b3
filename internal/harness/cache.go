package harness

// Cross-flow response-cache experiment (EXPERIMENTS.md E16): the Flickr
// search mediator is deployed end to end through the public
// starlink.Deploy façade — real clients, real codecs, a real backing
// service — and driven by concurrent sessions drawing queries from a
// small shared pool, the read-mostly traffic a response cache targets.
// Cache off vs on yields the service-exchange reduction.
//
// Service-side exchanges are derived from the engine's own counters:
// every flow emits exactly one client-side reply and one service-side
// request when the exchange is real, and cache-served flows skip the
// service leg, so exchanges = ΔMessagesOut − ΔFlows.

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"starlink/internal/casestudy"
	"starlink/internal/protocol/xmlrpc"
	"starlink/internal/services/photostore"
	"starlink/internal/services/picasa"
	"starlink/starlink"
)

// cachePoint is one measured window of the cache experiment.
type cachePoint struct {
	// flows is the number of completed flows, exchanges the number of real
	// service-side round-trips (ΔMessagesOut − ΔFlows).
	flows, exchanges uint64
	// hits, misses and coalesced are the cache counter deltas (all zero
	// with the cache off).
	hits, misses, coalesced uint64
	// p50 is the client-observed median whole-flow latency.
	p50 time.Duration
}

// serviceDelay is slept by the backing service before answering: it
// stands in for a remote service's processing and network time, which
// the in-process store would otherwise hide, and gives concurrent
// sessions a window in which to coalesce.
const serviceDelay = time.Millisecond

// cacheEnv is the deployed case-study environment: the mediator reached
// through the public Deploy façade plus its backing service.
type cacheEnv struct {
	dep starlink.Deployment
	pic *picasa.Service
}

// cacheMediator is the spec name under which Snapshot reports the
// mediator.
const cacheMediator = "flickr-search"

func (e *cacheEnv) close() {
	e.dep.Close()
	e.pic.Close()
}

func (e *cacheEnv) stats() (starlink.Stats, error) {
	st, ok := e.dep.Snapshot().Mediators[cacheMediator]
	if !ok {
		return starlink.Stats{}, fmt.Errorf("snapshot has no mediator %q", cacheMediator)
	}
	return st.Stats, nil
}

// flush resets the response cache so each measured window starts cold.
func (e *cacheEnv) flush() {
	if md, ok := e.dep.(*starlink.MediatorDeployment); ok {
		md.Mediator.CacheFlush()
	}
}

// startCacheEnv deploys the Flickr-search-to-Picasa-REST mediator
// against an in-process Picasa service, optionally with the Picasa
// search operation declared cacheable.
func startCacheEnv(cached bool) (*cacheEnv, error) {
	pic, err := picasa.NewWithConfig(photostore.New(), picasa.Config{ProcessingDelay: serviceDelay})
	if err != nil {
		return nil, err
	}
	models := starlink.NewModels()
	models.Automata["AFlickr"] = casestudy.FlickrUsage()
	models.Merged["Flickr-Search-to-Picasa-REST"] = casestudy.SearchMediator()
	routes, err := starlink.ParseRoutes(casestudy.PicasaRoutesDoc)
	if err != nil {
		pic.Close()
		return nil, err
	}
	models.Routes["picasa"] = routes
	doc := "merged Flickr-Search-to-Picasa-REST\n" +
		"side 1 xmlrpc path=/services/xmlrpc defs=AFlickr server\n" +
		"side 2 rest routes=picasa target=" + pic.Addr() + "\n" +
		"hostmap " + casestudy.PicasaHost + " = " + pic.Addr() + "\n"
	if cached {
		doc += "cacheable " + casestudy.PicasaSearch + " ttl=60s\ncache_size 65536\n"
	}
	spec, err := starlink.ParseMediatorSpec(doc)
	if err != nil {
		pic.Close()
		return nil, err
	}
	models.Mediators[cacheMediator] = spec
	dep, err := starlink.Deploy(cacheMediator, models, starlink.DeployOptions{Listen: "127.0.0.1:0"})
	if err != nil {
		pic.Close()
		return nil, err
	}
	return &cacheEnv{dep: dep, pic: pic}, nil
}

// driveCacheLoad runs sessions concurrent client sessions of `requests`
// searches each, queries round-robin through pool, and returns every
// per-request flow latency.
func driveCacheLoad(env *cacheEnv, pool []string, sessions, requests int) ([]time.Duration, error) {
	perSession := make([][]time.Duration, sessions)
	errs := make(chan error, sessions)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c := xmlrpc.NewClient(env.dep.Addr(), "/services/xmlrpc")
			defer c.Close()
			durs := make([]time.Duration, 0, requests)
			for i := 0; i < requests; i++ {
				start := time.Now()
				if _, err := c.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{
					"text": pool[(s+i)%len(pool)], "per_page": int64(5),
				}); err != nil {
					errs <- fmt.Errorf("session %d request %d: %w", s, i, err)
					return
				}
				durs = append(durs, time.Since(start))
			}
			perSession[s] = durs
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return nil, err
	}
	var all []time.Duration
	for _, d := range perSession {
		all = append(all, d...)
	}
	return all, nil
}

// measureCachePoint warms the deployment up, resets the cache so the
// window starts cold, then measures one window.
func measureCachePoint(env *cacheEnv, pool []string, sessions, requests int) (cachePoint, error) {
	if _, err := driveCacheLoad(env, pool, sessions, requests/4+1); err != nil {
		return cachePoint{}, err
	}
	env.flush()
	before, err := env.stats()
	if err != nil {
		return cachePoint{}, err
	}
	durs, err := driveCacheLoad(env, pool, sessions, requests)
	if err != nil {
		return cachePoint{}, err
	}
	after, err := env.stats()
	if err != nil {
		return cachePoint{}, err
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	flows := after.Flows - before.Flows
	return cachePoint{
		flows:     flows,
		exchanges: (after.MessagesOut - before.MessagesOut) - flows,
		hits:      after.CacheHits - before.CacheHits,
		misses:    after.CacheMisses - before.CacheMisses,
		coalesced: after.CacheCoalesced - before.CacheCoalesced,
		p50:       durs[len(durs)/2],
	}, nil
}

// E16 is the response-cache experiment: the Flickr search mediator at 8
// sessions, repeat workload, cache off vs on, asserting the headline
// service-exchange reduction.
func E16() Result {
	r := Result{ID: "E16", Artifact: "cross-flow response cache"}
	pool := []string{"tree", "cat", "lake", "night"}
	const sessions, requests = 8, 24
	measure := func(cached bool) (cachePoint, error) {
		env, err := startCacheEnv(cached)
		if err != nil {
			return cachePoint{}, err
		}
		defer env.close()
		return measureCachePoint(env, pool, sessions, requests)
	}
	off, err := measure(false)
	if err != nil {
		r.Err = err
		return r
	}
	on, err := measure(true)
	if err != nil {
		r.Err = err
		return r
	}
	if off.exchanges != uint64(sessions*requests) {
		r.Err = fmt.Errorf("cache off: exchanges = %d, want %d", off.exchanges, sessions*requests)
		return r
	}
	if on.exchanges*5 > off.exchanges {
		r.Err = fmt.Errorf("exchanges %d -> %d: reduction below 5x", off.exchanges, on.exchanges)
		return r
	}
	if on.hits+on.coalesced+on.misses != on.flows {
		r.Err = fmt.Errorf("cache counters %d+%d+%d don't cover %d flows",
			on.hits, on.coalesced, on.misses, on.flows)
		return r
	}
	r.Detail = fmt.Sprintf("repeat workload @%d sessions: %d -> %d service exchanges (%.1fx), p50 %v -> %v",
		sessions, off.exchanges, on.exchanges,
		float64(off.exchanges)/float64(max(on.exchanges, 1)),
		off.p50.Round(time.Microsecond), on.p50.Round(time.Microsecond))
	return r
}

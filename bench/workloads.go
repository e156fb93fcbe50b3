package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"starlink/internal/casestudy"
	"starlink/internal/mdl"
	"starlink/internal/message"
	"starlink/internal/network"
	"starlink/internal/protocol/giop"
	"starlink/internal/protocol/rest"
	"starlink/internal/protocol/soap"
	"starlink/internal/protocol/xmlrpc"
	"starlink/internal/services/photostore"
	"starlink/internal/services/picasa"
	"starlink/starlink"
)

// session is one closed-loop client: flow runs one complete flow, checks
// every reply and reports whether the request came from the hot pool
// (always false outside search_cached_mix).
type session struct {
	flow  func() (hot bool, err error)
	close func()
}

// fixture is one workload's simulated service, generated inputs and the
// clients that drive them. It holds everything that depends on the seed.
type fixture struct {
	// target is the simulated service's address; stop ends the service.
	target string
	stop   func()
	// register adds the workload's models and deployment specs to a
	// freshly loaded model set, pointing the service side at target.
	register func(m *starlink.Models, target string) error
	// mediated and native open one client session against the mediator
	// (or gateway) resp. against the service with the service's own client.
	mediated func(addr string, client int) *session
	native   func(client int) *session
}

// workload is one row of the benchmark: what is deployed, how many
// closed-loop clients drive it and what the engine must show per flow.
type workload struct {
	name    string
	clients int
	why     string
	// deploy is the spec name handed to starlink.Deploy in the timed phase;
	// mediator is the plain mediator spec (different only when a gateway
	// fronts it) and the key of its engine snapshot.
	deploy, mediator string
	// exchanges and sessions are the service exchanges and client sessions
	// one flow must cost; the run fails when the engine reports otherwise.
	exchanges, sessions float64
	// cached marks the workload that asserts the 80 % hit ratio.
	cached bool
	// clientFramer and serviceFramer frame the two sides' wire messages
	// for the tee and the replay.
	clientFramer, serviceFramer network.Framer
	start                       func(modelsDir string, seed int64) (*fixture, error)
}

var workloads = []workload{
	{
		name: "add_steady", clients: 1, deploy: "add", mediator: "add",
		exchanges: 1, sessions: 0,
		clientFramer: network.GIOPFramer{}, serviceFramer: network.HTTPFramer{},
		start: func(_ string, seed int64) (*fixture, error) { return startAdd(seed, false) },
		why:   "1 client, one persistent GIOP session to SOAP Plus: the smallest messages, so fixed per-message cost (framing, syscalls, engine loop, binary MDL) does the work and XML almost none",
	},
	{
		name: "flickr_flow", clients: 1, deploy: "flickr-xmlrpc", mediator: "flickr-xmlrpc",
		exchanges: 3, sessions: 0,
		clientFramer: network.HTTPFramer{}, serviceFramer: network.HTTPFramer{},
		start: startFlickr,
		why:   "1 client, the paper's four-operation XML-RPC flow to Picasa REST: mid-size XML, seven translations, the MTL cache and a write, so XML decode and bind do the work",
	},
	{
		name: "search_large", clients: 1, deploy: "search", mediator: "search",
		exchanges: 1, sessions: 0,
		clientFramer: network.HTTPFramer{}, serviceFramer: network.HTTPFramer{},
		start: func(_ string, seed int64) (*fixture, error) { return startSearch(seed, false) },
		why:   "1 client, 50-result searches over 500 photos with no cache: bytes dominate, so XML tokenising, the 50-entry foreach and allocation do the work and fixed cost is small",
	},
	{
		name: "search_cached_mix", clients: mixClients, deploy: "search", mediator: "search",
		exchanges: 0.20, sessions: 0, cached: true,
		clientFramer: network.HTTPFramer{}, serviceFramer: network.HTTPFramer{},
		start: func(_ string, seed int64) (*fixture, error) { return startSearch(seed, true) },
		why:   "2 clients, the same search behind the response cache, 80 % from 4 hot queries and 20 % from 2816 cold ones the LRU never holds: one layer used two ways, hits against misses",
	},
	{
		name: "add_churn_gateway", clients: 2, deploy: "front", mediator: "add",
		exchanges: 1, sessions: 1,
		clientFramer: network.GIOPFramer{}, serviceFramer: network.HTTPFramer{},
		start: func(_ string, seed int64) (*fixture, error) { return startAdd(seed, true) },
		why:   "2 clients, a new connection per Add through the gateway: connection set-up instead of steady state, so sniffing, admission, session start and teardown and pool reuse do the work",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// clientTimeout bounds one client exchange, so a hung mediator fails the
// flow instead of hanging the benchmark.
const clientTimeout = 10 * time.Second

// clientRand is the input generator of one client session: the same seed
// and client index always produce the same request sequence.
func clientRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*64 + int64(client)))
}

// ---- Add (GIOP client -> SOAP Plus service) ----

const (
	addSpecDoc = "merged Add+Plus\n" +
		"side 1 giop objectkey=calc defs=AAdd server\n" +
		"side 2 soap path=/soap target=%s\n"
	// frontSpecDoc fronts the Add mediator with a gateway route claimed by
	// the GIOP magic.
	frontSpecDoc = "route add add match=giop\n"
)

func startAdd(seed int64, churn bool) (*fixture, error) {
	srv, err := soap.NewServer("127.0.0.1:0", "/soap", map[string]soap.Operation{
		"Plus": func(params []soap.Param) ([]soap.Param, *soap.Fault) {
			x, _ := strconv.Atoi(params[0].Value)
			y, _ := strconv.Atoi(params[1].Value)
			return []soap.Param{{Name: "result", Value: strconv.Itoa(x + y)}}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	// One compiled GIOP codec serves every client session: compiling the
	// MDL per connection would charge the load generator's set-up to the
	// churn workload.
	codec, err := giop.NewCodec()
	if err != nil {
		srv.Close()
		return nil, err
	}
	// Six-digit operands keep every request the same size.
	operands := func(rng *rand.Rand) (int64, int64) {
		return 100000 + rng.Int63n(900000), 100000 + rng.Int63n(900000)
	}
	f := &fixture{
		target: srv.Addr(),
		stop:   func() { srv.Close() },
		register: func(m *starlink.Models, target string) error {
			m.Equivalences["add-plus"] = casestudy.AddPlusEquivalence()
			if _, err := m.Merge("AAdd", "APlus", "add-plus", "Add+Plus"); err != nil {
				return err
			}
			spec, err := starlink.ParseMediatorSpec(fmt.Sprintf(addSpecDoc, target))
			if err != nil {
				return err
			}
			m.Mediators["add"] = spec
			front, err := starlink.ParseGatewaySpec(frontSpecDoc)
			if err != nil {
				return err
			}
			m.Gateways["front"] = front
			return nil
		},
	}
	f.mediated = func(addr string, client int) *session {
		rng := clientRand(seed, client)
		g := &giopClient{addr: addr, codec: codec}
		return &session{
			flow: func() (bool, error) {
				x, y := operands(rng)
				z, err := g.add(x, y)
				if churn || err != nil {
					g.close() // a failed session is not reused
				}
				if err != nil {
					return false, err
				}
				if z != x+y {
					return false, fmt.Errorf("Add(%d, %d) = %d", x, y, z)
				}
				return false, nil
			},
			close: g.close,
		}
	}
	f.native = func(client int) *session {
		rng := clientRand(seed, client)
		c := soap.NewClient(srv.Addr(), "/soap")
		return &session{
			flow: func() (bool, error) {
				x, y := operands(rng)
				if churn {
					defer c.Close()
				}
				out, err := c.Call("Plus",
					soap.Param{Name: "x", Value: strconv.FormatInt(x, 10)},
					soap.Param{Name: "y", Value: strconv.FormatInt(y, 10)})
				if err != nil {
					return false, err
				}
				if len(out) != 1 || out[0].Value != strconv.FormatInt(x+y, 10) {
					return false, fmt.Errorf("Plus(%d, %d) = %v", x, y, out)
				}
				return false, nil
			},
			close: func() { c.Close() },
		}
	}
	return f, nil
}

// giopClient is the IIOP Add client: giop.Client's exchange with a shared
// codec and a connection it can drop and redial between flows.
type giopClient struct {
	addr  string
	codec mdl.Codec
	conn  network.Conn
	id    uint64
}

func (g *giopClient) close() {
	if g.conn != nil {
		g.conn.Close()
		g.conn = nil
	}
}

func (g *giopClient) add(x, y int64) (int64, error) {
	if g.conn == nil {
		conn, err := network.Engine{}.Dial(network.Semantics{Transport: "tcp"}, g.addr, network.GIOPFramer{})
		if err != nil {
			return 0, err
		}
		g.conn = conn
	}
	g.id++
	wire, err := g.codec.Compose(giop.NewRequest(g.id, "calc", "Add",
		[]*message.Field{giop.IntParam(x), giop.IntParam(y)}))
	if err != nil {
		return 0, err
	}
	if err := g.conn.SetDeadline(time.Now().Add(clientTimeout)); err != nil {
		return 0, err
	}
	if err := g.conn.Send(wire); err != nil {
		return 0, err
	}
	data, err := g.conn.Recv()
	if err != nil {
		return 0, err
	}
	reply, err := g.codec.Parse(data)
	if err != nil {
		return 0, err
	}
	if id, _ := reply.GetInt("RequestID"); reply.Name != "GIOPReply" || uint64(id) != g.id {
		return 0, fmt.Errorf("giop: reply %s id %d for request %d", reply.Name, id, g.id)
	}
	arr, err := reply.Lookup("ParameterArray")
	if err != nil || len(arr.Children) != 1 {
		return 0, fmt.Errorf("giop: reply without one result")
	}
	if status, _ := reply.GetInt("ReplyStatus"); status != giop.StatusNoException {
		return 0, fmt.Errorf("giop: exception %d: %s", status, arr.Children[0].ValueString())
	}
	return strconv.ParseInt(arr.Children[0].ValueString(), 10, 64)
}

// ---- Flickr four-operation flow (XML-RPC client -> Picasa REST) ----

const (
	xmlrpcPath = "/services/xmlrpc"
	// flickrSpecTarget is the placeholder service address in
	// models/flickr-xmlrpc.mediator that the benchmark rewrites.
	flickrSpecTarget = "127.0.0.1:9002"
	// writePhoto takes the flow's addComment; the reads never query it, so
	// the comment list the reads serialise stays the same length.
	writePhoto = "photo-0008"
)

func startFlickr(modelsDir string, seed int64) (*fixture, error) {
	store := photostore.New()
	pic, err := picasa.New(store)
	if err != nil {
		return nil, err
	}
	specDoc, err := os.ReadFile(filepath.Join(modelsDir, "flickr-xmlrpc.mediator"))
	if err != nil {
		pic.Close()
		return nil, err
	}
	want := store.Search("tree", 3)
	comments, err := store.Comments(want[0].ID)
	if err != nil || len(want) != 3 {
		pic.Close()
		return nil, fmt.Errorf("flickr fixture: %d photos, comments: %v", len(want), err)
	}
	f := &fixture{
		target: pic.Addr(),
		stop:   func() { pic.Close() },
		register: func(m *starlink.Models, target string) error {
			spec, err := starlink.ParseMediatorSpec(strings.ReplaceAll(string(specDoc), flickrSpecTarget, target))
			if err != nil {
				return err
			}
			m.Mediators["flickr-xmlrpc"] = spec
			return nil
		},
	}
	// nextComment checks that comment ids come back in the store's
	// sequence: one writer, so each is the previous plus one.
	nextComment := func(last *int, id string) error {
		n, err := strconv.Atoi(strings.TrimPrefix(id, "comment-"))
		if err != nil || (*last != 0 && n != *last+1) {
			return fmt.Errorf("addComment id %q after comment-%04d", id, *last)
		}
		*last = n
		return nil
	}
	f.mediated = func(addr string, client int) *session {
		rng := clientRand(seed, client)
		c := xmlrpc.NewClient(addr, xmlrpcPath)
		last := 0
		return &session{
			flow: func() (bool, error) {
				v, err := c.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{"text": "tree", "per_page": int64(3)})
				if err != nil {
					return false, err
				}
				id, err := checkPhotos(v, 3, want[0].ID)
				if err != nil {
					return false, err
				}
				v, err = c.Call(casestudy.FlickrGetInfo, map[string]xmlrpc.Value{"photo_id": id})
				if err != nil {
					return false, err
				}
				if title := member(v, "title"); title != want[0].Title {
					return false, fmt.Errorf("getInfo title %v, want %q", title, want[0].Title)
				}
				v, err = c.Call(casestudy.FlickrGetComments, map[string]xmlrpc.Value{"photo_id": id})
				if err != nil {
					return false, err
				}
				if list, _ := member(v, "comments").([]xmlrpc.Value); len(list) != len(comments) {
					return false, fmt.Errorf("getComments returned %d comments, want %d", len(list), len(comments))
				}
				v, err = c.Call(casestudy.FlickrAddComment, map[string]xmlrpc.Value{
					"photo_id": writePhoto, "comment_text": fmt.Sprintf("bench-%06d", rng.Intn(1000000)),
				})
				if err != nil {
					return false, err
				}
				cid, _ := member(v, "comment_id").(string)
				return false, nextComment(&last, cid)
			},
			close: func() { c.Close() },
		}
	}
	f.native = func(client int) *session {
		rng := clientRand(seed, client)
		c := rest.NewClient(pic.Addr())
		last := 0
		return &session{
			// The native flow is three calls: Picasa has no getInfo, a
			// search entry already carries what Flickr's getInfo returns.
			flow: func() (bool, error) {
				feed, err := c.Search("tree", 3)
				if err != nil {
					return false, err
				}
				if feed.Len() != 3 || feed.Entries[0].ID != want[0].ID || feed.Entries[0].Title != want[0].Title {
					return false, fmt.Errorf("native search returned %d entries, first %+v", feed.Len(), feed.Entries)
				}
				cf, err := c.Comments(feed.Entries[0].ID)
				if err != nil {
					return false, err
				}
				if cf.Len() != len(comments) {
					return false, fmt.Errorf("native comments returned %d, want %d", cf.Len(), len(comments))
				}
				e, err := c.AddComment(writePhoto, fmt.Sprintf("bench-%06d", rng.Intn(1000000)))
				if err != nil {
					return false, err
				}
				return false, nextComment(&last, e.ID)
			},
			close: func() { c.Close() },
		}
	}
	return f, nil
}

// member returns one member of an XML-RPC struct result, nil when absent.
func member(v xmlrpc.Value, name string) xmlrpc.Value {
	st, _ := v.(map[string]xmlrpc.Value)
	return st[name]
}

// checkPhotos checks a search reply's length and first id, which it returns.
func checkPhotos(v xmlrpc.Value, n int, firstID string) (string, error) {
	photos, _ := member(v, "photos").([]xmlrpc.Value)
	if len(photos) != n {
		return "", fmt.Errorf("search returned %d photos, want %d", len(photos), n)
	}
	id, _ := member(photos[0], "id").(string)
	if id != firstID {
		return "", fmt.Errorf("search first id %q, want %q", id, firstID)
	}
	return id, nil
}

// ---- Search (XML-RPC search -> Picasa REST, with or without the cache) ----

const (
	searchSpecDoc = "merged Flickr-Search-to-Picasa-REST\n" +
		"side 1 xmlrpc path=" + xmlrpcPath + " defs=AFlickr server\n" +
		"side 2 rest routes=picasa target=%[1]s\n" +
		"hostmap " + casestudy.PicasaHost + " = %[1]s\n"
	cacheSpecDoc = "cacheable " + casestudy.PicasaSearch + " ttl=60s\ncache_size 256\n"
	searchCorpus = 500
	// mixClients clients share the cached mix's cold pool, each taking every
	// mixClients-th request of it.
	mixClients = 2
	// mixBlock is the cached mix's period: one cold request in every block
	// of five, so exactly 80 % of the requests come from the hot pool.
	mixBlock = 5
)

// query is one search request and the first photo id its reply must carry.
type query struct {
	text    string
	perPage int
	first   string
}

func startSearch(seed int64, cached bool) (*fixture, error) {
	store := photostore.Generate(searchCorpus)
	pic, err := picasa.New(store)
	if err != nil {
		return nil, err
	}
	mk := func(text string, perPage int) query {
		return query{text: text, perPage: perPage, first: store.Search(text, 1)[0].ID}
	}
	rng := rand.New(rand.NewSource(seed))
	// hot is what every client cycles (uncached) or draws from 80 % of the
	// time (cached); cold holds the requests the cache must never hold.
	var hot, cold []query
	if cached {
		hot = []query{mk("tree", 5), mk("city", 6), mk("cat", 7), mk("sea", 8)}
		// The store matches case-insensitively, the cache key does not: the
		// case variants of four other theme words are 704 distinct texts,
		// 2816 (text, per_page) pairs, all with 100 matching photos.
		for _, word := range []string{"mountain", "harbour", "outdoors", "nature"} {
			for mask := 0; mask < 1<<len(word); mask++ {
				text := []byte(word)
				for i := range text {
					if mask&(1<<i) != 0 {
						text[i] -= 'a' - 'A'
					}
				}
				for perPage := 5; perPage <= 8; perPage++ {
					cold = append(cold, mk(string(text), perPage))
				}
			}
		}
		rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
	} else {
		for _, word := range []string{"tree", "city", "cat", "mountain", "harbour"} {
			hot = append(hot, mk(word, 50))
		}
		rng.Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
	}
	f := &fixture{
		target: pic.Addr(),
		stop:   func() { pic.Close() },
		register: func(m *starlink.Models, target string) error {
			merged := casestudy.SearchMediator()
			m.Merged[merged.Name] = merged
			doc := fmt.Sprintf(searchSpecDoc, target)
			if cached {
				doc += cacheSpecDoc
			}
			spec, err := starlink.ParseMediatorSpec(doc)
			if err != nil {
				return err
			}
			m.Mediators["search"] = spec
			return nil
		},
	}
	// next yields the client's request sequence. Uncached: the five theme
	// words in seeded order. Cached: blocks of five with one cold request
	// at a seeded position, cold requests taken in turn from the client's
	// share of the cold pool so the LRU has dropped each before it recurs.
	next := func(client int) func() (query, bool) {
		rng := clientRand(seed, client)
		n, coldAt, coldNext := 0, 0, client
		return func() (query, bool) {
			defer func() { n++ }()
			if !cached {
				return hot[n%len(hot)], false
			}
			if n%mixBlock == 0 {
				coldAt = rng.Intn(mixBlock)
			}
			if n%mixBlock == coldAt {
				q := cold[coldNext%len(cold)]
				coldNext += mixClients
				return q, false
			}
			return hot[rng.Intn(len(hot))], true
		}
	}
	f.mediated = func(addr string, client int) *session {
		gen := next(client)
		c := xmlrpc.NewClient(addr, xmlrpcPath)
		return &session{
			flow: func() (bool, error) {
				q, isHot := gen()
				v, err := c.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{"text": q.text, "per_page": int64(q.perPage)})
				if err != nil {
					return isHot, err
				}
				_, err = checkPhotos(v, q.perPage, q.first)
				return isHot, err
			},
			close: func() { c.Close() },
		}
	}
	f.native = func(client int) *session {
		gen := next(client)
		c := rest.NewClient(pic.Addr())
		return &session{
			flow: func() (bool, error) {
				q, isHot := gen()
				feed, err := c.Search(q.text, q.perPage)
				if err != nil {
					return isHot, err
				}
				if feed.Len() != q.perPage || feed.Entries[0].ID != q.first {
					return isHot, fmt.Errorf("native search %q returned %d entries", q.text, feed.Len())
				}
				return isHot, nil
			},
			close: func() { c.Close() },
		}
	}
	return f, nil
}

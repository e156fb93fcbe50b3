package engine_test

import (
	"bytes"
	"slices"
	"testing"

	"starlink/internal/bind"
	"starlink/internal/casestudy"
	"starlink/internal/engine"
	"starlink/internal/network"
	"starlink/internal/protocol/httpwire"
	"starlink/internal/protocol/xmlrpc"
)

// A flow reads its packets into buffers it borrows and gives back when it
// ends (DESIGN.md §9, "Wire buffers"): a packet is dead once the next one
// is read into its buffer. These tests hold the engine to that: nothing it
// keeps — a parsed request, a parsed reply, a reply the response cache
// stores — may read a packet's bytes after the buffer is reused.

// scribbleConn overwrites all the storage it is lent with 0xff before it
// reads a packet into it. The engine lends a buffer only once the packets
// in it are dead, so anything still reading one of them reads garbage —
// also where the next packet is shorter and would have left its tail alone.
type scribbleConn struct{ network.Conn }

func (c *scribbleConn) Recv() ([]byte, error) { return c.RecvAppend(nil) }

func (c *scribbleConn) RecvAppend(dst []byte) ([]byte, error) {
	lent := dst[len(dst):cap(dst)]
	for i := range lent {
		lent[i] = 0xff
	}
	return c.Conn.RecvAppend(dst)
}

// scribbling wraps every service connection of color 2 in a scribbleConn.
func scribbling(cfg *engine.Config) {
	cfg.Sides[2].Dialer = func(sem network.Semantics, addr string, framer network.Framer) (network.Conn, error) {
		conn, err := network.Engine{}.Dial(sem, addr, framer)
		if err != nil {
			return nil, err
		}
		return &scribbleConn{Conn: conn}, nil
	}
}

// replies hands one client connection to med, in a scribbleConn when
// scribble is set, sends it each packet next makes, and returns copies of
// the replies. next is given the reply before, nil for the first.
func replies(t *testing.T, med *engine.Mediator, framer network.Framer, scribble bool, n int, next func(i int, last []byte) []byte) [][]byte {
	t.Helper()
	client, conn := network.Pipe(framer)
	t.Cleanup(func() { client.Close() })
	if scribble {
		conn = &scribbleConn{Conn: conn}
	}
	if err := med.ServeConn(conn); err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	var last []byte
	for i := 0; i < n; i++ {
		reply, err := roundTrip(client, next(i, last))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		out, last = append(out, reply), reply
	}
	return out
}

// flickrCall is the XML-RPC call of one Flickr operation.
func flickrCall(t *testing.T, method string, params map[string]xmlrpc.Value) []byte {
	t.Helper()
	body, err := xmlrpc.MarshalCall(method, params)
	if err != nil {
		t.Fatal(err)
	}
	return (&httpwire.Request{Method: "POST", Target: "/services/xmlrpc",
		Headers: httpwire.Headers{{Name: "Content-Type", Value: "text/xml"}}, Body: body}).Marshal()
}

// firstPhotoID reads the id of the first photo of a search reply.
func firstPhotoID(t *testing.T, reply []byte) string {
	t.Helper()
	resp, err := httpwire.ParseResponse(reply)
	if err != nil {
		t.Fatal(err)
	}
	v, err := xmlrpc.ParseResponse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	photos, _ := v.(map[string]xmlrpc.Value)["photos"].([]xmlrpc.Value)
	if len(photos) == 0 {
		t.Fatalf("search reply %q has no photos", reply)
	}
	id, _ := photos[0].(map[string]xmlrpc.Value)["id"].(string)
	return id
}

// TestBorrowedPacketsAreNotReadAfterReuse runs the Flickr four-operation
// flow, the Add flow and a cached search of hits and misses with every
// buffer the mediator lends a read, client side and service side,
// scribbled over first, and without: the client replies are the same, byte
// for byte. The search's later hits are served from entries
// stored before many scribbles, and equal the replies of the misses that
// stored them.
func TestBorrowedPacketsAreNotReadAfterReuse(t *testing.T) {
	flickr := func(scribble bool) [][]byte {
		tweaks := []func(*engine.Config){}
		if scribble {
			tweaks = append(tweaks, scribbling)
		}
		med, _ := startCaseStudy(t, casestudy.XMLRPCMediator(),
			&bind.XMLRPCBinder{Path: "/services/xmlrpc", Defs: casestudy.FlickrUsage().Messages}, tweaks...)
		var id string
		return replies(t, med, network.HTTPFramer{}, scribble, 8, func(i int, last []byte) []byte {
			switch i % 4 {
			case 0:
				return flickrCall(t, casestudy.FlickrSearch, map[string]xmlrpc.Value{"api_key": "k", "text": "tree", "per_page": int64(3 + i)})
			case 1:
				id = firstPhotoID(t, last)
				return flickrCall(t, casestudy.FlickrGetInfo, map[string]xmlrpc.Value{"api_key": "k", "photo_id": id})
			case 2:
				return flickrCall(t, casestudy.FlickrGetComments, map[string]xmlrpc.Value{"photo_id": id})
			default:
				return flickrCall(t, casestudy.FlickrAddComment, map[string]xmlrpc.Value{"photo_id": id, "comment_text": "borrowed"})
			}
		})
	}
	sameReplies(t, "flickr", flickr(false), flickr(true))

	operands := [][2]int64{{20, 22}, {1, 2}, {7, 5}, {-3, 3}}
	add := func(scribble bool) [][]byte {
		med := startAddPlus(t, startPlusService(t, nil).Addr(), func(cfg *engine.Config) {
			if scribble {
				scribbling(cfg)
			}
		})
		return replies(t, med, network.GIOPFramer{}, scribble, 12, func(i int, _ []byte) []byte {
			xy := operands[i%len(operands)]
			return addPacket(t, uint64(i+1), xy[0], xy[1])
		})
	}
	sameReplies(t, "add", add(false), add(true))

	queries := []string{"tree", "cat", "tree", "lake", "cat", "tree", "night", "tree"}
	search := func(scribble bool) ([][]byte, engine.Stats) {
		tweaks := []func(*engine.Config){cacheSearch}
		if scribble {
			tweaks = append(tweaks, scribbling)
		}
		med, _ := startCaseStudy(t, casestudy.SearchMediator(), searchBinder(), tweaks...)
		out := replies(t, med, network.HTTPFramer{}, scribble, len(queries), func(i int, _ []byte) []byte {
			return searchPacket(t, queries[i], 5)
		})
		return out, med.Snapshot().Stats
	}
	off, _ := search(false)
	on, st := search(true)
	sameReplies(t, "search", off, on)
	if st.CacheHits != 4 || st.CacheMisses != 4 {
		t.Errorf("search: %d hits and %d misses, want 4 and 4", st.CacheHits, st.CacheMisses)
	}
	for i, q := range queries {
		j := slices.Index(queries, q)
		if j < i && !bytes.Equal(on[i], on[j]) {
			t.Errorf("search %d for %q, a hit, differs from search %d, the miss that stored it", i, q, j)
		}
	}
}

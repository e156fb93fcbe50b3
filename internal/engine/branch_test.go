package engine_test

import (
	"errors"
	"testing"

	"starlink/internal/automata"
	"starlink/internal/bind"
	"starlink/internal/casestudy"
	"starlink/internal/engine"
	"starlink/internal/protocol/xmlrpc"
	"starlink/internal/services/photostore"
	"starlink/internal/services/picasa"
)

// branchingMediator models client-chosen behaviour: after the search the
// client may call getInfo any number of times (each answered from the
// mediator cache and looping back to the hub) before calling getComments,
// which ends the behaviour. The automaton is a graph with a cycle — the
// engine follows whichever invocation arrives.
func branchingMediator() *automata.Merged {
	st := func(name string, colors ...int) automata.MergedState {
		return automata.MergedState{Name: name, Colors: colors}
	}
	msg := func(from, to string, color int, act automata.Action, m string) automata.MergedTransition {
		return automata.MergedTransition{From: from, To: to, Kind: automata.KindMessage, Color: color, Action: act, Message: m}
	}
	gamma := func(from, to, mtl string) automata.MergedTransition {
		return automata.MergedTransition{From: from, To: to, Kind: automata.KindGamma, MTL: mtl}
	}
	return &automata.Merged{
		Name: "branching-photo", Color1: 1, Color2: 2,
		Start: "b0", Final: []string{"bEnd"},
		States: []automata.MergedState{
			st("b0", 1), st("b1", 1, 2), st("b2", 2), st("b3", 2), st("b4", 1, 2),
			st("b5", 1), st("hub", 1),
			st("i1", 1), st("i2", 1),
			st("c1", 1, 2), st("c2", 2), st("c3", 2), st("c4", 1, 2), st("c5", 1), st("bEnd", 1),
		},
		Transitions: []automata.MergedTransition{
			// search -> picasa search
			msg("b0", "b1", 1, automata.Send, casestudy.FlickrSearch),
			gamma("b1", "b2", `
sethost("`+casestudy.PicasaHost+`")
b2.Msg.q = b1.Msg.text
try b2.Msg.max-results = b1.Msg.per_page
`),
			msg("b2", "b3", 2, automata.Send, casestudy.PicasaSearch),
			msg("b3", "b4", 2, automata.Receive, casestudy.PicasaSearchReply),
			gamma("b4", "b5", `
b5.Msg.photos = newarray("photos")
foreach e in b4.Msg.entry {
  cache(e.id, e)
  p = newstruct("item")
  p.id = e.id
  p.title = e.title
  b5.Msg.photos.item[] = p
}
b5.Msg.total = count(b4.Msg)
`),
			msg("b5", "hub", 1, automata.Receive, casestudy.FlickrSearchReply),

			// hub branch 1: getInfo (cache), loops back to hub
			msg("hub", "i1", 1, automata.Send, casestudy.FlickrGetInfo),
			gamma("i1", "i2", `
entry = getcache(i1.Msg.photo_id)
i2.Msg.id = i1.Msg.photo_id
i2.Msg.title = entry.title
try i2.Msg.url = entry.src
`),
			msg("i2", "hub", 1, automata.Receive, casestudy.FlickrGetInfoReply),

			// hub branch 2: getComments -> picasa -> end
			msg("hub", "c1", 1, automata.Send, casestudy.FlickrGetComments),
			gamma("c1", "c2", `
c2.Msg.photo_id = c1.Msg.photo_id
c2.Msg.kind = "comment"
`),
			msg("c2", "c3", 2, automata.Send, casestudy.PicasaGetComments),
			msg("c3", "c4", 2, automata.Receive, casestudy.PicasaCommentsReply),
			gamma("c4", "c5", `
c5.Msg.comments = newarray("comments")
foreach e in c4.Msg.entry {
  c = newstruct("item")
  c.id = e.id
  c.text = e.summary
  c5.Msg.comments.item[] = c
}
`),
			msg("c5", "bEnd", 1, automata.Receive, casestudy.FlickrCommentsReply),
		},
	}
}

func startBranching(t *testing.T) (*engine.Mediator, *photostore.Store) {
	t.Helper()
	store := photostore.New()
	pic, err := picasa.New(store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pic.Close() })
	routes, err := bind.ParseRoutes(casestudy.PicasaRoutesDoc)
	if err != nil {
		t.Fatal(err)
	}
	restBinder, err := bind.NewRESTBinder(routes)
	if err != nil {
		t.Fatal(err)
	}
	med, err := engine.New(engine.Config{
		Merged: branchingMediator(),
		Sides: map[int]*engine.Side{
			1: {Binder: &bind.XMLRPCBinder{Path: "/x", Defs: casestudy.FlickrUsage().Messages}},
			2: {Binder: restBinder, Target: pic.Addr()},
		},
		HostMap: map[string]string{casestudy.PicasaHost: pic.Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := med.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { med.Close() })
	return med, store
}

func TestBranchingClientRepeatsGetInfo(t *testing.T) {
	med, store := startBranching(t)
	c := xmlrpc.NewClient(med.Addr(), "/x")
	defer c.Close()

	v, err := c.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{
		"text": "tree", "per_page": int64(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	photos := v.(map[string]xmlrpc.Value)["photos"].([]xmlrpc.Value)
	if len(photos) != 3 {
		t.Fatalf("photos = %d", len(photos))
	}
	// The client inspects EVERY photo before asking for comments — three
	// getInfo calls through the hub loop.
	for _, p := range photos {
		id := p.(map[string]xmlrpc.Value)["id"].(string)
		info, err := c.Call(casestudy.FlickrGetInfo, map[string]xmlrpc.Value{"photo_id": id})
		if err != nil {
			t.Fatalf("getInfo(%s): %v", id, err)
		}
		want, _ := store.Get(id)
		if got := info.(map[string]xmlrpc.Value)["title"]; got != want.Title {
			t.Errorf("title(%s) = %v", id, got)
		}
	}
	first := photos[0].(map[string]xmlrpc.Value)["id"].(string)
	if _, err := c.Call(casestudy.FlickrGetComments, map[string]xmlrpc.Value{"photo_id": first}); err != nil {
		t.Fatal(err)
	}
}

func TestBranchingClientSkipsGetInfo(t *testing.T) {
	med, _ := startBranching(t)
	c := xmlrpc.NewClient(med.Addr(), "/x")
	defer c.Close()
	if _, err := c.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{
		"text": "tree", "per_page": int64(1),
	}); err != nil {
		t.Fatal(err)
	}
	// Straight to getComments: the other branch is simply not taken.
	if _, err := c.Call(casestudy.FlickrGetComments, map[string]xmlrpc.Value{
		"photo_id": "photo-0001",
	}); err != nil {
		t.Fatal(err)
	}
}

func TestBranchingRejectsUnofferedAction(t *testing.T) {
	med, _ := startBranching(t)
	c := xmlrpc.NewClient(med.Addr(), "/x")
	defer c.Close()
	if _, err := c.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{
		"text": "tree", "per_page": int64(1),
	}); err != nil {
		t.Fatal(err)
	}
	// addComment is not a hub alternative in this model.
	if _, err := c.Call(casestudy.FlickrAddComment, map[string]xmlrpc.Value{
		"photo_id": "photo-0001", "comment_text": "x",
	}); err == nil {
		t.Error("unoffered action accepted at branch state")
	}
}

// TestBranchRejectsMixedAlternatives: a branch state whose alternatives
// are not all client invocations is a model error, refused when the
// mediator is built.
func TestBranchRejectsMixedAlternatives(t *testing.T) {
	bad := branchingMediator()
	// Add a service-side alternative at the hub.
	bad.Transitions = append(bad.Transitions, automata.MergedTransition{
		From: "hub", To: "c2", Kind: automata.KindMessage,
		Color: 2, Action: automata.Send, Message: casestudy.PicasaGetComments,
	})
	routes, _ := bind.ParseRoutes(casestudy.PicasaRoutesDoc)
	restBinder, err := bind.NewRESTBinder(routes)
	if err != nil {
		t.Fatal(err)
	}
	_, err = engine.New(engine.Config{
		Merged: bad,
		Sides: map[int]*engine.Side{
			1: {Binder: &bind.XMLRPCBinder{Path: "/x", Defs: casestudy.FlickrUsage().Messages}},
			2: {Binder: restBinder, Target: "127.0.0.1:1"},
		},
	})
	if !errors.Is(err, engine.ErrConfig) {
		t.Errorf("err = %v, want ErrConfig", err)
	}
}

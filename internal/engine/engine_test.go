package engine_test

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"starlink/internal/automata"
	"starlink/internal/bind"
	"starlink/internal/casestudy"
	"starlink/internal/engine"
	"starlink/internal/protocol/giop"
	"starlink/internal/protocol/soap"
	"starlink/internal/protocol/xmlrpc"
	"starlink/internal/services/photostore"
	"starlink/internal/services/picasa"
)

// startPlusService runs the SOAP addition service of Fig. 7/8. before,
// when not nil, runs ahead of every Plus: a stall, a gate, a counter.
func startPlusService(t testing.TB, before func()) *soap.Server {
	t.Helper()
	srv, err := soap.NewServer("127.0.0.1:0", "/soap", plusOperations(before))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// plusOperations is the service startPlusService runs, for the test that
// binds it itself, to restart it on the address it had.
func plusOperations(before func()) map[string]soap.Operation {
	return map[string]soap.Operation{
		"Plus": func(params []soap.Param) ([]soap.Param, *soap.Fault) {
			if before != nil {
				before()
			}
			var x, y int
			for _, p := range params {
				n, err := strconv.Atoi(p.Value)
				if err != nil {
					return nil, &soap.Fault{Code: "Client", Message: "non-integer " + p.Name}
				}
				switch p.Name {
				case "x":
					x = n
				case "y":
					y = n
				}
			}
			return []soap.Param{{Name: "result", Value: strconv.Itoa(x + y)}}, nil
		},
	}
}

// startAddPlus wires the Fig. 7/8 mediator — the automatic merge of the
// Add and Plus usage automata, bound to GIOP on the client side and to
// SOAP at target (an address, or the name of a backend set) on the
// service side — lets the caller adjust the configuration, and starts it.
func startAddPlus(t testing.TB, target string, tweak func(*engine.Config)) *engine.Mediator {
	t.Helper()
	merged, err := automata.Merge(casestudy.AddUsage(), casestudy.PlusUsage(), automata.MergeOptions{
		Name:  "Add+Plus",
		Equiv: casestudy.AddPlusEquivalence(),
	})
	if err != nil {
		t.Fatal(err)
	}
	giopBinder, err := bind.NewGIOPBinder("calc", casestudy.AddUsage().Messages)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{
		Merged: merged,
		Sides: map[int]*engine.Side{
			1: {Binder: giopBinder},
			2: {Binder: &bind.SOAPBinder{Path: "/soap"}, Target: target},
		},
	}
	if tweak != nil {
		tweak(&cfg)
	}
	med, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := med.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { med.Close() })
	return med
}

// TestE4AddPlusAutoMerged is experiment E4: the Fig. 7/8 scenario run
// fully automatically — the merge of the Add and Plus usage automata is
// generated (including its γ MTL), bound to GIOP on the client side and
// SOAP on the service side, and executed; an unmodified IIOP client calls
// Add and the SOAP service's Plus answers.
func TestE4AddPlusAutoMerged(t *testing.T) {
	plusSrv := startPlusService(t, nil)

	merged, err := automata.Merge(casestudy.AddUsage(), casestudy.PlusUsage(), automata.MergeOptions{
		Name:  "Add+Plus",
		Equiv: casestudy.AddPlusEquivalence(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Strength != automata.StronglyMerged {
		t.Fatalf("strength = %v", merged.Strength)
	}

	giopBinder, err := bind.NewGIOPBinder("calc", casestudy.AddUsage().Messages)
	if err != nil {
		t.Fatal(err)
	}
	var trace traceLog
	med, err := engine.New(engine.Config{
		Merged: merged,
		Sides: map[int]*engine.Side{
			1: {Binder: giopBinder},
			2: {Binder: &bind.SOAPBinder{Path: "/soap"}, Target: plusSrv.Addr()},
		},
		Trace: trace.record,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := med.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer med.Close()

	// The unmodified IIOP client from the giop package.
	client, err := giop.Dial(med.Addr(), "calc")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	results, err := client.Invoke("Add", giop.IntParam(20), giop.IntParam(22))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].ValueString() != "42" {
		t.Errorf("Add via mediator = %+v", results)
	}
	// Repeat on the same connection (automaton restarts).
	results, err = client.Invoke("Add", giop.IntParam(1), giop.IntParam(2))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].ValueString() != "3" {
		t.Errorf("second Add = %v", results[0].ValueString())
	}
	// Each flow is the same walk: the client's Add, γ, the service's Plus
	// and its reply, γ, the client's reply.
	addFlow := []string{
		"flow-start",
		"transition m1 m0->m1 1", "transition m2 m1->m2 0", "transition m3 m2->m3 2",
		"transition m4 m3->m4 2", "transition m5 m4->m5 0", "transition m6 m5->m6 1",
		"flow-end",
	}
	trace.expect(t, 1, addFlow)
	trace.expect(t, 2, addFlow)
}

// traceLog keeps what a mediator traces — kind, state, transition and
// colour of each event — by flow. Every event of a flow is traced before
// its last reply is written, so a client holding that reply finds the
// flow's events all here.
type traceLog struct {
	mu    sync.Mutex
	flows map[uint64][]string
}

func (l *traceLog) record(ev engine.TraceEvent) {
	line := ev.Kind.String()
	if ev.Kind == engine.TraceTransition {
		line = fmt.Sprintf("%v %s %s %d", ev.Kind, ev.State, ev.Transition, ev.Color)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.flows == nil {
		l.flows = make(map[uint64][]string)
	}
	l.flows[ev.Flow] = append(l.flows[ev.Flow], line)
}

// expect fails t unless flow traced exactly want.
func (l *traceLog) expect(t *testing.T, flow uint64, want []string) {
	t.Helper()
	l.mu.Lock()
	got := l.flows[flow]
	l.mu.Unlock()
	if !slices.Equal(got, want) {
		t.Errorf("flow %d traced\n%s\nwant\n%s", flow, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// startCaseStudy wires the Picasa service and a mediator for the given
// merged automaton with the given client-side binder, adjusted by tweaks.
func startCaseStudy(t *testing.T, merged *automata.Merged, clientBinder bind.Binder, tweaks ...func(*engine.Config)) (*engine.Mediator, *photostore.Store) {
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
	cfg := engine.Config{
		Merged: merged,
		Sides: map[int]*engine.Side{
			1: {Binder: clientBinder},
			2: {Binder: restBinder, Target: pic.Addr()},
		},
		HostMap: map[string]string{casestudy.PicasaHost: pic.Addr()},
	}
	for _, tweak := range tweaks {
		tweak(&cfg)
	}
	med, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := med.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { med.Close() })
	return med, store
}

// TestE5E6E7XMLRPCFullCaseStudy is experiments E5 (Fig. 9 search
// binding), E6 (Fig. 10 getInfo cache mismatch) and E7 (full case study)
// for the XML-RPC client: the unmodified Flickr XML-RPC client completes
// search -> getInfo -> getComments -> addComment against the Picasa REST
// service through the Starlink mediator.
func TestE5E6E7XMLRPCFullCaseStudy(t *testing.T) {
	var trace traceLog
	med, store := startCaseStudy(t, casestudy.XMLRPCMediator(),
		&bind.XMLRPCBinder{Path: "/services/xmlrpc", Defs: casestudy.FlickrUsage().Messages},
		func(cfg *engine.Config) { cfg.Trace = trace.record })

	c := xmlrpc.NewClient(med.Addr(), "/services/xmlrpc")
	defer c.Close()

	// E5: search via Fig. 9 binding.
	v, err := c.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{
		"api_key": "k", "text": "tree", "per_page": int64(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, ok := v.(map[string]xmlrpc.Value)
	if !ok {
		t.Fatalf("search result type %T", v)
	}
	photos, ok := res["photos"].([]xmlrpc.Value)
	if !ok || len(photos) != 3 {
		t.Fatalf("photos = %#v", res["photos"])
	}
	if res["total"] != int64(3) && res["total"] != "3" {
		t.Errorf("total = %#v", res["total"])
	}
	first := photos[0].(map[string]xmlrpc.Value)
	id, _ := first["id"].(string)
	if id == "" {
		t.Fatalf("first photo = %#v", first)
	}
	// The mediated results must match a native Picasa search.
	nativePhotos := store.Search("tree", 3)
	if len(photos) != len(nativePhotos) || id != nativePhotos[0].ID {
		t.Errorf("mediated: %d photos, first %q; native: %d, first %q", len(photos), id, len(nativePhotos), nativePhotos[0].ID)
	}

	// E6: getInfo is answered from the mediator's cache (Fig. 10); Picasa
	// has no such operation.
	v, err = c.Call(casestudy.FlickrGetInfo, map[string]xmlrpc.Value{
		"api_key": "k", "photo_id": id,
	})
	if err != nil {
		t.Fatal(err)
	}
	info := v.(map[string]xmlrpc.Value)
	want, _ := store.Get(id)
	if info["url"] != want.URL {
		t.Errorf("getInfo url = %#v, want %q", info["url"], want.URL)
	}
	if info["title"] != want.Title {
		t.Errorf("getInfo title = %#v, want %q", info["title"], want.Title)
	}

	// E7: comments round trip.
	v, err = c.Call(casestudy.FlickrGetComments, map[string]xmlrpc.Value{"photo_id": id})
	if err != nil {
		t.Fatal(err)
	}
	commentsBefore := v.(map[string]xmlrpc.Value)["comments"].([]xmlrpc.Value)

	v, err = c.Call(casestudy.FlickrAddComment, map[string]xmlrpc.Value{
		"photo_id": id, "comment_text": "mediated comment",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cid, _ := v.(map[string]xmlrpc.Value)["comment_id"].(string); cid == "" {
		t.Errorf("addComment = %#v", v)
	}

	// The comment landed in the real Picasa store.
	after, err := store.Comments(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(commentsBefore)+1 {
		t.Errorf("store comments = %d, want %d", len(after), len(commentsBefore)+1)
	}
	last := after[len(after)-1]
	if last.Text != "mediated comment" || last.Author != "flickr-user" {
		t.Errorf("stored comment = %+v", last)
	}
	// The four operations are one flow of 21 transitions: search and
	// getComments and addComment each a γ, a Picasa exchange and a γ
	// between the client's call and its reply; getInfo a single γ.
	trace.expect(t, 1, []string{
		"flow-start",
		"transition m1 m0->m1 1", "transition m2 m1->m2 0", "transition m3 m2->m3 2",
		"transition m4 m3->m4 2", "transition m5 m4->m5 0", "transition m6 m5->m6 1",
		"transition m7 m6->m7 1", "transition m8 m7->m8 0", "transition m9 m8->m9 1",
		"transition m10 m9->m10 1", "transition m11 m10->m11 0", "transition m12 m11->m12 2",
		"transition m13 m12->m13 2", "transition m14 m13->m14 0", "transition m15 m14->m15 1",
		"transition m16 m15->m16 1", "transition m17 m16->m17 0", "transition m18 m17->m18 2",
		"transition m19 m18->m19 2", "transition m20 m19->m20 0", "transition m21 m20->m21 1",
		"flow-end",
	})
}

// TestE7SOAPFullCaseStudy is the SOAP half of E7: the same application
// merge bound to SOAP instead of XML-RPC (hypothesis 2 of Section 5).
func TestE7SOAPFullCaseStudy(t *testing.T) {
	med, store := startCaseStudy(t, casestudy.SOAPMediator(),
		&bind.SOAPBinder{Path: "/services/soap"})

	c := soap.NewClient(med.Addr(), "/services/soap")
	defer c.Close()

	results, err := c.Call(casestudy.FlickrSearch,
		soap.Param{Name: "api_key", Value: "k"},
		soap.Param{Name: "text", Value: "tree"},
		soap.Param{Name: "per_page", Value: "2"},
	)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	total := ""
	for _, p := range results {
		switch p.Name {
		case "photo_id":
			ids = append(ids, p.Value)
		case "total":
			total = p.Value
		}
	}
	if len(ids) != 2 || total != "2" {
		t.Fatalf("search results = %+v", results)
	}

	info, err := c.Call(casestudy.FlickrGetInfo, soap.Param{Name: "photo_id", Value: ids[0]})
	if err != nil {
		t.Fatal(err)
	}
	url := ""
	for _, p := range info {
		if p.Name == "url" {
			url = p.Value
		}
	}
	want, _ := store.Get(ids[0])
	if url != want.URL {
		t.Errorf("url = %q, want %q", url, want.URL)
	}

	comments, err := c.Call(casestudy.FlickrGetComments, soap.Param{Name: "photo_id", Value: ids[0]})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range comments {
		if p.Name == "comment" && !strings.Contains(p.Value, ":") {
			t.Errorf("comment shape = %q", p.Value)
		}
	}

	added, err := c.Call(casestudy.FlickrAddComment,
		soap.Param{Name: "photo_id", Value: ids[0]},
		soap.Param{Name: "comment_text", Value: "soap mediated"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 1 || added[0].Name != "comment_id" || added[0].Value == "" {
		t.Errorf("added = %+v", added)
	}
	stored, _ := store.Comments(ids[0])
	if stored[len(stored)-1].Text != "soap mediated" {
		t.Errorf("stored = %+v", stored[len(stored)-1])
	}
}

func TestUnexpectedActionEndsSession(t *testing.T) {
	med, _ := startCaseStudy(t, casestudy.XMLRPCMediator(),
		&bind.XMLRPCBinder{Path: "/services/xmlrpc", Defs: casestudy.FlickrUsage().Messages})
	c := xmlrpc.NewClient(med.Addr(), "/services/xmlrpc")
	defer c.Close()
	// The automaton expects search first; getInfo out of order fails.
	if _, err := c.Call(casestudy.FlickrGetInfo, map[string]xmlrpc.Value{"photo_id": "x"}); err == nil {
		t.Error("out-of-order action succeeded")
	}
}

func TestConfigValidation(t *testing.T) {
	merged := casestudy.XMLRPCMediator()
	cases := []struct {
		name string
		cfg  engine.Config
	}{
		{"no automaton", engine.Config{}},
		{"missing binder", engine.Config{Merged: merged, Sides: map[int]*engine.Side{
			1: {Binder: &bind.SOAPBinder{Path: "/x"}},
		}}},
		{"missing target", engine.Config{Merged: merged, Sides: map[int]*engine.Side{
			1: {Binder: &bind.SOAPBinder{Path: "/x"}},
			2: {Binder: &bind.SOAPBinder{Path: "/y"}},
		}}},
		// Every flow has a budget: there is no value that turns it off.
		{"negative flow deadline", engine.Config{Merged: merged, FlowDeadline: -time.Second, Sides: map[int]*engine.Side{
			1: {Binder: &bind.SOAPBinder{Path: "/x"}},
			2: {Binder: &bind.SOAPBinder{Path: "/y"}, Target: "127.0.0.1:1"},
		}}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := engine.New(tt.cfg); !errors.Is(err, engine.ErrConfig) {
				t.Errorf("err = %v, want ErrConfig", err)
			}
		})
	}
}

// TestBadGammaMTLRejectedAtConstruction: a γ that does not compile is a
// configuration error, and it names the line of the γ it is on, counting
// comment lines.
func TestBadGammaMTLRejectedAtConstruction(t *testing.T) {
	for src, line := range map[string]string{
		"= broken =":                   "line 1:",
		"# a note\n# another\nx = = y": "line 3:",
	} {
		merged := casestudy.XMLRPCMediator()
		for i := range merged.Transitions {
			if merged.Transitions[i].Kind == automata.KindGamma {
				merged.Transitions[i].MTL = src
				break
			}
		}
		_, err := engine.New(engine.Config{
			Merged: merged,
			Sides: map[int]*engine.Side{
				1: {Binder: &bind.SOAPBinder{Path: "/x"}},
				2: {Binder: &bind.SOAPBinder{Path: "/y"}, Target: "127.0.0.1:1"},
			},
		})
		if !errors.Is(err, engine.ErrConfig) || !strings.Contains(fmt.Sprint(err), line) {
			t.Errorf("γ %q: err = %v, want ErrConfig at %s", src, err, line)
		}
	}
}

// TestNewRefusesAutomataItCannotRun: an automaton a flow could not walk
// is refused when the mediator is built, not when a flow reaches the
// fault after the client's request was read. Each row breaks the Add⊕Plus
// merge one way.
func TestNewRefusesAutomataItCannotRun(t *testing.T) {
	for _, tt := range []struct {
		name   string
		breaks func(m *automata.Merged)
	}{
		{"a γ leads to a dead end", func(m *automata.Merged) {
			m.Transitions = slices.DeleteFunc(m.Transitions, func(tr automata.MergedTransition) bool { return tr.From == "m5" })
		}},
		{"a branch offers one action twice", func(m *automata.Merged) {
			m.Transitions = append(m.Transitions, automata.MergedTransition{
				From: "m0", To: "m5", Kind: automata.KindMessage, Color: 1, Action: automata.Send, Message: "Add"})
		}},
		{"a branch mixes in a service send", func(m *automata.Merged) {
			m.Transitions = append(m.Transitions, automata.MergedTransition{
				From: "m0", To: "m3", Kind: automata.KindMessage, Color: 2, Action: automata.Send, Message: "Plus"})
		}},
		{"a γ-only cycle never ends", func(m *automata.Merged) {
			m.States = append(m.States, automata.MergedState{Name: "m7", Colors: []int{1, 2}})
			for i, tr := range m.Transitions {
				if tr.From == "m1" {
					m.Transitions[i].To = "m7"
				}
			}
			m.Transitions = append(m.Transitions, automata.MergedTransition{From: "m7", To: "m1", Kind: automata.KindGamma})
		}},
		{"no traversal enters a state", func(m *automata.Merged) {
			m.States = append(m.States, automata.MergedState{Name: "m7", Colors: []int{1, 2}})
			m.Transitions = append(m.Transitions, automata.MergedTransition{From: "m7", To: "m5", Kind: automata.KindGamma})
		}},
		{"an arc leaves the final state", func(m *automata.Merged) {
			m.Transitions = append(m.Transitions, automata.MergedTransition{
				From: "m6", To: "m3", Kind: automata.KindMessage, Color: 2, Action: automata.Send, Message: "Plus"})
		}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			merged, err := automata.Merge(casestudy.AddUsage(), casestudy.PlusUsage(), automata.MergeOptions{
				Name: "Add+Plus", Equiv: casestudy.AddPlusEquivalence(),
			})
			if err != nil {
				t.Fatal(err)
			}
			tt.breaks(merged)
			giopBinder, err := bind.NewGIOPBinder("calc", casestudy.AddUsage().Messages)
			if err != nil {
				t.Fatal(err)
			}
			_, err = engine.New(engine.Config{
				Merged: merged,
				Sides: map[int]*engine.Side{
					1: {Binder: giopBinder},
					2: {Binder: &bind.SOAPBinder{Path: "/soap"}, Target: "127.0.0.1:1"},
				},
			})
			if !errors.Is(err, engine.ErrConfig) {
				t.Errorf("err = %v, want ErrConfig", err)
			}
		})
	}
}

func TestMediatorCloseIdempotent(t *testing.T) {
	med, _ := startCaseStudy(t, casestudy.XMLRPCMediator(),
		&bind.XMLRPCBinder{Path: "/services/xmlrpc", Defs: casestudy.FlickrUsage().Messages})
	if err := med.Close(); err != nil {
		t.Fatal(err)
	}
	if err := med.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMediatorStats(t *testing.T) {
	med, _ := startCaseStudy(t, casestudy.XMLRPCMediator(),
		&bind.XMLRPCBinder{Path: "/services/xmlrpc", Defs: casestudy.FlickrUsage().Messages})
	c := xmlrpc.NewClient(med.Addr(), "/services/xmlrpc")
	v, err := c.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{
		"text": "tree", "per_page": int64(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	photos := v.(map[string]xmlrpc.Value)["photos"].([]xmlrpc.Value)
	id := photos[0].(map[string]xmlrpc.Value)["id"].(string)
	for _, call := range []string{casestudy.FlickrGetInfo, casestudy.FlickrGetComments} {
		if _, err := c.Call(call, map[string]xmlrpc.Value{"photo_id": id}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Call(casestudy.FlickrAddComment, map[string]xmlrpc.Value{
		"photo_id": id, "comment_text": "x",
	}); err != nil {
		t.Fatal(err)
	}
	c.Close()

	deadline := time.Now().Add(2 * time.Second)
	var st engine.Stats
	for time.Now().Before(deadline) {
		st = med.Snapshot().Stats
		if st.Flows == 1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Sessions != 1 || st.Flows != 1 {
		t.Errorf("sessions=%d flows=%d", st.Sessions, st.Flows)
	}
	if st.Translations != 7 {
		t.Errorf("translations = %d, want 7 (2 per intertwined op + 1 for getInfo)", st.Translations)
	}
	// 4 client requests + 3 service replies in; 4 client replies + 3
	// service requests out.
	if st.MessagesIn != 7 || st.MessagesOut != 7 {
		t.Errorf("messages in/out = %d/%d", st.MessagesIn, st.MessagesOut)
	}
	if st.Failures != 0 {
		t.Errorf("failures = %d", st.Failures)
	}
}

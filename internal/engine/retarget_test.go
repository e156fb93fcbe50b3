package engine_test

import (
	"testing"

	"starlink/internal/automata"
	"starlink/internal/bind"
	"starlink/internal/engine"
	"starlink/internal/protocol/soap"
)

// startWhoAmIServer starts a SOAP service whose "query"/"query2" ops
// answer with the server's identity, so tests can tell which endpoint a
// mediated call actually reached.
func startWhoAmIServer(t *testing.T, who string) *soap.Server {
	t.Helper()
	op := func([]soap.Param) ([]soap.Param, *soap.Fault) {
		return []soap.Param{{Name: "who", Value: who}}, nil
	}
	srv, err := soap.NewServer("127.0.0.1:0", "/soap", map[string]soap.Operation{
		"query": op, "query2": op,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func soapResult(t *testing.T, results []soap.Param, name string) string {
	t.Helper()
	for _, p := range results {
		if p.Name == name {
			return p.Value
		}
	}
	t.Fatalf("no %q param in %+v", name, results)
	return ""
}

// TestHostOverrideClearedBetweenFlows: a sethost() retarget belongs to
// the flow that executed it. Regression: the override leaked into every
// later flow of the session, so once a client took the "alt" path all
// its subsequent direct calls were misrouted to the alternate host.
func TestHostOverrideClearedBetweenFlows(t *testing.T) {
	direct := startWhoAmIServer(t, "direct")
	alt := startWhoAmIServer(t, "alt")

	merged := &automata.Merged{
		Name: "retarget-per-flow", Color1: 1, Color2: 2,
		Start: "r0", Final: []string{"rF"},
		States: []automata.MergedState{
			{Name: "r0", Colors: []int{1}},
			{Name: "a1", Colors: []int{1, 2}}, {Name: "a2", Colors: []int{2}},
			{Name: "a3", Colors: []int{2}}, {Name: "a4", Colors: []int{1, 2}},
			{Name: "a5", Colors: []int{1}},
			{Name: "d1", Colors: []int{1, 2}}, {Name: "d2", Colors: []int{2}},
			{Name: "d3", Colors: []int{2}}, {Name: "d4", Colors: []int{1, 2}},
			{Name: "d5", Colors: []int{1}},
			{Name: "rF", Colors: []int{1}},
		},
		Transitions: []automata.MergedTransition{
			// viaAlt branch: retarget to the logical host "alt".
			{From: "r0", To: "a1", Kind: automata.KindMessage, Color: 1, Action: automata.Send, Message: "pingAlt"},
			{From: "a1", To: "a2", Kind: automata.KindGamma, MTL: `sethost("alt")` + "\na2.Msg.q = a1.Msg.q"},
			{From: "a2", To: "a3", Kind: automata.KindMessage, Color: 2, Action: automata.Send, Message: "query"},
			{From: "a3", To: "a4", Kind: automata.KindMessage, Color: 2, Action: automata.Receive, Message: "query.reply"},
			{From: "a4", To: "a5", Kind: automata.KindGamma, MTL: "a5.Msg.who = a4.Msg.who"},
			{From: "a5", To: "rF", Kind: automata.KindMessage, Color: 1, Action: automata.Receive, Message: "pingAlt.reply"},
			// direct branch: no retarget, must reach the configured Target.
			{From: "r0", To: "d1", Kind: automata.KindMessage, Color: 1, Action: automata.Send, Message: "pingDirect"},
			{From: "d1", To: "d2", Kind: automata.KindGamma, MTL: "d2.Msg.q = d1.Msg.q"},
			{From: "d2", To: "d3", Kind: automata.KindMessage, Color: 2, Action: automata.Send, Message: "query"},
			{From: "d3", To: "d4", Kind: automata.KindMessage, Color: 2, Action: automata.Receive, Message: "query.reply"},
			{From: "d4", To: "d5", Kind: automata.KindGamma, MTL: "d5.Msg.who = d4.Msg.who"},
			{From: "d5", To: "rF", Kind: automata.KindMessage, Color: 1, Action: automata.Receive, Message: "pingDirect.reply"},
		},
	}

	med, err := engine.New(engine.Config{
		Merged: merged,
		Sides: map[int]*engine.Side{
			1: {Binder: &bind.SOAPBinder{Path: "/in"}},
			2: {Binder: &bind.SOAPBinder{Path: "/soap"}, Target: direct.Addr()},
		},
		HostMap: map[string]string{"alt": alt.Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := med.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer med.Close()

	c := newSOAPClient(t, med.Addr(), "/in")

	// Flow 1 takes the retargeted path.
	results, err := c.Call("pingAlt", soapParam("q", "x"))
	if err != nil {
		t.Fatal(err)
	}
	if who := soapResult(t, results, "who"); who != "alt" {
		t.Errorf("flow 1 reached %q, want alt", who)
	}
	// Flow 2 on the SAME session must go back to the default target.
	results, err = c.Call("pingDirect", soapParam("q", "y"))
	if err != nil {
		t.Fatal(err)
	}
	if who := soapResult(t, results, "who"); who != "direct" {
		t.Errorf("flow 2 reached %q, want direct (stale sethost leaked across flows)", who)
	}
}

// TestRetargetAfterCachedConnection: a sethost() firing after the
// service connection was already dialled must evict the cached
// connection and redial. Regression: the retarget was silently ignored
// because the session kept using the cached socket.
func TestRetargetAfterCachedConnection(t *testing.T) {
	direct := startWhoAmIServer(t, "direct")
	alt := startWhoAmIServer(t, "alt")

	merged := &automata.Merged{
		Name: "retarget-mid-flow", Color1: 1, Color2: 2,
		Start: "s0", Final: []string{"sF"},
		States: []automata.MergedState{
			{Name: "s0", Colors: []int{1}}, {Name: "s1", Colors: []int{1, 2}},
			{Name: "s2", Colors: []int{2}}, {Name: "s3", Colors: []int{2}},
			{Name: "s4", Colors: []int{1, 2}}, {Name: "s5", Colors: []int{2}},
			{Name: "s6", Colors: []int{2}}, {Name: "s7", Colors: []int{1, 2}},
			{Name: "s8", Colors: []int{1}}, {Name: "sF", Colors: []int{1}},
		},
		Transitions: []automata.MergedTransition{
			{From: "s0", To: "s1", Kind: automata.KindMessage, Color: 1, Action: automata.Send, Message: "probe"},
			{From: "s1", To: "s2", Kind: automata.KindGamma, MTL: "s2.Msg.q = s1.Msg.q"},
			// First exchange goes to the configured target and caches the conn.
			{From: "s2", To: "s3", Kind: automata.KindMessage, Color: 2, Action: automata.Send, Message: "query"},
			{From: "s3", To: "s4", Kind: automata.KindMessage, Color: 2, Action: automata.Receive, Message: "query.reply"},
			// Retarget fires AFTER color 2 already has a cached connection.
			{From: "s4", To: "s5", Kind: automata.KindGamma, MTL: `sethost("alt")` + "\ns5.Msg.q = s1.Msg.q"},
			{From: "s5", To: "s6", Kind: automata.KindMessage, Color: 2, Action: automata.Send, Message: "query2"},
			{From: "s6", To: "s7", Kind: automata.KindMessage, Color: 2, Action: automata.Receive, Message: "query2.reply"},
			{From: "s7", To: "s8", Kind: automata.KindGamma, MTL: "s8.Msg.first = s4.Msg.who\ns8.Msg.second = s7.Msg.who"},
			{From: "s8", To: "sF", Kind: automata.KindMessage, Color: 1, Action: automata.Receive, Message: "probe.reply"},
		},
	}

	med, err := engine.New(engine.Config{
		Merged: merged,
		Sides: map[int]*engine.Side{
			1: {Binder: &bind.SOAPBinder{Path: "/in"}},
			2: {Binder: &bind.SOAPBinder{Path: "/soap"}, Target: direct.Addr()},
		},
		HostMap: map[string]string{"alt": alt.Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := med.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer med.Close()

	c := newSOAPClient(t, med.Addr(), "/in")
	results, err := c.Call("probe", soapParam("q", "x"))
	if err != nil {
		t.Fatal(err)
	}
	if got := soapResult(t, results, "first"); got != "direct" {
		t.Errorf("first exchange reached %q, want direct", got)
	}
	if got := soapResult(t, results, "second"); got != "alt" {
		t.Errorf("second exchange reached %q, want alt (retarget after caching ignored)", got)
	}
	// The retarget shows up as exactly one connection replacement.
	if st := med.Snapshot().Stats; st.Redials != 1 {
		t.Errorf("Redials = %d, want 1", st.Redials)
	}
}

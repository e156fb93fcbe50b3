// Repository-level benchmarks for what the mediation benchmark (go run
// ./bench, bench/README.md) does not answer: merge time, the
// protocol-only bridge, the fault-recovery soak, UDP discovery, and the
// paper's DSL-interpreted vs hand-coded parsing comparison. What a
// mediated flow costs, and where the time goes, is measured there.
package starlink_test

import (
	"strconv"
	"testing"
	"time"

	"starlink/internal/automata"
	"starlink/internal/bind"
	"starlink/internal/bridge"
	"starlink/internal/casestudy"
	"starlink/internal/engine"
	"starlink/internal/mdl"
	"starlink/internal/mdl/textenc"
	"starlink/internal/network"
	"starlink/internal/protocol/giop"
	"starlink/internal/protocol/httpwire"
	"starlink/internal/protocol/slp"
	"starlink/internal/protocol/soap"
	"starlink/internal/protocol/ssdp"
	"starlink/internal/protocol/xmlrpc"
)

// ---- E2 (Fig. 3): merged-automaton construction ----

func BenchmarkE2MergeFlickrPicasa(b *testing.B) {
	a1, a2 := casestudy.FlickrUsage(), casestudy.PicasaUsage()
	eq := casestudy.Equivalence()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := automata.Merge(a1, a2, automata.MergeOptions{Equiv: eq}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E4 baseline: the protocol-only bridge ----

func BenchmarkE4AddViaProtocolBridge(b *testing.B) {
	// The protocol-only baseline on the workload it CAN handle (identical
	// operation names): an XML-RPC client against a SOAP "Add" service.
	srv, err := soap.NewServer("127.0.0.1:0", "/soap", map[string]soap.Operation{
		"Add": func(params []soap.Param) ([]soap.Param, *soap.Fault) {
			x, _ := strconv.Atoi(params[0].Value)
			y, _ := strconv.Atoi(params[1].Value)
			return []soap.Param{{Name: "result", Value: strconv.Itoa(x + y)}}, nil
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	br := bridge.New(&bind.XMLRPCBinder{Path: "/x"}, &bind.SOAPBinder{Path: "/soap"}, srv.Addr())
	if err := br.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { br.Close() })
	c := xmlrpc.NewClient(br.Addr(), "/x")
	b.Cleanup(func() { c.Close() })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call("Add", map[string]xmlrpc.Value{"x": int64(20), "y": int64(22)}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E11: fault-recovery soak ----

// BenchmarkE11FaultRecoverySoak measures the mediated Add/Plus exchange
// while the SOAP service is periodically killed and restarted on the
// same address. Every iteration must still succeed: the figure reported
// is the mediation latency including amortised evict/redial/replay
// recovery.
func BenchmarkE11FaultRecoverySoak(b *testing.B) {
	plusOps := map[string]soap.Operation{
		"Plus": func(params []soap.Param) ([]soap.Param, *soap.Fault) {
			x, _ := strconv.Atoi(params[0].Value)
			y, _ := strconv.Atoi(params[1].Value)
			return []soap.Param{{Name: "result", Value: strconv.Itoa(x + y)}}, nil
		},
	}
	srv, err := soap.NewServer("127.0.0.1:0", "/soap", plusOps)
	if err != nil {
		b.Fatal(err)
	}
	addr := srv.Addr()
	b.Cleanup(func() { srv.Close() })
	merged, err := automata.Merge(casestudy.AddUsage(), casestudy.PlusUsage(), automata.MergeOptions{
		Equiv: casestudy.AddPlusEquivalence(),
	})
	if err != nil {
		b.Fatal(err)
	}
	giopBinder, err := bind.NewGIOPBinder("calc", casestudy.AddUsage().Messages)
	if err != nil {
		b.Fatal(err)
	}
	med, err := engine.New(engine.Config{
		Merged: merged,
		Sides: map[int]*engine.Side{
			1: {Binder: giopBinder},
			2: {Binder: &bind.SOAPBinder{Path: "/soap"}, Target: addr},
		},
		Retry: &engine.RetryPolicy{Attempts: engine.DefaultRetryAttempts, Backoff: time.Millisecond},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := med.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { med.Close() })
	client, err := giop.Dial(med.Addr(), "calc")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { client.Close() })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%50 == 0 {
			// Kill the service mid-session and bring it back on the same
			// address; the next exchange hits the dead cached connection.
			srv.Close()
			srv, err = soap.NewServer(addr, "/soap", plusOps)
			if err != nil {
				b.Fatalf("rebind %s: %v", addr, err)
			}
		}
		results, err := client.Invoke("Add", giop.IntParam(20), giop.IntParam(22))
		if err != nil {
			b.Fatalf("iteration %d: %v", i, err)
		}
		if results[0].ValueString() != "42" {
			b.Fatalf("iteration %d: got %s", i, results[0].ValueString())
		}
	}
	b.StopTimer()
	st := med.Stats()
	if b.N > 50 && st.Redials == 0 {
		b.Error("soak never exercised recovery")
	}
	if st.Failures != 0 {
		b.Errorf("failures = %d, want 0", st.Failures)
	}
	b.ReportMetric(float64(st.Redials), "redials")
}

// ---- Ablation (DESIGN.md §5) ----

// BenchmarkAblationHTTPParseMDL vs ...HandCoded: the cost of interpreting
// the text-MDL spec instead of the hand-written HTTP parser.
func BenchmarkAblationHTTPParseMDL(b *testing.B) {
	spec, err := mdl.ParseString(bind.HTTPMDL)
	if err != nil {
		b.Fatal(err)
	}
	codec, err := textenc.New(spec)
	if err != nil {
		b.Fatal(err)
	}
	raw := []byte("GET /data/feed/api/all?q=tree&max-results=3 HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Parse(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationHTTPParseHandCoded(b *testing.B) {
	raw := []byte("GET /data/feed/api/all?q=tree&max-results=3 HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := httpwire.ParseRequest(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E10: discovery mediation latency ----

func BenchmarkE10DiscoveryMediated(b *testing.B) {
	da, err := slp.NewDirectoryAgent("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { da.Close() })
	da.Register("service:printer:lpr", slp.URLEntry{URL: "service:printer:lpr://p", Lifetime: 60})
	slpBinder, err := bind.NewSLPBinder()
	if err != nil {
		b.Fatal(err)
	}
	med, err := engine.New(engine.Config{
		Merged: casestudy.DiscoveryMediator(),
		Sides: map[int]*engine.Side{
			1: {Binder: &bind.SSDPBinder{}, Net: network.Semantics{Transport: "udp"}},
			2: {Binder: slpBinder, Net: network.Semantics{Transport: "udp"}, Target: da.Addr()},
		},
		Funcs: casestudy.DiscoveryFuncs(),
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := med.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { med.Close() })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ssdp.Search(med.Addr(), "urn:schemas-upnp-org:service:Printer:1", 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10DiscoveryDirectSLP(b *testing.B) {
	da, err := slp.NewDirectoryAgent("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { da.Close() })
	da.Register("service:printer:lpr", slp.URLEntry{URL: "service:printer:lpr://p", Lifetime: 60})
	c, err := slp.Dial(da.Addr())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Find("service:printer:lpr", "DEFAULT"); err != nil {
			b.Fatal(err)
		}
	}
}

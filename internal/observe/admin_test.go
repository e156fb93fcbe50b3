package observe_test

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"starlink/internal/automata"
	"starlink/internal/backend"
	"starlink/internal/bind"
	"starlink/internal/casestudy"
	"starlink/internal/engine"
	"starlink/internal/observe"
	"starlink/internal/protocol/giop"
	"starlink/internal/protocol/httpwire"
	"starlink/internal/protocol/soap"
)

// TestAdminEndToEnd runs the Fig. 7/8 Add/Plus scenario with a fully
// instrumented mediator — observer, metrics registry and admin endpoint
// — then drives good and bad flows through it and scrapes every admin
// route over the wire.
func TestAdminEndToEnd(t *testing.T) {
	plusSrv, err := soap.NewServer("127.0.0.1:0", "/soap", map[string]soap.Operation{
		"Plus": func(params []soap.Param) ([]soap.Param, *soap.Fault) {
			sum := 0
			for _, p := range params {
				n, _ := strconv.Atoi(p.Value)
				sum += n
			}
			return []soap.Param{{Name: "result", Value: strconv.Itoa(sum)}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer plusSrv.Close()

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
			2: {Binder: &bind.SOAPBinder{Path: "/soap"}, Target: plusSrv.Addr()},
		},
	}
	obs := observe.Instrument(&cfg, observe.Options{})
	med, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := med.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer med.Close()

	admin, err := observe.ServeAdmin("127.0.0.1:0", observe.AdminConfig{
		Registry: observe.MediatorRegistry(med, obs),
		Observer: obs,
		Mediator: med,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	// Two good flows on one session.
	client, err := giop.Dial(med.Addr(), "calc")
	if err != nil {
		t.Fatal(err)
	}
	for i, pair := range [][2]int64{{20, 22}, {1, 2}} {
		results, err := client.Invoke("Add", giop.IntParam(pair[0]), giop.IntParam(pair[1]))
		if err != nil {
			t.Fatal(err)
		}
		if results[0].ValueString() != strconv.FormatInt(pair[0]+pair[1], 10) {
			t.Fatalf("Add = %v", results)
		}
		// A traced Add flow is eight events — FlowStart, one per step of
		// the six-transition automaton, FlowEnd — all published before the
		// reply the client now holds.
		if got, want := obs.Stats().Events, uint64(8*(i+1)); got != want {
			t.Fatalf("%d trace events after %d Add flows, want %d", got, i+1, want)
		}
	}
	client.Close()

	// Each message span holds its stages, inside it: the request read and
	// parsed, the request built and a connection for it taken from the
	// pool, the reply waited for and parsed, the reply built.
	var stages []string
	for _, sp := range obs.Flows()[0].Root.Children {
		for _, c := range sp.Children {
			if sp.Kind != observe.SpanMessage || c.Duration <= 0 || c.Start.Before(sp.Start) ||
				c.Start.Add(c.Duration).After(sp.Start.Add(sp.Duration)) {
				t.Errorf("span %s (%v at %v) holds %s (%v at %v)", sp.Name, sp.Duration, sp.Start, c.Kind, c.Duration, c.Start)
			}
			stages = append(stages, fmt.Sprintf("%s %d", c.Kind, c.Color))
		}
	}
	if got, want := strings.Join(stages, ", "), "frame_read 1, parse 1, build 2, pool_wait 2, service_wait 2, parse 2, build 1"; got != want {
		t.Errorf("the stages of an Add flow are %s, want %s", got, want)
	}

	// One bad flow: the automaton expects Add, so Bogus parses but hits
	// an unexpected action — a failed flow for the flight recorder.
	bad, err := giop.Dial(med.Addr(), "calc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Invoke("Bogus", giop.IntParam(1)); err == nil {
		t.Fatal("Bogus invocation succeeded")
	}
	bad.Close()

	// Sessions tear down asynchronously after client close.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		st := med.Snapshot().Stats
		if st.Flows >= 2 && st.Failures >= 1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	hc := &httpwire.Client{Addr: admin.Addr()}
	defer hc.Close()
	get := func(target string) *httpwire.Response {
		t.Helper()
		resp, err := hc.Get(target)
		if err != nil {
			t.Fatalf("GET %s: %v", target, err)
		}
		return resp
	}

	t.Run("healthz", func(t *testing.T) {
		resp := get("/healthz")
		if resp.Status != 200 {
			t.Fatalf("status = %d", resp.Status)
		}
		var body map[string]any
		if err := json.Unmarshal(resp.Body, &body); err != nil {
			t.Fatal(err)
		}
		if body["status"] != "ok" {
			t.Errorf("status field = %v", body["status"])
		}
		if body["sessions"].(float64) < 2 {
			t.Errorf("sessions = %v", body["sessions"])
		}
		if body["tracer_enabled"] != true {
			t.Errorf("tracer_enabled = %v", body["tracer_enabled"])
		}
	})

	t.Run("metrics", func(t *testing.T) {
		resp := get("/metrics")
		if resp.Status != 200 {
			t.Fatalf("status = %d", resp.Status)
		}
		if ct := resp.Headers.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
			t.Errorf("Content-Type = %q", ct)
		}
		out := string(resp.Body)
		for _, want := range []string{
			"starlink_flows_total 2",
			"starlink_failures_total 1",
			"starlink_tracer_enabled 1",
			"starlink_transition_seconds_bucket",
			"starlink_transition_seconds_count",
			"starlink_translations_total",
			"starlink_translate_seconds_count",
			"starlink_transition_hits_total{transition=",
			// The bad flow's request was parsed too.
			`starlink_stage_seconds_count{stage="parse",color="1"} 3`,
			`starlink_stage_seconds_count{stage="parse",color="2"} 2`,
			`starlink_stage_seconds_count{stage="build",color="1"} 2`,
			`starlink_stage_seconds_count{stage="build",color="2"} 2`,
		} {
			if !strings.Contains(out, want) {
				t.Errorf("metrics missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("flows", func(t *testing.T) {
		resp := get("/flows")
		if resp.Status != 200 {
			t.Fatalf("status = %d", resp.Status)
		}
		var flows []observe.FlowTrace
		if err := json.Unmarshal(resp.Body, &flows); err != nil {
			t.Fatalf("%v\n%s", err, resp.Body)
		}
		if len(flows) != 1 {
			t.Fatalf("recorded flows = %d, want the 1 failure", len(flows))
		}
		ft := flows[0]
		if ft.Err == "" {
			t.Error("recorded flow has no error")
		}
		if !strings.Contains(ft.Wire, "Bogus") {
			t.Errorf("wire hexdump does not show the offending request:\n%s", ft.Wire)
		}
		// ?n=0 truncates to nothing but stays valid JSON.
		resp = get("/flows?n=0")
		if err := json.Unmarshal(resp.Body, &flows); err != nil || len(flows) != 0 {
			t.Errorf("flows?n=0 = %s (err %v)", resp.Body, err)
		}
	})

	t.Run("automaton.dot", func(t *testing.T) {
		resp := get("/automaton.dot")
		if resp.Status != 200 {
			t.Fatalf("status = %d", resp.Status)
		}
		dot := string(resp.Body)
		if !strings.Contains(dot, "digraph \"Add+Plus\"") {
			t.Errorf("DOT header missing:\n%s", dot)
		}
		// The good path ran twice; at least one edge label shows it.
		if !strings.Contains(dot, "(2)") {
			t.Errorf("DOT has no live hit counts:\n%s", dot)
		}
	})

	t.Run("backends without sets", func(t *testing.T) {
		if resp := get("/backends"); resp.Status != 404 {
			t.Errorf("status = %d, want 404 when the mediator has no replica sets", resp.Status)
		}
	})

	t.Run("not-found and bad method", func(t *testing.T) {
		if resp := get("/nope"); resp.Status != 404 {
			t.Errorf("status = %d, want 404", resp.Status)
		}
		resp, err := hc.Post("/metrics", "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != 400 {
			t.Errorf("POST status = %d, want 400", resp.Status)
		}
	})
}

// TestAdminBackendsRoute deploys a mediator whose service side targets a
// one-replica backend set, drives a flow through it, and checks the
// /backends JSON view plus the backend and pool metric families.
func TestAdminBackendsRoute(t *testing.T) {
	plusSrv, err := soap.NewServer("127.0.0.1:0", "/soap", map[string]soap.Operation{
		"Plus": func(params []soap.Param) ([]soap.Param, *soap.Fault) {
			x, _ := strconv.Atoi(params[0].Value)
			y, _ := strconv.Atoi(params[1].Value)
			return []soap.Param{{Name: "result", Value: strconv.Itoa(x + y)}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer plusSrv.Close()

	set, err := backend.New("plus", []string{plusSrv.Addr()}, backend.Options{Policy: backend.PowerOfTwo})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := automata.Merge(casestudy.AddUsage(), casestudy.PlusUsage(), automata.MergeOptions{
		Equiv: casestudy.AddPlusEquivalence(),
	})
	if err != nil {
		t.Fatal(err)
	}
	giopBinder, err := bind.NewGIOPBinder("calc", casestudy.AddUsage().Messages)
	if err != nil {
		t.Fatal(err)
	}
	med, err := engine.New(engine.Config{
		Merged: merged,
		Sides: map[int]*engine.Side{
			1: {Binder: giopBinder},
			2: {Binder: &bind.SOAPBinder{Path: "/soap"}, Target: "plus"},
		},
		Backends: map[string]*backend.Set{"plus": set},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := med.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer med.Close()

	admin, err := observe.ServeAdmin("127.0.0.1:0", observe.AdminConfig{
		Registry: observe.MediatorRegistry(med, nil),
		Mediator: med,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	client, err := giop.Dial(med.Addr(), "calc")
	if err != nil {
		t.Fatal(err)
	}
	results, err := client.Invoke("Add", giop.IntParam(20), giop.IntParam(22))
	client.Close()
	if err != nil {
		t.Fatal(err)
	}
	if results[0].ValueString() != "42" {
		t.Fatalf("Add = %v", results)
	}

	hc := &httpwire.Client{Addr: admin.Addr()}
	defer hc.Close()

	resp, err := hc.Get("/backends")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 {
		t.Fatalf("GET /backends status = %d\n%s", resp.Status, resp.Body)
	}
	var snaps []backend.SetSnapshot
	if err := json.Unmarshal(resp.Body, &snaps); err != nil {
		t.Fatalf("%v\n%s", err, resp.Body)
	}
	if len(snaps) != 1 || snaps[0].Name != "plus" || snaps[0].Policy != backend.PowerOfTwo {
		t.Fatalf("backends = %+v", snaps)
	}
	if len(snaps[0].Replicas) != 1 || snaps[0].Replicas[0].Addr != plusSrv.Addr() {
		t.Fatalf("replicas = %+v", snaps[0].Replicas)
	}
	if rs := snaps[0].Replicas[0]; !rs.Live || rs.Picks == 0 {
		t.Errorf("replica = %+v, want live with at least one pick", rs)
	}

	resp, err = hc.Get("/metrics")
	if err != nil {
		t.Fatal(err)
	}
	out := string(resp.Body)
	label := "plus/" + plusSrv.Addr()
	for _, want := range []string{
		"starlink_backend_up{replica=\"" + label + "\"} 1",
		"starlink_backend_picks_total{replica=\"" + label + "\"}",
		"starlink_backend_ejections_total{set=\"plus\"} 0",
		"starlink_pool_idle_conns{key=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestAdminProfiles: the three profile routes answer with a gzip-framed
// runtime/pprof profile, an out-of-range seconds is refused, and of two CPU
// profiles asked for at once one runs and the other gets 409.
func TestAdminProfiles(t *testing.T) {
	admin, err := observe.ServeAdmin("127.0.0.1:0", observe.AdminConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	get := func(target string) (*httpwire.Response, error) {
		hc := &httpwire.Client{Addr: admin.Addr()}
		defer hc.Close()
		return hc.Get(target)
	}
	isProfile := func(resp *httpwire.Response) error {
		zr, err := gzip.NewReader(bytes.NewReader(resp.Body))
		if err != nil {
			return err
		}
		data, err := io.ReadAll(zr)
		if err == nil && len(data) == 0 {
			err = errors.New("empty profile")
		}
		return err
	}

	for _, target := range []string{"/debug/heap", "/debug/goroutines"} {
		resp, err := get(target)
		if err != nil || resp.Status != 200 {
			t.Fatalf("GET %s: %v, %v", target, resp, err)
		}
		if err := isProfile(resp); err != nil {
			t.Errorf("GET %s: not a gzipped profile: %v", target, err)
		}
	}
	for _, seconds := range []string{"0", "31", "-1", "five"} {
		if resp, err := get("/debug/profile?seconds=" + seconds); err != nil || resp.Status != 400 {
			t.Errorf("seconds=%s: %v, %v; want 400", seconds, resp, err)
		}
	}

	// The second asks while the first runs for two seconds: it is refused at
	// once, not queued behind it.
	var wg sync.WaitGroup
	resps := make([]*httpwire.Response, 2)
	for i := range resps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := get("/debug/profile?seconds=2")
			if err != nil {
				t.Error(err)
				return
			}
			resps[i] = resp
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if resps[0].Status == 409 {
		resps[0], resps[1] = resps[1], resps[0]
	}
	if resps[0].Status != 200 || resps[1].Status != 409 {
		t.Fatalf("two CPU profiles at once answered %d and %d, want 200 and 409", resps[0].Status, resps[1].Status)
	}
	if err := isProfile(resps[0]); err != nil {
		t.Errorf("CPU profile: %v", err)
	}
}

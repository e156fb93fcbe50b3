package observe

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"starlink/internal/engine"
	"starlink/internal/protocol/httpwire"
)

// AdminConfig wires an Admin endpoint to its data sources. Every field
// is optional; routes whose source is missing answer 404.
type AdminConfig struct {
	// Registry backs /metrics.
	Registry *Registry
	// Observer backs /flows and /automaton.dot.
	Observer *Observer
	// Mediator enriches /healthz with live session/flow counters.
	Mediator *engine.Mediator
}

// Admin is a running admin endpoint: a pure-stdlib HTTP server (built
// on internal/protocol/httpwire, no net/http) serving
//
//	GET /healthz        liveness plus headline counters (JSON)
//	GET /metrics        Prometheus text exposition
//	GET /flows[?n=K]    the flight recorder's last failed/slow flows,
//	                    span trees and wire hexdumps included (JSON)
//	GET /automaton.dot  the live merged automaton in Graphviz format
//	                    with per-transition hit counts
//	GET /backends       the mediator's replica sets: policy, probe and
//	                    ejection config, per-replica health (JSON)
//	GET /discovery      the mediator's discovery reconcilers: source,
//	                    hysteresis tuning, members and churn (JSON)
//	GET /debug/profile[?seconds=N]
//	                    a CPU profile of the next N seconds (1 to 30,
//	                    default 5), in runtime/pprof's gzipped protobuf
//	                    form; 400 for an N out of range, 409 while another
//	                    CPU profile of the process is running
//	GET /debug/heap     the heap profile, in the same form
//	GET /debug/goroutines
//	                    the goroutine profile, in the same form
type Admin struct {
	cfg     AdminConfig
	srv     *httpwire.Server
	started time.Time
	// done is closed by Close, which cuts a CPU profile short.
	done      chan struct{}
	closeOnce sync.Once
}

// ServeAdmin binds addr and serves the admin routes in the background.
func ServeAdmin(addr string, cfg AdminConfig) (*Admin, error) {
	a := &Admin{cfg: cfg, started: time.Now(), done: make(chan struct{})}
	srv, err := httpwire.Serve(addr, a.handle)
	if err != nil {
		return nil, err
	}
	a.srv = srv
	return a, nil
}

// Addr returns the bound address ("host:port").
func (a *Admin) Addr() string { return a.srv.Addr() }

// Close stops the endpoint and waits for in-flight requests, a CPU profile
// being recorded returning what it has. It is idempotent: closing an
// already-closed endpoint is a no-op, not an error, so deployment teardown
// paths can call it unconditionally.
func (a *Admin) Close() error {
	a.closeOnce.Do(func() { close(a.done) })
	return a.srv.Close()
}

func (a *Admin) handle(req *httpwire.Request) *httpwire.Response {
	if req.Method != "GET" {
		return &httpwire.Response{Status: 400, Body: []byte("only GET is supported\n")}
	}
	switch req.Path() {
	case "/healthz":
		return a.healthz()
	case "/metrics":
		return a.metrics()
	case "/flows":
		return a.flows(req)
	case "/automaton.dot":
		return a.automatonDOT()
	case "/backends":
		return a.backends()
	case "/discovery":
		return a.discovery()
	case "/debug/profile":
		return a.cpuProfile(req)
	case "/debug/heap":
		return profile("heap")
	case "/debug/goroutines":
		return profile("goroutine")
	default:
		return &httpwire.Response{Status: 404, Body: []byte("not found\n")}
	}
}

func (a *Admin) healthz() *httpwire.Response {
	body := map[string]any{
		"status":    "ok",
		"uptime_ns": time.Since(a.started).Nanoseconds(),
	}
	if med := a.cfg.Mediator; med != nil {
		st := med.Snapshot().Stats
		body["sessions"] = st.Sessions
		body["flows"] = st.Flows
		body["failures"] = st.Failures
	}
	if obs := a.cfg.Observer; obs != nil {
		body["tracer_enabled"] = obs.Enabled()
		body["recorder_entries"] = obs.Recorder().Len()
	}
	return jsonResponse(body)
}

func (a *Admin) metrics() *httpwire.Response {
	if a.cfg.Registry == nil {
		return &httpwire.Response{Status: 404, Body: []byte("no metrics registry\n")}
	}
	var b strings.Builder
	if err := a.cfg.Registry.WriteText(&b); err != nil {
		return &httpwire.Response{Status: 500, Body: []byte(err.Error() + "\n")}
	}
	return &httpwire.Response{
		Status:  200,
		Headers: httpwire.Headers{{Name: "Content-Type", Value: "text/plain; version=0.0.4; charset=utf-8"}},
		Body:    []byte(b.String()),
	}
}

func (a *Admin) flows(req *httpwire.Request) *httpwire.Response {
	if a.cfg.Observer == nil {
		return &httpwire.Response{Status: 404, Body: []byte("no observer attached\n")}
	}
	entries := a.cfg.Observer.Recorder().Entries()
	if nStr := req.QueryValue("n"); nStr != "" {
		n, err := strconv.Atoi(nStr)
		if err != nil || n < 0 {
			return &httpwire.Response{Status: 400, Body: []byte(fmt.Sprintf("bad n %q\n", nStr))}
		}
		if n < len(entries) {
			entries = entries[len(entries)-n:]
		}
	}
	if entries == nil {
		entries = []*FlowTrace{}
	}
	return jsonResponse(entries)
}

func (a *Admin) automatonDOT() *httpwire.Response {
	if a.cfg.Observer == nil {
		return &httpwire.Response{Status: 404, Body: []byte("no observer attached\n")}
	}
	dot := a.cfg.Observer.DOT()
	if dot == "" {
		return &httpwire.Response{Status: 404, Body: []byte("observer has no merged automaton\n")}
	}
	return &httpwire.Response{
		Status:  200,
		Headers: httpwire.Headers{{Name: "Content-Type", Value: "text/vnd.graphviz; charset=utf-8"}},
		Body:    []byte(dot),
	}
}

func (a *Admin) backends() *httpwire.Response {
	if a.cfg.Mediator == nil {
		return &httpwire.Response{Status: 404, Body: []byte("no mediator attached\n")}
	}
	snaps := a.cfg.Mediator.Snapshot().Backends
	if snaps == nil {
		return &httpwire.Response{Status: 404, Body: []byte("mediator has no backend replica sets\n")}
	}
	return jsonResponse(snaps)
}

func (a *Admin) discovery() *httpwire.Response {
	if a.cfg.Mediator == nil {
		return &httpwire.Response{Status: 404, Body: []byte("no mediator attached\n")}
	}
	snaps := a.cfg.Mediator.Snapshot().Discovery
	if snaps == nil {
		return &httpwire.Response{Status: 404, Body: []byte("mediator has no discovery sources\n")}
	}
	return jsonResponse(snaps)
}

// cpuProfile records the process's CPU profile for ?seconds=N. The
// runtime runs one CPU profile at a time, so a request that comes while
// another runs — from this endpoint or any other caller — gets 409.
func (a *Admin) cpuProfile(req *httpwire.Request) *httpwire.Response {
	seconds := 5
	if s := req.QueryValue("seconds"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 || n > 30 {
			return &httpwire.Response{Status: 400, Body: []byte(fmt.Sprintf("seconds %q: want 1 to 30\n", s))}
		}
		seconds = n
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return &httpwire.Response{Status: 409, Body: []byte(err.Error() + "\n")}
	}
	timer := time.NewTimer(time.Duration(seconds) * time.Second)
	select {
	case <-timer.C:
	case <-a.done:
		timer.Stop()
	}
	pprof.StopCPUProfile()
	return profileResponse(buf.Bytes())
}

// profile writes the named runtime/pprof profile.
func profile(name string) *httpwire.Response {
	var buf bytes.Buffer
	if err := pprof.Lookup(name).WriteTo(&buf, 0); err != nil {
		return &httpwire.Response{Status: 500, Body: []byte(err.Error() + "\n")}
	}
	return profileResponse(buf.Bytes())
}

func profileResponse(data []byte) *httpwire.Response {
	return &httpwire.Response{
		Status:  200,
		Headers: httpwire.Headers{{Name: "Content-Type", Value: "application/octet-stream"}},
		Body:    data,
	}
}

func jsonResponse(v any) *httpwire.Response {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return &httpwire.Response{Status: 500, Body: []byte(err.Error() + "\n")}
	}
	return &httpwire.Response{
		Status:  200,
		Headers: httpwire.Headers{{Name: "Content-Type", Value: "application/json; charset=utf-8"}},
		Body:    append(data, '\n'),
	}
}

package engine

import (
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"starlink/internal/automata"
	"starlink/internal/bind"
	"starlink/internal/casestudy"
	"starlink/internal/message"
	"starlink/internal/network"
	"starlink/internal/protocol/giop"
	"starlink/internal/protocol/httpwire"
	"starlink/internal/protocol/soap"
	"starlink/internal/testutil"
)

// parkedSessionBytes is what a parked session may add to the live heap,
// both ends of its pipe included and the client's read buffer not
// (TestParkedSessionMemory): measured 5.97 to 6.14 KB in twenty runs, one
// 6.64, most of it the session's 4 KB read buffer, against 114.6 to 115.9
// KB, both read buffers included, when a parked session kept its flow
// state and its service connection. The budget leaves a third over the
// usual reading for what a reading can catch of the rest of the process.
const parkedSessionBytes = 8 << 10

// TestParkedSessionMemory: a keep-alive session parked between flows keeps
// its socket and little else. Sessions over a pipe each run two
// fifty-entry searches and park, the client's read buffer dropped; the
// live heap forty more of them add, read with runtime.ReadMemStats after
// GC, is measured per session, and the goroutine stacks they add
// (StackInuse) beside it. The least of three readings is taken: what else
// the process allocates while one is made only adds to it.
func TestParkedSessionMemory(t *testing.T) {
	const sessions, readings = 40, 3
	cfg, request := searchConfig(t)
	med, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := med.StartDetached(); err != nil {
		t.Fatal(err)
	}
	defer med.Close()
	var clients []net.Conn
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	// Each session parks, its flow state given back, before the next
	// starts, so the flows share one flow state. The first forty leave the
	// mediator and the process as the next find them, a flow state spare,
	// a pooled service connection and whatever is made once included.
	park := func() {
		for i := 0; i < sessions; i++ {
			client, conn := net.Pipe()
			clients = append(clients, client)
			if err := med.ServeConn(network.NewStreamConn(conn, network.HTTPFramer{})); err != nil {
				t.Fatal(err)
			}
			// The client's framed end, and the read buffer it takes, are
			// dropped once it has its replies: the client's, not the session's.
			c := &steadyClient{conn: network.NewStreamConn(client, network.HTTPFramer{})}
			for i := 0; i < 2; i++ {
				c.call(t, request, "HTTP/1.1 200")
			}
			waitSessions(t, med, func(live, parked int) bool { return parked == len(clients) })
		}
	}
	park()
	heap, stack := int64(math.MaxInt64), int64(0)
	for range readings {
		var before, after runtime.MemStats
		readHeap(&before)
		park()
		readHeap(&after)
		if h := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / sessions; h < heap {
			heap, stack = h, (int64(after.StackInuse)-int64(before.StackInuse))/sessions
		}
	}
	t.Logf("a parked session adds %d B of live heap and %d B of goroutine stacks", heap, stack)
	if testutil.RaceEnabled {
		t.Skip("race detector enabled; the heap figure is unasserted")
	}
	if heap > parkedSessionBytes {
		t.Errorf("a parked session adds %d B of live heap, budget %d", heap, parkedSessionBytes)
	}
}

// readHeap reads the memory statistics once two collections have emptied
// the sync.Pools, victim caches and all.
func readHeap(m *runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(m)
}

// waitSessions waits until done holds of the mediator's live and parked
// sessions.
func waitSessions(t *testing.T, med *Mediator, done func(live, parked int) bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		med.mu.Lock()
		ok := done(len(med.conns), len(med.idle))
		med.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the sessions did not settle")
		}
	}
}

// addPlusConfig configures the Add+Plus mediator over a GIOP client side
// against a SOAP Plus service that dial opens, and returns it with a GIOP
// Add request.
func addPlusConfig(t *testing.T, dial func(network.Semantics, string, network.Framer) (network.Conn, error)) (Config, []byte) {
	merged, err := automata.Merge(casestudy.AddUsage(), casestudy.PlusUsage(), automata.MergeOptions{
		Name: "Add+Plus", Equiv: casestudy.AddPlusEquivalence(),
	})
	if err != nil {
		t.Fatal(err)
	}
	giopBinder, err := bind.NewGIOPBinder("calc", casestudy.AddUsage().Messages)
	if err != nil {
		t.Fatal(err)
	}
	codec, err := giop.NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	request, err := codec.Compose(giop.NewRequest(7, "calc", "Add", []*message.Field{giop.IntParam(20), giop.IntParam(22)}))
	if err != nil {
		t.Fatal(err)
	}
	return Config{Merged: merged, Sides: map[int]*Side{
		1: {Binder: giopBinder},
		2: {Binder: &bind.SOAPBinder{Path: "/soap"}, Target: "plus", Dialer: dial},
	}}, request
}

// plusService is a scripted SOAP Plus service (scriptedService) that
// answers every Plus with 42.
func plusService(t *testing.T) (func(network.Semantics, string, network.Framer) (network.Conn, error), func()) {
	body, err := soap.MarshalResponse("Plus", []soap.Param{{Name: "result", Value: "42"}})
	if err != nil {
		t.Fatal(err)
	}
	sum := (&httpwire.Response{Status: 200, Headers: httpwire.Headers{{Name: "Content-Type", Value: "text/xml; charset=utf-8"}}, Body: body}).Marshal()
	return scriptedService(t, func([]byte) []byte { return sum })
}

// startAddPlusPipe starts a detached Add+Plus mediator against a Plus
// service dial opens, tweaked, and returns it with the Add request and a
// function that opens a session over a pipe.
func startAddPlusPipe(t *testing.T, dial func(network.Semantics, string, network.Framer) (network.Conn, error), tweak func(*Config)) (*Mediator, []byte, func() *steadyClient) {
	cfg, request := addPlusConfig(t, dial)
	if tweak != nil {
		tweak(&cfg)
	}
	med, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := med.StartDetached(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { med.Close() })
	return med, request, func() *steadyClient {
		client, conn := network.Pipe(network.GIOPFramer{})
		t.Cleanup(func() { client.Close() })
		if err := med.ServeConn(conn); err != nil {
			t.Fatal(err)
		}
		return &steadyClient{conn: client}
	}
}

// TestParkedSessionsShareThePool: a parked session holds no service
// connection, so PoolSize + 1 keep-alive clients, each parked after a flow,
// all run their next flow, on no more connections than the pool allows.
// When a parked session pinned its connection, the last client's first
// flow waited at the pool bound until its budget ran out.
func TestParkedSessionsShareThePool(t *testing.T) {
	const poolSize = 2
	dial, _ := plusService(t)
	med, request, open := startAddPlusPipe(t, dial, func(cfg *Config) {
		cfg.PoolSize, cfg.FlowDeadline = poolSize, 200*time.Millisecond
	})
	clients := make([]*steadyClient, poolSize+1)
	for i := range clients {
		clients[i] = open()
		clients[i].call(t, request, "GIOP")
	}
	for _, c := range clients {
		c.call(t, request, "GIOP")
	}
	if st := med.Snapshot().Stats; st.PoolDials > poolSize || st.Failures != 0 || st.Flows != 2*(poolSize+1) {
		t.Errorf("%d flows on %d dials with %d failures, want %d flows on at most %d dials", st.Flows, st.PoolDials, st.Failures, 2*(poolSize+1), poolSize)
	}
}

// TestIdleServiceCloseCostsARedial: the connection a session's flow gave
// back idles in the pool until its next flow; a service that closes it in
// between costs that flow a redial, not a failure.
func TestIdleServiceCloseCostsARedial(t *testing.T) {
	dial, closeAll := plusService(t)
	med, request, open := startAddPlusPipe(t, dial, func(cfg *Config) {
		cfg.Retry = &RetryPolicy{Attempts: 2, Backoff: time.Millisecond}
	})
	c := open()
	c.call(t, request, "GIOP")
	closeAll()
	c.call(t, request, "GIOP")
	if st := med.Snapshot().Stats; st.Redials != 1 || st.Failures != 0 || st.Flows != 2 {
		t.Errorf("Redials = %d, Failures = %d, Flows = %d; want 1, 0, 2", st.Redials, st.Failures, st.Flows)
	}
}

// TestSteadySessionReusesItsConnection: a keep-alive session's flows each
// check a connection out of the pool and give it back, and the pool's LIFO
// idle list hands the same one back: a hundred flows dial once, and every
// later checkout is a hit, not a redial.
func TestSteadySessionReusesItsConnection(t *testing.T) {
	dial, _ := plusService(t)
	med, request, open := startAddPlusPipe(t, dial, nil)
	c := open()
	for i := 0; i < 100; i++ {
		c.call(t, request, "GIOP")
	}
	if st := med.Snapshot().Stats; st.Redials != 0 || st.PoolDials != 1 || st.PoolHits != 99 {
		t.Errorf("Redials = %d, PoolDials = %d, PoolHits = %d; want 0, 1, 99", st.Redials, st.PoolDials, st.PoolHits)
	}
}

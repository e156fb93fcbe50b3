package core_test

import (
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starlink/internal/backend"
	"starlink/internal/casestudy"
	"starlink/internal/core"
	"starlink/internal/discovery"
	"starlink/internal/protocol/giop"
	"starlink/internal/protocol/soap"
)

// plusOperations is the SOAP addition service of Fig. 7/8.
var plusOperations = map[string]soap.Operation{
	"Plus": func(params []soap.Param) ([]soap.Param, *soap.Fault) {
		x, _ := strconv.Atoi(params[0].Value)
		y, _ := strconv.Atoi(params[1].Value)
		return []soap.Param{{Name: "result", Value: strconv.Itoa(x + y)}}, nil
	},
}

func startPlus(t *testing.T) *soap.Server {
	t.Helper()
	srv, err := soap.NewServer("127.0.0.1:0", "/soap", plusOperations)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// addPlusModels adds the Fig. 7/8 deployment to m as the mediator "calc":
// the automatic merge of the Add and Plus usage automata, GIOP on the
// client side, SOAP at target (an address, or the name of a backend set)
// on the service side, and whatever further directives the caller gives.
func addPlusModels(t *testing.T, m *core.Models, target, directives string) {
	t.Helper()
	m.Automata["AAdd"], m.Automata["APlus"] = casestudy.AddUsage(), casestudy.PlusUsage()
	m.Equivalences["add-plus"] = casestudy.AddPlusEquivalence()
	m.MustMerge("AAdd", "APlus", "add-plus", "Add+Plus")
	spec, err := core.ParseMediatorSpec("merged Add+Plus\n" +
		"side 1 giop objectkey=calc defs=AAdd server\n" +
		"side 2 soap path=/soap target=" + target + "\n" + directives)
	if err != nil {
		t.Fatal(err)
	}
	m.Mediators["calc"] = spec
}

// waitFor polls cond until it holds. It gives up, failing the test, when
// a soak client has already failed it or fifteen seconds have passed.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if t.Failed() {
			t.FailNow()
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// churnedSet is the fixture of the two backend-set soaks: the "calc"
// mediator deployed with its service side on the backend set "plus", and
// six IIOP clients that dial it, invoke Add(20,22) three times and hang
// up, over and over. A service link is sticky for a session's lifetime, so
// a change in the set shows only to sessions that hang up and come back:
// every session here is a fresh balancing decision. A flow that fails or
// answers wrongly fails the test and ends its client.
type churnedSet struct {
	dep   *core.Deployment
	flows atomic.Int64 // completed by the clients
	stop  func()       // stops the clients and waits for them
}

// startChurnedSet deploys the set seeded with addrs and tuned by
// directives, and starts the clients.
func startChurnedSet(t *testing.T, addrs []string, directives string) *churnedSet {
	t.Helper()
	m := core.NewModels()
	addPlusModels(t, m, "plus", "backend plus "+strings.Join(addrs, " ")+"\n"+
		"balance plus roundrobin\nretries 3\nbackoff 1ms\n"+directives)
	dep, err := m.Deploy("calc", "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })

	c := &churnedSet{dep: dep}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				client, err := giop.Dial(dep.Addr(), "calc")
				if err != nil {
					t.Errorf("client %d dial: %v", n, err)
					return
				}
				for f := 0; f < 3; f++ {
					results, err := client.Invoke("Add", giop.IntParam(20), giop.IntParam(22))
					if err != nil || results[0].ValueString() != "42" {
						client.Close()
						t.Errorf("client %d: Add = %v, %v", n, results, err)
						return
					}
					c.flows.Add(1)
				}
				client.Close()
			}
		}(i)
	}
	c.stop = sync.OnceFunc(func() {
		close(done)
		wg.Wait()
	})
	t.Cleanup(c.stop)
	return c
}

// replica is the mediator's view of one member of the set, and whether
// addr is a member at all.
func (c *churnedSet) replica(addr string) (backend.ReplicaSnapshot, bool) {
	for _, rs := range c.dep.Mediator.Snapshot().Backends[0].Replicas {
		if rs.Addr == addr {
			return rs, true
		}
	}
	return backend.ReplicaSnapshot{}, false
}

// serving reports whether every one of addrs is a live member that has
// answered more than base flows.
func (c *churnedSet) serving(base uint64, addrs ...string) bool {
	for _, addr := range addrs {
		if rs, ok := c.replica(addr); !ok || !rs.Live || rs.Successes <= base {
			return false
		}
	}
	return true
}

// TestE17ReplicaEjectReadmitSoak is experiment E17: a three-replica
// backend set soaked through a replica outage. Churning IIOP clients keep
// flowing while one SOAP replica is killed; the set must eject it —
// flushing its pooled connections, with the in-flight fault recovered by
// a redial onto a survivor — and the soak must continue on the two
// survivors with ZERO client-visible failures. The replica is then
// restarted on the same address, and the active prober must re-admit it
// and traffic must return to it.
func TestE17ReplicaEjectReadmitSoak(t *testing.T) {
	srvs := []*soap.Server{startPlus(t), startPlus(t), startPlus(t)}
	addrs := []string{srvs[0].Addr(), srvs[1].Addr(), srvs[2].Addr()}
	// Tight timings so the whole outage arc — eject, cooloff, probation,
	// probe re-admission — fits in a test, not a deployment.
	c := startChurnedSet(t, addrs,
		"probe plus 25ms timeout=500ms\neject plus fails=2 cooloff=100ms max_cooloff=1s min_live=1\n")

	waitFor(t, "traffic on every replica", func() bool {
		return c.flows.Load() >= 30 && c.serving(0, addrs...)
	})

	// Kill replica 0 mid-soak. The fault on its in-flight exchange is
	// redialled onto a survivor; repeated failures eject it.
	srvs[0].Close()
	waitFor(t, "ejection of the killed replica", func() bool {
		rs, _ := c.replica(addrs[0])
		return !rs.Live && rs.Ejections > 0
	})

	// The soak rebalances onto the survivors: both keep accumulating
	// successes while the dead replica cools off.
	s1, _ := c.replica(addrs[1])
	s2, _ := c.replica(addrs[2])
	waitFor(t, "rebalanced traffic on both survivors", func() bool {
		return c.serving(s1.Successes, addrs[1]) && c.serving(s2.Successes, addrs[2])
	})

	// Restart the replica on its old address; the prober must re-admit it
	// and round-robin must send sessions back to it.
	var restarted *soap.Server
	waitFor(t, "the killed replica's address to rebind", func() bool {
		var err error
		restarted, err = soap.NewServer(addrs[0], "/soap", plusOperations)
		return err == nil
	})
	defer restarted.Close()
	s0, _ := c.replica(addrs[0])
	waitFor(t, "re-admission of, and traffic back on, the restarted replica", func() bool {
		return c.serving(s0.Successes, addrs[0])
	})

	c.stop()
	if t.Failed() {
		return
	}
	st := c.dep.Mediator.Snapshot().Stats
	s0, _ = c.replica(addrs[0])
	readmissions := c.dep.Mediator.Snapshot().Backends[0].Readmissions
	t.Logf("%d flows, 0 lost; replica ejected %dx, readmitted (%d), %d redial(s), %d probes",
		c.flows.Load(), s0.Ejections, readmissions, st.Redials, s0.Probes)
	if st.Failures != 0 {
		t.Errorf("client-visible failures = %d, want 0 across the outage", st.Failures)
	}
	if st.Redials == 0 {
		t.Error("no redials: the outage never hit an in-flight exchange")
	}
	if readmissions == 0 {
		t.Error("set recorded no re-admissions")
	}
}

// TestE18DiscoveryChurnSoak is experiment E18: dynamic service discovery
// soaked through a full membership churn arc with zero lost flows. A
// backend set seeded with one SOAP replica follows a hosts file through a
// `discover` directive while churning IIOP clients keep flowing. Two
// announced endpoints must be probed and admitted and take traffic; a
// withdrawn member must be drained and removed without failing an
// in-flight flow; and an endpoint that flaps inside the debounce window
// must be suppressed — never admitted, never probed into the balancer.
func TestE18DiscoveryChurnSoak(t *testing.T) {
	// Three live replicas of the same SOAP Plus service, of which only the
	// first is known at deploy time, and a fourth address nothing listens
	// on: the flapping advertisement.
	addrs := []string{startPlus(t).Addr(), startPlus(t).Addr(), startPlus(t).Addr()}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flapAddr := l.Addr().String()
	l.Close()

	// The file is replaced, not rewritten: a reconcile round that read it
	// half-written would see its members gone and count a flap of its own.
	hosts := filepath.Join(t.TempDir(), "plus.hosts")
	writeHosts := func(members ...string) {
		t.Helper()
		if err := os.WriteFile(hosts+".new", []byte(strings.Join(members, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(hosts+".new", hosts); err != nil {
			t.Fatal(err)
		}
	}
	writeHosts(addrs[0])

	// Tight hysteresis so the whole churn arc fits in a test. The debounce
	// window is what the flap below must fit inside: it is the one timing
	// here with a margin to keep, ten refresh rounds and more.
	c := startChurnedSet(t, addrs[:1],
		"probe plus 10ms timeout=500ms\neject plus fails=2 cooloff=100ms min_live=1\n"+
			"discover plus via=file path="+hosts+" refresh=15ms debounce=250ms min_ttl=50ms\n")
	discovered := func() discovery.Snapshot { return c.dep.Mediator.Snapshot().Discovery[0] }

	waitFor(t, "baseline traffic", func() bool { return c.flows.Load() >= 20 })

	// Announce the other two replicas. Each must clear the debounce window,
	// pass an active probe, join the set and take traffic.
	writeHosts(addrs...)
	waitFor(t, "announced replicas admitted and serving", func() bool { return c.serving(0, addrs[1:]...) })

	// Withdraw the third replica. The reconciler must drain its in-flight
	// picks and remove it — with the soak still at zero failures — while
	// the server itself stays up: a clean deregistration, not an outage.
	writeHosts(addrs[0], addrs[1])
	waitFor(t, "withdrawn replica drained and removed", func() bool {
		_, member := c.replica(addrs[2])
		return !member && discovered().Removes >= 1
	})

	// A flapping advertisement: an unreachable endpoint that appears, is
	// sighted by one round, and vanishes before the window clears.
	suppressed := discovered().FlapsSuppressed
	writeHosts(addrs[0], addrs[1], flapAddr)
	waitFor(t, "the flapping endpoint to be sighted", func() bool {
		return len(discovered().Pending) == 1
	})
	writeHosts(addrs[0], addrs[1])
	waitFor(t, "the flap to be suppressed", func() bool { return discovered().FlapsSuppressed > suppressed })
	if _, member := c.replica(flapAddr); member {
		t.Fatalf("flapping endpoint %s was admitted to the set", flapAddr)
	}

	// Let the soak run a moment longer on the steady post-churn membership
	// before judging it.
	settled := c.flows.Load()
	waitFor(t, "post-churn traffic", func() bool { return c.flows.Load() >= settled+200 })
	c.stop()
	if t.Failed() {
		return
	}
	snap := discovered()
	t.Logf("%d flows, 0 lost; %d added, %d removed, %d flap(s) suppressed over %d resolutions",
		c.flows.Load(), snap.Adds, snap.Removes, snap.FlapsSuppressed, snap.Resolutions)
	if st := c.dep.Mediator.Snapshot().Stats; st.Failures != 0 {
		t.Errorf("client-visible failures = %d, want 0 across the churn", st.Failures)
	}
	if snap.Adds < 2 {
		t.Errorf("adds = %d, want the 2 announced replicas", snap.Adds)
	}
	if len(snap.Members) != 2 {
		t.Errorf("members = %v, want the 2 surviving replicas", snap.Members)
	}
}

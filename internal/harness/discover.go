package harness

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"starlink/internal/backend"
	"starlink/internal/discovery"
	"starlink/internal/engine"
	"starlink/internal/protocol/giop"
	"starlink/internal/protocol/soap"
)

// E18 soaks dynamic service discovery through a full membership churn
// arc with zero lost flows: a backend set seeded with one SOAP replica
// follows a hosts file through a reconciler while churning IIOP clients
// keep flowing. Two announced endpoints must be probed and admitted and
// take traffic; a withdrawn member must be drained and removed without
// failing an in-flight flow; and an endpoint that flaps inside the
// debounce window must be suppressed — never admitted, never probed
// into the balancer.
func E18() Result {
	r := Result{ID: "E18", Artifact: "discovery churn soak"}

	// Three live replicas of the same SOAP Plus service; only the first
	// is known at deploy time.
	srvs := make([]*soap.Server, 3)
	addrs := make([]string, 3)
	for i := range srvs {
		srv, err := soap.NewServer("127.0.0.1:0", "/soap", plusOperation)
		if err != nil {
			r.Err = err
			return r
		}
		defer srv.Close()
		srvs[i], addrs[i] = srv, srv.Addr()
	}
	// A fourth address nothing listens on: the flapping advertisement.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.Err = err
		return r
	}
	flapAddr := l.Addr().String()
	l.Close()

	hosts := filepath.Join(os.TempDir(), fmt.Sprintf("starlink-e18-%d.hosts", os.Getpid()))
	defer os.Remove(hosts)
	writeHosts := func(members ...string) error {
		body := ""
		for _, m := range members {
			body += m + "\n"
		}
		return os.WriteFile(hosts, []byte(body), 0o644)
	}
	if err := writeHosts(addrs[0]); err != nil {
		r.Err = err
		return r
	}

	set, err := backend.New("plus", []string{addrs[0]}, backend.Options{
		Policy:        backend.RoundRobin,
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  500 * time.Millisecond,
		FailThreshold: 2,
		Cooloff:       100 * time.Millisecond,
		MinLive:       1,
	})
	if err != nil {
		r.Err = err
		return r
	}
	src, err := discovery.NewFileSource(hosts)
	if err != nil {
		r.Err = err
		return r
	}
	// Tight hysteresis so the whole churn arc fits in an experiment; the
	// flap phase steps the reconciler with Poke so the window still
	// absorbs it deterministically.
	rec, err := discovery.New(set, discovery.Options{
		Source:   src,
		Refresh:  15 * time.Millisecond,
		Debounce: 30 * time.Millisecond,
		MinTTL:   50 * time.Millisecond,
		MinLive:  1,
	})
	if err != nil {
		src.Close()
		r.Err = err
		return r
	}
	// The engine owns the reconciler's lifecycle: started after the sets,
	// closed before them.
	med, err := newAddMediator("127.0.0.1:0", "plus", func(cfg *engine.Config) {
		cfg.Backends = map[string]*backend.Set{"plus": set}
		cfg.Discovery = []*discovery.Reconciler{rec}
		cfg.Retry = &engine.RetryPolicy{Attempts: 3, Backoff: time.Millisecond}
	})
	if err != nil {
		r.Err = err
		return r
	}
	defer med.Close()

	// Churning soak clients, as in E17: every session is a fresh
	// balancing decision, so membership changes become visible fast.
	var (
		wg       sync.WaitGroup
		flows    atomic.Int64
		stop     = make(chan struct{})
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	const clients = 6
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				client, err := giop.Dial(med.Addr(), "calc")
				if err != nil {
					fail(fmt.Errorf("client %d dial: %w", n, err))
					return
				}
				for f := 0; f < 3; f++ {
					results, err := client.Invoke("Add", giop.IntParam(20), giop.IntParam(22))
					if err != nil {
						client.Close()
						fail(fmt.Errorf("client %d: %w", n, err))
						return
					}
					if got := results[0].ValueString(); got != "42" {
						client.Close()
						fail(fmt.Errorf("client %d: Add = %s", n, got))
						return
					}
					flows.Add(1)
				}
				client.Close()
			}
		}(i)
	}
	soakErr := func() error {
		errMu.Lock()
		defer errMu.Unlock()
		return firstErr
	}
	waitFor := func(what string, cond func() bool) error {
		deadline := time.Now().Add(15 * time.Second)
		for !cond() {
			if err := soakErr(); err != nil {
				return err
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("timed out waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
		return nil
	}
	finish := func(err error) Result {
		close(stop)
		wg.Wait()
		if err == nil {
			err = soakErr()
		}
		r.Err = err
		return r
	}

	// Phase 1: baseline traffic on the seed replica.
	if err := waitFor("baseline traffic", func() bool {
		return flows.Load() >= 20
	}); err != nil {
		return finish(err)
	}

	// Phase 2: announce the other two replicas. Each must clear the
	// debounce window, pass an active probe, join the set and take
	// traffic.
	if err := writeHosts(addrs[0], addrs[1], addrs[2]); err != nil {
		return finish(err)
	}
	if err := waitFor("announced replicas admitted and serving", func() bool {
		for _, addr := range addrs[1:] {
			rs, ok := replicaSnap(med, "plus", addr)
			if !ok || !rs.Live || rs.Successes == 0 {
				return false
			}
		}
		return true
	}); err != nil {
		return finish(err)
	}

	// Phase 3: withdraw the third replica. The reconciler must drain its
	// in-flight picks and remove it — with the soak still at zero
	// failures — while the server itself stays up (a clean deregistration,
	// not an outage).
	if err := writeHosts(addrs[0], addrs[1]); err != nil {
		return finish(err)
	}
	if err := waitFor("withdrawn replica drained and removed", func() bool {
		if _, ok := replicaSnap(med, "plus", addrs[2]); ok {
			return false
		}
		return rec.Snapshot().Removes >= 1
	}); err != nil {
		return finish(err)
	}

	// Phase 4: a flapping advertisement — an unreachable endpoint that
	// appears and vanishes inside the debounce window. Poke steps the
	// reconciler so the flap is observed deterministically: one round
	// sees it arrive (pending), the next sees it gone before the window
	// ever cleared.
	if err := writeHosts(addrs[0], addrs[1], flapAddr); err != nil {
		return finish(err)
	}
	rec.Poke()
	if err := writeHosts(addrs[0], addrs[1]); err != nil {
		return finish(err)
	}
	rec.Poke()
	snap := rec.Snapshot()
	if snap.FlapsSuppressed == 0 {
		return finish(errors.New("flapping endpoint was not suppressed by the debounce window"))
	}
	if _, ok := replicaSnap(med, "plus", flapAddr); ok {
		return finish(fmt.Errorf("flapping endpoint %s was admitted to the set", flapAddr))
	}

	// Let the soak run a moment longer on the steady post-churn
	// membership before judging it.
	if err := waitFor("post-churn traffic", func() bool {
		return flows.Load() >= 200
	}); err != nil {
		return finish(err)
	}
	if res := finish(nil); res.Err != nil {
		return res
	}
	st := med.Stats()
	if st.Failures != 0 {
		r.Err = fmt.Errorf("client-visible failures = %d, want 0 across the churn", st.Failures)
		return r
	}
	snap = rec.Snapshot()
	switch {
	case snap.Adds < 2:
		r.Err = fmt.Errorf("adds = %d, want the 2 announced replicas", snap.Adds)
	case snap.Removes < 1:
		r.Err = fmt.Errorf("removes = %d, want the withdrawn replica", snap.Removes)
	case len(snap.Members) != 2:
		r.Err = fmt.Errorf("members = %v, want the 2 surviving replicas", snap.Members)
	default:
		r.Detail = fmt.Sprintf("%d flows, 0 lost; %d added, %d removed, %d flap(s) suppressed over %d resolutions",
			flows.Load(), snap.Adds, snap.Removes, snap.FlapsSuppressed, snap.Resolutions)
	}
	return r
}

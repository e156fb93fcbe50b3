package harness

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"starlink/internal/backend"
	"starlink/internal/engine"
	"starlink/internal/protocol/giop"
	"starlink/internal/protocol/soap"
)

// replicaSnap finds one replica's snapshot in the mediator's backend
// view.
func replicaSnap(med *engine.Mediator, set, addr string) (backend.ReplicaSnapshot, bool) {
	for _, ss := range med.Backends() {
		if ss.Name != set {
			continue
		}
		for _, rs := range ss.Replicas {
			if rs.Addr == addr {
				return rs, true
			}
		}
	}
	return backend.ReplicaSnapshot{}, false
}

// E17 soaks a three-replica backend set through a replica outage: churning
// IIOP clients (each session dials, invokes, hangs up, so every session is
// a fresh balancing decision) keep flowing while one SOAP replica is
// killed. The set must eject it — flushing its pooled connections, with
// the in-flight fault recovered by a redial onto a survivor — and the
// soak must continue on the two survivors with ZERO client-visible
// failures. The replica is then restarted on the same address and the
// active prober must re-admit it and traffic must return to it.
func E17() Result {
	r := Result{ID: "E17", Artifact: "replica eject+readmit soak"}

	// Three replicas of the same SOAP Plus service.
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

	// Tight timings so the whole outage arc — eject, cooloff, probation,
	// probe re-admission — fits in an experiment, not a deployment.
	set, err := backend.New("plus", addrs, backend.Options{
		Policy:        backend.RoundRobin,
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  500 * time.Millisecond,
		FailThreshold: 2,
		Cooloff:       100 * time.Millisecond,
		MaxCooloff:    time.Second,
		MinLive:       1,
	})
	if err != nil {
		r.Err = err
		return r
	}
	med, err := newAddMediator("127.0.0.1:0", "plus", func(cfg *engine.Config) {
		cfg.Backends = map[string]*backend.Set{"plus": set}
		cfg.Retry = &engine.RetryPolicy{Attempts: 3, Backoff: time.Millisecond}
	})
	if err != nil {
		r.Err = err
		return r
	}
	defer med.Close()

	// Churning soak clients: service links are sticky for a session's
	// lifetime, so rebalancing is only visible to sessions that hang up
	// and come back — exactly what short-lived clients do.
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
	// waitFor polls cond until it holds, surfacing a soak failure (or the
	// timeout) as the experiment error.
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

	// Phase 1: all three replicas take traffic.
	if err := waitFor("traffic on every replica", func() bool {
		if flows.Load() < 30 {
			return false
		}
		for _, addr := range addrs {
			if rs, ok := replicaSnap(med, "plus", addr); !ok || rs.Successes == 0 {
				return false
			}
		}
		return true
	}); err != nil {
		return finish(err)
	}

	// Phase 2: kill replica 0 mid-soak. The fault on its in-flight
	// exchange is redialled onto a survivor; repeated failures eject it.
	srvs[0].Close()
	if err := waitFor("ejection of the killed replica", func() bool {
		rs, ok := replicaSnap(med, "plus", addrs[0])
		return ok && !rs.Live && rs.Ejections > 0
	}); err != nil {
		return finish(err)
	}

	// Phase 3: the soak rebalances onto the survivors — both keep
	// accumulating successes while the dead replica cools off.
	base := make([]uint64, len(addrs))
	for i, addr := range addrs[1:] {
		rs, _ := replicaSnap(med, "plus", addr)
		base[i+1] = rs.Successes
	}
	if err := waitFor("rebalanced traffic on both survivors", func() bool {
		for _, addr := range addrs[1:] {
			rs, ok := replicaSnap(med, "plus", addr)
			if !ok || rs.Successes == 0 {
				return false
			}
		}
		a, _ := replicaSnap(med, "plus", addrs[1])
		b, _ := replicaSnap(med, "plus", addrs[2])
		return a.Successes > base[1] && b.Successes > base[2]
	}); err != nil {
		return finish(err)
	}

	// Phase 4: restart the replica on its old address; the prober must
	// re-admit it and round-robin must send sessions back to it.
	var restarted *soap.Server
	rebindDeadline := time.Now().Add(5 * time.Second)
	for {
		restarted, err = soap.NewServer(addrs[0], "/soap", plusOperation)
		if err == nil {
			break
		}
		if time.Now().After(rebindDeadline) {
			return finish(fmt.Errorf("rebind %s: %w", addrs[0], err))
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer restarted.Close()
	preReadmit, _ := replicaSnap(med, "plus", addrs[0])
	if err := waitFor("re-admission of the restarted replica", func() bool {
		rs, ok := replicaSnap(med, "plus", addrs[0])
		return ok && rs.Live
	}); err != nil {
		return finish(err)
	}
	if err := waitFor("traffic back on the restarted replica", func() bool {
		rs, ok := replicaSnap(med, "plus", addrs[0])
		return ok && rs.Successes > preReadmit.Successes
	}); err != nil {
		return finish(err)
	}

	if res := finish(nil); res.Err != nil {
		return res
	}
	st := med.Stats()
	if st.Failures != 0 {
		r.Err = fmt.Errorf("client-visible failures = %d, want 0 across the outage", st.Failures)
		return r
	}
	if st.Redials == 0 {
		r.Err = errors.New("no redials: the outage never hit an in-flight exchange")
		return r
	}
	snap, _ := replicaSnap(med, "plus", addrs[0])
	var readmissions uint64
	for _, ss := range med.Backends() {
		if ss.Name == "plus" {
			readmissions = ss.Readmissions
		}
	}
	r.Detail = fmt.Sprintf("%d flows, 0 lost; replica ejected %dx, readmitted (%d), %d redial(s), %d probes",
		flows.Load(), snap.Ejections, readmissions, st.Redials, snap.Probes)
	if readmissions == 0 {
		r.Err = errors.New("set recorded no re-admissions")
	}
	return r
}

package engine_test

import (
	"sync"
	"testing"
	"time"

	"starlink/internal/backend"
	"starlink/internal/engine"
	"starlink/internal/network"
	"starlink/internal/protocol/giop"
)

// addrFaultDialer wraps the real network dial, losing every reply read
// from one poisoned address and counting dials per address.
type addrFaultDialer struct {
	badAddr string

	mu    sync.Mutex
	dials map[string]int
}

func (d *addrFaultDialer) dial(sem network.Semantics, addr string, framer network.Framer) (network.Conn, error) {
	var eng network.Engine
	inner, err := eng.Dial(sem, addr, framer)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	if d.dials == nil {
		d.dials = map[string]int{}
	}
	d.dials[addr]++
	d.mu.Unlock()
	if addr == d.badAddr {
		fc := network.NewFaultConn(inner)
		fc.ScriptRecv(network.Fault{})
		return fc, nil
	}
	return inner, nil
}

func (d *addrFaultDialer) dialsTo(addr string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dials[addr]
}

// TestBackendFaultEjectsAndRedialsSurvivor: the service side targets a
// two-replica backend set whose first replica loses every reply. The
// fault must eject that replica and the recovery redial must land on
// the survivor — the client sees a correct answer, not a failure — and
// a later session must go straight to the survivor without touching
// the ejected replica again.
func TestBackendFaultEjectsAndRedialsSurvivor(t *testing.T) {
	bad, good := startPlusService(t, nil), startPlusService(t, nil)

	// Round-robin picks the replicas in declaration order, so the first
	// session deterministically lands on the poisoned replica.
	set, err := backend.New("plus", []string{bad.Addr(), good.Addr()}, backend.Options{
		FailThreshold: 1,
		Cooloff:       time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := &addrFaultDialer{badAddr: bad.Addr()}
	med := startAddPlus(t, "plus", func(cfg *engine.Config) {
		cfg.Sides[2].Dialer = d.dial
		cfg.Backends = map[string]*backend.Set{"plus": set}
		cfg.ExchangeTimeout = 2 * time.Second
		cfg.Retry = &engine.RetryPolicy{Attempts: 2, Backoff: time.Millisecond}
	})

	for i := 0; i < 2; i++ {
		client, err := giop.Dial(med.Addr(), "calc")
		if err != nil {
			t.Fatal(err)
		}
		results, err := client.Invoke("Add", giop.IntParam(20), giop.IntParam(22))
		client.Close()
		if err != nil {
			t.Fatalf("session %d did not survive the replica fault: %v", i+1, err)
		}
		if results[0].ValueString() != "42" {
			t.Errorf("session %d: Add = %s", i+1, results[0].ValueString())
		}
	}

	st := med.Snapshot().Stats
	if st.Failures != 0 || st.ServiceFailures != 0 || st.RetriesExhausted != 0 {
		t.Errorf("stats = %+v, want no failures", st)
	}
	if st.Redials != 1 {
		t.Errorf("Redials = %d, want exactly the one recovery redial", st.Redials)
	}
	if got := d.dialsTo(bad.Addr()); got != 1 {
		t.Errorf("dials to the ejected replica = %d, want 1 (session 2 must avoid it)", got)
	}

	// The sessions release their service links asynchronously after the
	// client hangs up; wait for the in-flight slots to drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		inFlight := 0
		for _, rs := range set.Snapshot().Replicas {
			inFlight += int(rs.InFlight)
		}
		if inFlight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-flight slots never drained: %d held", inFlight)
		}
		time.Sleep(time.Millisecond)
	}

	snaps := med.Snapshot().Backends
	if len(snaps) != 1 || snaps[0].Name != "plus" {
		t.Fatalf("Snapshot().Backends = %+v, want the plus set", snaps)
	}
	for _, rs := range snaps[0].Replicas {
		switch rs.Addr {
		case bad.Addr():
			if rs.Live || rs.Ejections != 1 {
				t.Errorf("poisoned replica: live=%v ejections=%d, want ejected once", rs.Live, rs.Ejections)
			}
		case good.Addr():
			if !rs.Live || rs.Successes == 0 {
				t.Errorf("survivor: live=%v successes=%d, want live with traffic", rs.Live, rs.Successes)
			}
		}
		if rs.InFlight != 0 {
			t.Errorf("replica %s leaked %d in-flight slots", rs.Addr, rs.InFlight)
		}
	}
}

package backend_test

import (
	"sort"
	"sync"
	"testing"
	"time"

	"starlink/internal/backend"
	"starlink/internal/testutil"
)

// okProbe admits any replica instantly, keeping membership tests
// deterministic.
func okProbe(string) error { return nil }

func TestAddrsAndSnapshotDeterministicOrder(t *testing.T) {
	// Declared shuffled; every view must come back sorted, every time —
	// /backends and /discovery JSON must be stable across calls.
	s := newSet(t, []string{"c", "a", "b"}, backend.Options{})
	want := []string{"a", "b", "c"}
	for i := 0; i < 5; i++ {
		got := s.Addrs()
		if !sort.StringsAreSorted(got) || len(got) != 3 {
			t.Fatalf("Addrs() = %v, want %v", got, want)
		}
		snap := s.Snapshot()
		for j, rs := range snap.Replicas {
			if rs.Addr != want[j] {
				t.Fatalf("Snapshot replicas = %+v, want order %v", snap.Replicas, want)
			}
		}
	}
	// Order survives membership churn: an added replica slots into
	// sorted position, not at the end.
	s2 := newSet(t, []string{"a", "c"}, backend.Options{Probe: okProbe})
	if err := s2.AddReplica("b"); err != nil {
		t.Fatal(err)
	}
	if got := s2.Addrs(); got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("Addrs() after AddReplica = %v", got)
	}
	s2.Close()
}

func TestAddReplicaAdmitsAfterProbe(t *testing.T) {
	probed := make(chan string, 1)
	s := newSet(t, []string{"a"}, backend.Options{
		Probe: func(addr string) error { probed <- addr; return nil },
	})
	defer s.Close()
	if err := s.AddReplica("b"); err != nil {
		t.Fatal(err)
	}
	select {
	case addr := <-probed:
		if addr != "b" {
			t.Fatalf("probed %q, want b", addr)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no admission probe fired")
	}
	if err := waitUntil(func() bool { return replicaSnap(t, s, "b").Live }); err != nil {
		t.Fatalf("b never admitted: %+v", s.Snapshot())
	}
	snap := s.Snapshot()
	if snap.MembershipAdds != 1 {
		t.Fatalf("membership adds = %d, want 1", snap.MembershipAdds)
	}
}

// TestMinLiveFloorHoldsAfterGrowth: a set seeded with fewer replicas than
// its floor keeps the floor it was given, so once discovery has grown it
// past the floor, failures eject down to the floor and no further.
func TestMinLiveFloorHoldsAfterGrowth(t *testing.T) {
	s := newSet(t, []string{"a"}, backend.Options{MinLive: 3, FailThreshold: 1, Probe: okProbe, Cooloff: time.Hour})
	defer s.Close()
	if s.MinLive() != 3 {
		t.Errorf("MinLive = %d, want the declared 3", s.MinLive())
	}
	// Below the floor the set ejects none of its members.
	s.Report("a", 0, errDown)
	if !replicaSnap(t, s, "a").Live {
		t.Fatal("the only replica was ejected")
	}
	grown := []string{"a", "b", "c", "d", "e"}
	for _, addr := range grown[1:] {
		if err := s.AddReplica(addr); err != nil {
			t.Fatal(err)
		}
	}
	live := func() int {
		n := 0
		for _, rs := range s.Snapshot().Replicas {
			if rs.Live {
				n++
			}
		}
		return n
	}
	if err := waitUntil(func() bool { return live() == len(grown) }); err != nil {
		t.Fatalf("replicas never admitted: %+v", s.Snapshot())
	}
	for _, addr := range grown {
		s.Report(addr, 0, errDown)
	}
	if n := live(); n != 3 {
		t.Errorf("%d replicas live after one failure each, want the floor, 3", n)
	}
}

func TestAddReplicaFailedProbeStaysOut(t *testing.T) {
	s := newSet(t, []string{"a"}, backend.Options{
		Probe:   func(string) error { return errDown },
		Cooloff: time.Hour,
	})
	defer s.Close()
	if err := s.AddReplica("b"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if rs := replicaSnap(t, s, "b"); rs.Live {
		t.Fatal("replica admitted despite failing its admission probe")
	}
	// Traffic keeps flowing to the established replica only.
	for i := 0; i < 10; i++ {
		if addr := s.Pick(""); addr != "a" {
			t.Fatalf("picked unadmitted replica %q", addr)
		}
		s.Release("a")
	}
}

func TestAddReplicaRejectsDuplicatesAndEmpty(t *testing.T) {
	s := newSet(t, []string{"a"}, backend.Options{Probe: okProbe})
	defer s.Close()
	if err := s.AddReplica("a"); err == nil {
		t.Error("duplicate address accepted")
	}
	if err := s.AddReplica(""); err == nil {
		t.Error("empty address accepted")
	}
}

func TestRemoveReplicaDrainsInFlight(t *testing.T) {
	s := newSet(t, []string{"a", "b"}, backend.Options{
		Probe:        okProbe,
		DrainTimeout: 2 * time.Second,
	})
	defer s.Close()
	// Hold an in-flight pick on b, then remove it concurrently.
	if got := s.Pick("a"); got != "b" {
		t.Fatalf("picked %q, want b", got)
	}
	done := make(chan error, 1)
	go func() { done <- s.RemoveReplica("b") }()
	select {
	case <-done:
		t.Fatal("RemoveReplica returned while a pick was in flight")
	case <-time.After(30 * time.Millisecond):
	}
	s.Release("b") // flow finishes; drain should complete promptly
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("drain never completed after Release")
	}
	if got := s.Addrs(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("Addrs() after removal = %v", got)
	}
	if snap := s.Snapshot(); snap.MembershipRemoves != 1 {
		t.Fatalf("membership removes = %d, want 1", snap.MembershipRemoves)
	}
}

func TestRemoveReplicaRefusesLast(t *testing.T) {
	s := newSet(t, []string{"a"}, backend.Options{Probe: okProbe})
	defer s.Close()
	if err := s.RemoveReplica("a"); err == nil {
		t.Fatal("removed the last replica")
	}
	if err := s.RemoveReplica("ghost"); err == nil {
		t.Fatal("removed an unknown replica")
	}
}

func TestRemoveReplicaFiresOnRemove(t *testing.T) {
	s := newSet(t, []string{"a", "b"}, backend.Options{Probe: okProbe})
	defer s.Close()
	var mu sync.Mutex
	var fired []string
	s.OnRemove(func(addr string) {
		mu.Lock()
		fired = append(fired, addr)
		mu.Unlock()
	})
	if err := s.RemoveReplica("b"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(fired) != 1 || fired[0] != "b" {
		t.Fatalf("OnRemove fired with %v, want [b]", fired)
	}
}

func TestFlapBackKeepsHealthHistory(t *testing.T) {
	s := newSet(t, []string{"a", "b"}, backend.Options{
		Probe:         okProbe,
		FailThreshold: 1,
		Cooloff:       time.Hour, // ejected stays ejected for the test
	})
	defer s.Close()
	// b fails traffic and gets ejected, then discovery withdraws it.
	s.Report("b", time.Millisecond, errDown)
	if rs := replicaSnap(t, s, "b"); rs.Live {
		t.Fatal("b not ejected after hitting the fail threshold")
	}
	if err := s.RemoveReplica("b"); err != nil {
		t.Fatal(err)
	}
	// It flaps back in: the ejection (and its cooloff clock) must
	// survive the round trip — a sick endpoint does not launder its
	// reputation by bouncing through discovery.
	if err := s.AddReplica("b"); err != nil {
		t.Fatal(err)
	}
	rs := replicaSnap(t, s, "b")
	if rs.Live {
		t.Fatal("flapped-back replica came back live mid-cooloff")
	}
	if rs.Ejections != 1 {
		t.Fatalf("ejections = %d, want 1 (history lost)", rs.Ejections)
	}
}

func TestAdoptCarriesRetiredHistory(t *testing.T) {
	old := newSet(t, []string{"a", "b"}, backend.Options{
		Probe:         okProbe,
		FailThreshold: 1,
		Cooloff:       time.Hour,
	})
	defer old.Close()
	old.Report("b", time.Millisecond, errDown)
	if err := old.RemoveReplica("b"); err != nil {
		t.Fatal(err)
	}
	// Hot reload: the fresh set has only a, then discovery re-adds b.
	fresh := newSet(t, []string{"a"}, backend.Options{
		Probe:         okProbe,
		FailThreshold: 1,
		Cooloff:       time.Hour,
	})
	defer fresh.Close()
	fresh.Adopt(old)
	if err := fresh.AddReplica("b"); err != nil {
		t.Fatal(err)
	}
	if rs := replicaSnap(t, fresh, "b"); rs.Live || rs.Ejections != 1 {
		t.Fatalf("retired history not adopted: %+v", rs)
	}
}

func TestConcurrentChurnUnderTraffic(t *testing.T) {
	s := newSet(t, []string{"a", "b", "c"}, backend.Options{
		Probe:        okProbe,
		DrainTimeout: 100 * time.Millisecond,
	})
	defer s.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				addr := s.Pick("")
				if addr == "" {
					t.Error("Pick returned empty with live replicas present")
					return
				}
				s.Report(addr, time.Millisecond, nil)
				s.Release(addr)
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if err := s.AddReplica("d"); err != nil {
			t.Fatal(err)
		}
		if err := s.RemoveReplica("d"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestNoLeaksSetLifecycle(t *testing.T) {
	testutil.NoLeaks(t, func() {
		s := newSet(t, []string{"a", "b"}, backend.Options{
			Probe:         okProbe,
			ProbeInterval: time.Millisecond, // active prober running
		})
		s.Start()
		if err := s.AddReplica("c"); err != nil { // admission probe goroutine
			t.Fatal(err)
		}
		if err := s.RemoveReplica("a"); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
		s.Close()
		s.Close() // idempotent
	})
}

package discovery

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"starlink/internal/backend"
	"starlink/internal/network"
	"starlink/internal/protocol/slp"
	"starlink/internal/protocol/ssdp"
	"starlink/internal/testutil"
)

func TestHostPort(t *testing.T) {
	cases := []struct {
		in, want string
		bad      bool
	}{
		{in: "service:plus://10.0.0.1:9001", want: "10.0.0.1:9001"},
		{in: "http://10.0.0.1:8080/desc.xml", want: "10.0.0.1:8080"},
		{in: "http://10.0.0.1:8080/desc.xml?x=1#frag", want: "10.0.0.1:8080"},
		{in: "10.0.0.1:9001", want: "10.0.0.1:9001"},
		{in: "service:printer:lpr://host.example:515/queue", want: "host.example:515"},
		{in: "http://10.0.0.1/desc.xml", bad: true}, // no port
		{in: "justahost", bad: true},
		{in: "", bad: true},
	}
	for _, c := range cases {
		got, err := HostPort(c.in)
		if c.bad {
			if err == nil {
				t.Errorf("HostPort(%q) = %q, want error", c.in, got)
			} else if !errors.Is(err, ErrSource) {
				t.Errorf("HostPort(%q) error %v not ErrSource", c.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("HostPort(%q): %v", c.in, err)
		} else if got != c.want {
			t.Errorf("HostPort(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// --- file source ---

func writeHosts(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "hosts")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFileSource(t *testing.T) {
	path := writeHosts(t, "# replicas\n127.0.0.1:9001\n\n127.0.0.1:9002 90s\n")
	src, err := NewFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	eps, err := src.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 2 || eps[0].Addr != "127.0.0.1:9001" || eps[1].Addr != "127.0.0.1:9002" {
		t.Fatalf("endpoints = %+v", eps)
	}
	if eps[0].TTL != 0 || eps[1].TTL != 90*time.Second {
		t.Fatalf("TTLs = %v, %v", eps[0].TTL, eps[1].TTL)
	}
	// Edits are picked up on the next poll.
	if err := os.WriteFile(path, []byte("127.0.0.1:9003\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	eps, err = src.Resolve()
	if err != nil || len(eps) != 1 || eps[0].Addr != "127.0.0.1:9003" {
		t.Fatalf("after edit: %+v, %v", eps, err)
	}
	// A vanished file is a resolution error, not an empty set.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Resolve(); !errors.Is(err, ErrSource) {
		t.Fatalf("after remove: err = %v, want ErrSource", err)
	}
}

func TestFileSourceRejectsBadContent(t *testing.T) {
	for _, content := range []string{"nonsense\n", "127.0.0.1:9001 soon\n", "127.0.0.1\n"} {
		if _, err := NewFileSource(writeHosts(t, content)); !errors.Is(err, ErrSource) {
			t.Errorf("content %q: err = %v, want ErrSource", content, err)
		}
	}
	if _, err := NewFileSource(filepath.Join(t.TempDir(), "missing")); !errors.Is(err, ErrSource) {
		t.Errorf("missing file: err = %v, want ErrSource", err)
	}
	if _, err := NewFileSource(""); !errors.Is(err, ErrSource) {
		t.Errorf("empty path: err = %v, want ErrSource", err)
	}
}

// --- dns source ---

func TestDNSSourceHostPort(t *testing.T) {
	src, err := NewDNSSource("svc.example:9001")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.lookupHost = func(ctx context.Context, host string) ([]string, error) {
		if host != "svc.example" {
			t.Errorf("looked up %q", host)
		}
		return []string{"10.0.0.2", "10.0.0.1"}, nil
	}
	eps, err := src.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	// Sorted regardless of resolver ordering.
	if len(eps) != 2 || eps[0].Addr != "10.0.0.1:9001" || eps[1].Addr != "10.0.0.2:9001" {
		t.Fatalf("endpoints = %+v", eps)
	}
	src.lookupHost = func(ctx context.Context, host string) ([]string, error) {
		return nil, errors.New("SERVFAIL")
	}
	if _, err := src.Resolve(); !errors.Is(err, ErrSource) {
		t.Fatalf("lookup failure: err = %v, want ErrSource", err)
	}
}

func TestDNSSourceSRV(t *testing.T) {
	src, err := NewDNSSource("_plus._tcp.example.org")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.lookupSRV = func(ctx context.Context, name string) ([]*net.SRV, error) {
		if name != "_plus._tcp.example.org" {
			t.Errorf("looked up %q", name)
		}
		return []*net.SRV{
			{Target: "b.example.org.", Port: 9002},
			{Target: "a.example.org.", Port: 9001},
			{Target: "", Port: 9009}, // skipped: no target
		}, nil
	}
	eps, err := src.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 2 || eps[0].Addr != "a.example.org:9001" || eps[1].Addr != "b.example.org:9002" {
		t.Fatalf("endpoints = %+v", eps)
	}
}

func TestDNSSourceRejectsBadNames(t *testing.T) {
	for _, name := range []string{"", "nohostport", "host:"} {
		if _, err := NewDNSSource(name); !errors.Is(err, ErrSource) {
			t.Errorf("name %q: err = %v, want ErrSource", name, err)
		}
	}
}

// --- slp source ---

func TestSLPSource(t *testing.T) {
	da, err := slp.NewDirectoryAgent("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer da.Close()
	da.Register("service:plus", slp.URLEntry{URL: "service:plus://127.0.0.1:9001", Lifetime: 60})
	da.Register("service:plus", slp.URLEntry{URL: "service:plus://127.0.0.1:9002", Lifetime: 120})

	src, err := NewSLPSource(da.Addr(), "service:plus", "")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	eps, err := src.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 2 {
		t.Fatalf("endpoints = %+v", eps)
	}
	got := map[string]time.Duration{eps[0].Addr: eps[0].TTL, eps[1].Addr: eps[1].TTL}
	if got["127.0.0.1:9001"] != 60*time.Second || got["127.0.0.1:9002"] != 120*time.Second {
		t.Fatalf("endpoints = %v", got)
	}
}

func TestSLPSourceEmptyIsNotError(t *testing.T) {
	da, err := slp.NewDirectoryAgent("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer da.Close()
	src, err := NewSLPSource(da.Addr(), "service:nothing", "")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	// The DA answers "no results" (ErrRemote code 1): an empty set, not
	// a resolution failure.
	eps, err := src.Resolve()
	if err != nil || len(eps) != 0 {
		t.Fatalf("Resolve = %+v, %v; want empty, nil", eps, err)
	}
}

// --- ssdp source ---

func TestSSDPSourceSearch(t *testing.T) {
	resp, err := ssdp.NewResponder("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Close()
	resp.Register(ssdp.SearchResponse{
		ST:       "urn:starlink:plus",
		USN:      "uuid:plus-1",
		Location: "http://127.0.0.1:9001/desc.xml",
	})
	src, err := NewSSDPSource(resp.Addr(), "urn:starlink:plus", SSDPOptions{MX: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	eps, err := src.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 1 || eps[0].Addr != "127.0.0.1:9001" {
		t.Fatalf("endpoints = %+v", eps)
	}
}

func sendNotify(t *testing.T, to, nts, usn, location string) {
	t.Helper()
	var eng network.Engine
	conn, err := eng.Dial(network.Semantics{Transport: "udp"}, to, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	datagram := "NOTIFY * HTTP/1.1\r\n" +
		"NT: urn:starlink:plus\r\n" +
		"NTS: " + nts + "\r\n" +
		"USN: " + usn + "\r\n"
	if location != "" {
		datagram += "LOCATION: " + location + "\r\nCACHE-CONTROL: max-age=1800\r\n"
	}
	datagram += "\r\n"
	if err := conn.Send([]byte(datagram)); err != nil {
		t.Fatal(err)
	}
}

func TestSSDPSourceNotify(t *testing.T) {
	// No responder: the search leg always comes back empty, so every
	// endpoint the source reports was learned from NOTIFY traffic.
	searchTarget := "127.0.0.1:1"
	src, err := NewSSDPSource(searchTarget, "urn:starlink:plus", SSDPOptions{MX: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if src.ListenAddr() == "" {
		t.Fatal("no listener address")
	}
	sendNotify(t, src.ListenAddr(), "ssdp:alive", "uuid:plus-2", "http://127.0.0.1:9002/desc.xml")
	select {
	case <-src.Updates():
	case <-time.After(2 * time.Second):
		t.Fatal("no update nudge after NOTIFY alive")
	}
	eps, err := src.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 1 || eps[0].Addr != "127.0.0.1:9002" || eps[0].TTL <= 0 {
		t.Fatalf("endpoints after alive = %+v", eps)
	}
	sendNotify(t, src.ListenAddr(), "ssdp:byebye", "uuid:plus-2", "")
	select {
	case <-src.Updates():
	case <-time.After(2 * time.Second):
		t.Fatal("no update nudge after NOTIFY byebye")
	}
	eps, err = src.Resolve()
	if err != nil || len(eps) != 0 {
		t.Fatalf("endpoints after byebye = %+v, %v", eps, err)
	}
}

// TestSSDPSourceNotifyMixedCase: a device that spells its NOTIFY fields
// "Nt:", "Location:" and the like is heard like one that writes capitals
// (RFC 7230 §3.2: field names are case-insensitive).
func TestSSDPSourceNotifyMixedCase(t *testing.T) {
	src, err := NewSSDPSource("127.0.0.1:1", "urn:starlink:plus", SSDPOptions{MX: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var eng network.Engine
	conn, err := eng.Dial(network.Semantics{Transport: "udp"}, src.ListenAddr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	datagram := "NOTIFY * HTTP/1.1\r\n" +
		"Nt: urn:starlink:plus\r\n" +
		"nts: ssdp:alive\r\n" +
		"Usn: uuid:plus-3\r\n" +
		"Location: http://127.0.0.1:9003/desc.xml\r\n" +
		"Cache-Control: max-age=60\r\n\r\n"
	if err := conn.Send([]byte(datagram)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-src.Updates():
	case <-time.After(2 * time.Second):
		t.Fatal("a mixed-case NOTIFY alive was ignored")
	}
	eps, err := src.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 1 || eps[0].Addr != "127.0.0.1:9003" || eps[0].TTL <= 0 || eps[0].TTL > time.Minute {
		t.Fatalf("endpoints after a mixed-case alive = %+v", eps)
	}
}

// --- reconciler ---

// fakeSource is a scripted source: tests set its next result and step
// the reconciler with direct reconcile calls.
type fakeSource struct {
	mu  sync.Mutex
	eps []Endpoint
	err error
}

func (f *fakeSource) set(eps []Endpoint, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.eps, f.err = eps, err
}

func (f *fakeSource) Resolve() ([]Endpoint, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Endpoint(nil), f.eps...), f.err
}

func (f *fakeSource) String() string { return "fake://test" }
func (f *fakeSource) Close() error   { return nil }

// newTestSet builds a set whose probes always succeed, so admission is
// immediate and membership tests stay deterministic.
func newTestSet(t *testing.T, addrs ...string) *backend.Set {
	t.Helper()
	set, err := backend.New("checkout", addrs, backend.Options{
		Probe:        func(string) error { return nil },
		Cooloff:      10 * time.Millisecond,
		DrainTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(set.Close)
	return set
}

func waitForAddrs(t *testing.T, set *backend.Set, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(set.Addrs()) == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("set has %v, want %d replicas", set.Addrs(), want)
}

func TestReconcilerAddAfterDebounce(t *testing.T) {
	set := newTestSet(t, "127.0.0.1:9001")
	src := &fakeSource{}
	r, err := New(set, Options{Source: src, Debounce: 100 * time.Millisecond, MinTTL: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	now := time.Now()
	src.set([]Endpoint{{Addr: "127.0.0.1:9001"}, {Addr: "127.0.0.1:9002"}}, nil)
	r.reconcile(now)
	if got := set.Addrs(); len(got) != 1 {
		t.Fatalf("admitted before debounce: %v", got)
	}
	snap := r.Snapshot()
	if len(snap.Pending) != 1 || snap.Pending[0] != "127.0.0.1:9002" {
		t.Fatalf("pending = %v", snap.Pending)
	}
	// Still present a debounce later: admitted.
	r.reconcile(now.Add(150 * time.Millisecond))
	waitForAddrs(t, set, 2)
	snap = r.Snapshot()
	if snap.Adds != 1 || len(snap.Members) != 2 {
		t.Fatalf("snapshot after add = %+v", snap)
	}
}

func TestReconcilerRemoveRespectsDebounceAndMinTTL(t *testing.T) {
	set := newTestSet(t, "127.0.0.1:9001", "127.0.0.1:9002")
	src := &fakeSource{}
	r, err := New(set, Options{
		Source:   src,
		Debounce: 50 * time.Millisecond,
		MinTTL:   300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	now := time.Now()
	src.set([]Endpoint{{Addr: "127.0.0.1:9001"}}, nil) // 9002 withdrawn
	r.reconcile(now)
	r.reconcile(now.Add(100 * time.Millisecond))
	// Absence has out-debounced, but the member is younger than MinTTL.
	if got := set.Addrs(); len(got) != 2 {
		t.Fatalf("removed before MinTTL: %v", got)
	}
	r.reconcile(now.Add(400 * time.Millisecond))
	if got := set.Addrs(); len(got) != 1 || got[0] != "127.0.0.1:9001" {
		t.Fatalf("after MinTTL: %v", got)
	}
	if snap := r.Snapshot(); snap.Removes != 1 {
		t.Fatalf("removes = %d", snap.Removes)
	}
}

func TestReconcilerSuppressesFlaps(t *testing.T) {
	set := newTestSet(t, "127.0.0.1:9001")
	src := &fakeSource{}
	r, err := New(set, Options{Source: src, Debounce: time.Hour, MinTTL: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	now := time.Now()
	// 9002 flaps up then away before the debounce window elapses.
	src.set([]Endpoint{{Addr: "127.0.0.1:9001"}, {Addr: "127.0.0.1:9002"}}, nil)
	r.reconcile(now)
	src.set([]Endpoint{{Addr: "127.0.0.1:9001"}}, nil)
	r.reconcile(now.Add(10 * time.Millisecond))
	snap := r.Snapshot()
	if snap.FlapsSuppressed != 1 {
		t.Fatalf("flaps suppressed = %d, want 1", snap.FlapsSuppressed)
	}
	if got := set.Addrs(); len(got) != 1 {
		t.Fatalf("flapping endpoint admitted: %v", got)
	}
	// The run restarts from scratch when it reappears.
	src.set([]Endpoint{{Addr: "127.0.0.1:9001"}, {Addr: "127.0.0.1:9002"}}, nil)
	r.reconcile(now.Add(20 * time.Millisecond))
	if got := set.Addrs(); len(got) != 1 {
		t.Fatalf("readmitted without out-waiting debounce: %v", got)
	}
}

func TestReconcilerHonorsTTLThroughMissedPolls(t *testing.T) {
	set := newTestSet(t, "127.0.0.1:9001")
	src := &fakeSource{}
	// MinTTL is huge so the seed replica cannot be removed out from
	// under the scenario this test actually exercises.
	r, err := New(set, Options{Source: src, Debounce: 50 * time.Millisecond, MinTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	now := time.Now()
	// Advertised with a TTL that outlives the next (empty) poll: the
	// endpoint stays present and is admitted once debounce elapses.
	src.set([]Endpoint{{Addr: "127.0.0.1:9002", TTL: time.Hour}}, nil)
	r.reconcile(now)
	src.set(nil, nil)
	r.reconcile(now.Add(100 * time.Millisecond))
	waitForAddrs(t, set, 2)
}

func TestReconcilerMaxChurn(t *testing.T) {
	set := newTestSet(t, "127.0.0.1:9001")
	src := &fakeSource{}
	r, err := New(set, Options{Source: src, Debounce: time.Millisecond, MinTTL: time.Millisecond, MaxChurn: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	now := time.Now()
	src.set([]Endpoint{
		{Addr: "127.0.0.1:9001"}, {Addr: "127.0.0.1:9002"},
		{Addr: "127.0.0.1:9003"}, {Addr: "127.0.0.1:9004"},
	}, nil)
	r.reconcile(now)
	r.reconcile(now.Add(10 * time.Millisecond))
	if snap := r.Snapshot(); snap.Adds != 1 {
		t.Fatalf("adds after capped round = %d, want 1", snap.Adds)
	}
	r.reconcile(now.Add(20 * time.Millisecond))
	r.reconcile(now.Add(30 * time.Millisecond))
	if snap := r.Snapshot(); snap.Adds != 3 {
		t.Fatalf("adds after three more rounds = %d, want 3", snap.Adds)
	}
}

func TestReconcilerNeverShrinksBelowMinLive(t *testing.T) {
	set, err := backend.New("checkout", []string{"127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003"}, backend.Options{
		Probe:        func(string) error { return nil },
		Cooloff:      10 * time.Millisecond,
		DrainTimeout: 50 * time.Millisecond,
		MinLive:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	src := &fakeSource{}
	r, err := New(set, Options{Source: src, Debounce: time.Millisecond, MinTTL: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	now := time.Now()
	src.set(nil, nil) // the source says: everything is gone
	r.reconcile(now)
	r.reconcile(now.Add(50 * time.Millisecond))
	r.reconcile(now.Add(100 * time.Millisecond))
	if got := set.Addrs(); len(got) != 2 {
		t.Fatalf("floor violated: %v", got)
	}
}

func TestReconcilerKeepsMembershipOnResolveError(t *testing.T) {
	set := newTestSet(t, "127.0.0.1:9001", "127.0.0.1:9002")
	src := &fakeSource{}
	r, err := New(set, Options{Source: src, Debounce: time.Millisecond, MinTTL: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	now := time.Now()
	src.set(nil, fmt.Errorf("%w: DA unreachable", ErrSource))
	for i := 0; i < 5; i++ {
		r.reconcile(now.Add(time.Duration(i) * 50 * time.Millisecond))
	}
	if got := set.Addrs(); len(got) != 2 {
		t.Fatalf("membership dropped on resolve errors: %v", got)
	}
	snap := r.Snapshot()
	if snap.ResolveErrors != 5 || snap.Resolutions != 5 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.LastResolution != -1 {
		t.Fatalf("last resolution age = %v, want -1 (never)", snap.LastResolution)
	}
}

func TestReconcilerAdoptCarriesCounters(t *testing.T) {
	set := newTestSet(t, "127.0.0.1:9001")
	src := &fakeSource{}
	old, err := New(set, Options{Source: src, Debounce: time.Millisecond, MinTTL: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	src.set([]Endpoint{{Addr: "127.0.0.1:9001"}, {Addr: "127.0.0.1:9002"}}, nil)
	now := time.Now()
	old.reconcile(now)
	old.reconcile(now.Add(10 * time.Millisecond))

	fresh, err := New(set, Options{Source: &fakeSource{}, Debounce: time.Millisecond, MinTTL: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	fresh.Adopt(old)
	snap := fresh.Snapshot()
	if snap.Resolutions != 2 || snap.Adds != 1 {
		t.Fatalf("adopted snapshot = %+v", snap)
	}
	if snap.LastResolution < 0 {
		t.Fatalf("adopted last resolution age = %v", snap.LastResolution)
	}
}

func TestReconcilerLoopAndPoke(t *testing.T) {
	set := newTestSet(t, "127.0.0.1:9001")
	src := &fakeSource{}
	src.set([]Endpoint{{Addr: "127.0.0.1:9001"}, {Addr: "127.0.0.1:9002"}}, nil)
	r, err := New(set, Options{
		Source:   src,
		Refresh:  5 * time.Millisecond,
		Debounce: 10 * time.Millisecond,
		MinTTL:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Close()
	waitForAddrs(t, set, 2)
	r.Poke()
	if snap := r.Snapshot(); snap.Resolutions == 0 {
		t.Fatal("no resolutions after Poke")
	}
}

func TestReconcilerSnapshotShape(t *testing.T) {
	set := newTestSet(t, "127.0.0.1:9001")
	src := &fakeSource{}
	r, err := New(set, Options{Source: src, Refresh: time.Second, Debounce: 2 * time.Second, MinTTL: 3 * time.Second, MaxChurn: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	snap := r.Snapshot()
	if snap.Set != "checkout" || snap.Source != "fake://test" {
		t.Fatalf("identity = %q / %q", snap.Set, snap.Source)
	}
	if snap.Refresh != "1s" || snap.Debounce != "2s" || snap.MinTTL != "3s" || snap.MaxChurn != 4 || snap.MinLive != 1 {
		t.Fatalf("tuning = %+v", snap)
	}
	if len(snap.Members) != 1 || snap.Members[0] != "127.0.0.1:9001" {
		t.Fatalf("members = %v", snap.Members)
	}
}

func TestReconcilerValidation(t *testing.T) {
	set := newTestSet(t, "127.0.0.1:9001")
	if _, err := New(nil, Options{Source: &fakeSource{}}); !errors.Is(err, ErrSource) {
		t.Errorf("nil set: %v", err)
	}
	if _, err := New(set, Options{}); !errors.Is(err, ErrSource) {
		t.Errorf("nil source: %v", err)
	}
}

// --- goroutine-leak coverage (satellite: testutil.NoLeaks) ---

func TestNoLeaksReconcilerLoop(t *testing.T) {
	testutil.NoLeaks(t, func() {
		set, err := backend.New("checkout", []string{"127.0.0.1:9001"}, backend.Options{
			Probe: func(string) error { return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		src := &fakeSource{}
		src.set([]Endpoint{{Addr: "127.0.0.1:9001"}, {Addr: "127.0.0.1:9002"}}, nil)
		r, err := New(set, Options{Source: src, Refresh: time.Millisecond, Debounce: time.Millisecond, MinTTL: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		time.Sleep(20 * time.Millisecond) // let a few rounds land
		r.Close()
		r.Close() // idempotent
		set.Close()
	})
}

func TestNoLeaksReconcilerNeverStarted(t *testing.T) {
	testutil.NoLeaks(t, func() {
		set := newTestSet(t, "127.0.0.1:9001")
		r, err := New(set, Options{Source: &fakeSource{}})
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
	})
}

func TestNoLeaksSLPSource(t *testing.T) {
	testutil.NoLeaks(t, func() {
		da, err := slp.NewDirectoryAgent("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		src, err := NewSLPSource(da.Addr(), "service:plus", "")
		if err != nil {
			t.Fatal(err)
		}
		src.Resolve()
		src.Close()
		da.Close()
	})
}

func TestNoLeaksSSDPSource(t *testing.T) {
	testutil.NoLeaks(t, func() {
		src, err := NewSSDPSource("127.0.0.1:1", "urn:starlink:plus", SSDPOptions{Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		src.Close()
		src.Close() // idempotent
	})
}

func TestNoLeaksFileAndDNSSources(t *testing.T) {
	testutil.NoLeaks(t, func() {
		fsrc, err := NewFileSource(writeHosts(t, "127.0.0.1:9001\n"))
		if err != nil {
			t.Fatal(err)
		}
		fsrc.Close()
		dsrc, err := NewDNSSource("svc.example:9001")
		if err != nil {
			t.Fatal(err)
		}
		dsrc.Close()
	})
}

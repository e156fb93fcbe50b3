// Package backend manages named service replica sets for the mediation
// engine. The paper deploys a mediator "in the network" between every
// client of one application and the service of the other (Fig. 6); at
// production scale that service is N replicas, not one address, and the
// mediator itself is the natural place to decide where each flow lands
// and to react when a replica turns sick (adaptive-middleware work makes
// the same argument for policy living in the runtime).
//
// A Set is a logical service name bound to N replica addresses with
// three cooperating mechanisms:
//
//   - Balancing: every Pick resolves the logical name to one replica,
//     round-robin or power-of-two-choices over the live in-flight counts
//     (latency EWMA breaking ties), skipping ejected replicas.
//   - Passive outlier ejection: callers Report the outcome of each
//     exchange; FailThreshold consecutive failures eject the replica for
//     a cooloff window that doubles with each repeat ejection (capped by
//     MaxCooloff), and a MinLive floor guarantees the set never ejects
//     itself to zero.
//   - Active probing: Start runs a prober that dials (or custom-probes)
//     every replica each ProbeInterval, deadline-bounded, feeding the
//     same ejection state machine — so a dead replica is caught between
//     flows and a restarted one is re-admitted without waiting for
//     client traffic to gamble on it.
//
// A replica past its cooloff is in probation: it becomes pickable and
// probeable again, one success re-admits it fully, and one failure
// re-ejects it with a doubled cooloff.
//
// Membership is dynamic: AddReplica admits a new address (probed before
// it takes traffic) and RemoveReplica retires one (draining its
// in-flight exchanges first), so a discovery reconciler
// (internal/discovery) can track live service membership at runtime.
// Replicas are kept sorted by address, making Addrs and Snapshot
// deterministic across calls regardless of announcement order.
package backend

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Policy selects how Pick balances across live replicas.
type Policy string

// Balancing policies.
const (
	// RoundRobin rotates picks across the live replicas.
	RoundRobin Policy = "roundrobin"
	// PowerOfTwo samples two random live replicas and picks the one with
	// fewer in-flight exchanges, breaking ties by latency EWMA. This is
	// the classic "power of two choices" policy: nearly the balance
	// quality of least-loaded at the cost of two probes per pick.
	PowerOfTwo Policy = "p2c"
)

// Defaults applied when Options leave the knobs zero.
const (
	// DefaultFailThreshold is how many consecutive failures eject.
	DefaultFailThreshold = 3
	// DefaultCooloff is the first ejection's cooloff window.
	DefaultCooloff = 1 * time.Second
	// DefaultMaxCooloff caps the exponential cooloff growth.
	DefaultMaxCooloff = 30 * time.Second
	// DefaultProbeTimeout bounds each active health probe.
	DefaultProbeTimeout = 1 * time.Second
	// DefaultDrainTimeout bounds RemoveReplica's in-flight drain.
	DefaultDrainTimeout = 3 * time.Second
	// retiredCap bounds the carried health history of removed replicas:
	// past it the entry longest-removed is dropped. Flap-backs are
	// near-term by nature, so a small window is enough.
	retiredCap = 128
)

// Options tune a replica set.
type Options struct {
	// Policy is the balancing policy (default RoundRobin).
	Policy Policy
	// ProbeInterval is how often the prober checks every replica once
	// Start is called; 0 disables active probing (passive ejection and
	// probation picks still work).
	ProbeInterval time.Duration
	// ProbeTimeout bounds each probe (default DefaultProbeTimeout).
	ProbeTimeout time.Duration
	// Probe checks one replica; nil means a deadline-bounded TCP dial
	// (DialProbe). Tests inject fakes here.
	Probe func(addr string) error
	// FailThreshold is how many consecutive reported failures eject a
	// live replica (default DefaultFailThreshold).
	FailThreshold int
	// Cooloff is the first ejection's window; each repeat ejection
	// doubles it up to MaxCooloff (defaults DefaultCooloff,
	// DefaultMaxCooloff).
	Cooloff    time.Duration
	MaxCooloff time.Duration
	// MinLive is the floor of live replicas the set refuses to eject
	// below (default 1), and of members the discovery reconciler refuses
	// to remove below: the one min_live of a spec. While the set has
	// fewer members than the floor, it ejects none.
	MinLive int
	// DrainTimeout bounds how long RemoveReplica waits for the retiring
	// replica's in-flight exchanges to finish before letting go of it
	// (default DefaultDrainTimeout).
	DrainTimeout time.Duration
}

// replica is one address's balancing and health state. The atomics are
// touched on every pick/report; the plain fields are guarded by Set.mu.
type replica struct {
	addr string

	inFlight atomic.Int64
	ewmaNs   atomic.Int64 // exchange latency EWMA, nanoseconds
	picks    atomic.Uint64
	oks      atomic.Uint64
	fails    atomic.Uint64
	probes   atomic.Uint64
	probeNGs atomic.Uint64

	// Guarded by Set.mu.
	ejected     bool
	until       time.Time // cooloff end; past it the replica is in probation
	consecFails int
	ejections   int
}

// members is one immutable membership generation: the replica slice is
// sorted by address and the map indexes it. Pick/Release/Report load it
// lock-free through Set.mem; AddReplica and RemoveReplica install a
// fresh generation under Set.mu (copy-on-write), so the hot paths never
// observe a half-mutated collection.
type members struct {
	replicas []*replica
	byAddr   map[string]*replica
}

// withReplica returns a new generation with r inserted in sorted
// position.
func (m *members) withReplica(r *replica) *members {
	next := &members{
		replicas: make([]*replica, 0, len(m.replicas)+1),
		byAddr:   make(map[string]*replica, len(m.replicas)+1),
	}
	next.replicas = append(next.replicas, m.replicas...)
	i := sort.Search(len(next.replicas), func(i int) bool { return next.replicas[i].addr >= r.addr })
	next.replicas = append(next.replicas, nil)
	copy(next.replicas[i+1:], next.replicas[i:])
	next.replicas[i] = r
	for _, rr := range next.replicas {
		next.byAddr[rr.addr] = rr
	}
	return next
}

// withoutAddr returns a new generation with addr removed.
func (m *members) withoutAddr(addr string) *members {
	next := &members{
		replicas: make([]*replica, 0, len(m.replicas)-1),
		byAddr:   make(map[string]*replica, len(m.replicas)-1),
	}
	for _, r := range m.replicas {
		if r.addr == addr {
			continue
		}
		next.replicas = append(next.replicas, r)
		next.byAddr[r.addr] = r
	}
	return next
}

// retiredHealth is the health history RemoveReplica keeps for an
// address, restored by a flap-back AddReplica so a sick endpoint that
// bounces out of and back into discovery does not reset to trusted.
type retiredHealth struct {
	ejected     bool
	until       time.Time
	consecFails int
	ejections   int
	ewmaNs      int64
	retiredAt   time.Time
}

// Set is a named replica set. All methods are safe for concurrent use.
type Set struct {
	name     string
	opts     Options
	mem      atomic.Pointer[members]
	rr       atomic.Uint64
	ejects   atomic.Uint64
	readmits atomic.Uint64
	adds     atomic.Uint64
	removes  atomic.Uint64

	mu        sync.Mutex
	onEject   []func(addr string)
	onReadmit []func(addr string)
	onRemove  []func(addr string)
	retired   map[string]retiredHealth
	draining  map[string]*replica
	started   bool
	closed    bool

	// aux tracks the side goroutines membership changes spawn (admission
	// probes); Close waits for them like it waits for the prober.
	aux  sync.WaitGroup
	stop chan struct{}
	done chan struct{}
}

// New validates the addresses and options and builds a set. Every
// replica starts live.
func New(name string, addrs []string, opts Options) (*Set, error) {
	if name == "" {
		return nil, errors.New("backend: set needs a name")
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("backend: set %q declares no replica addresses", name)
	}
	switch opts.Policy {
	case "":
		opts.Policy = RoundRobin
	case RoundRobin, PowerOfTwo:
	default:
		return nil, fmt.Errorf("backend: set %q: unknown balancing policy %q", name, opts.Policy)
	}
	if opts.FailThreshold <= 0 {
		opts.FailThreshold = DefaultFailThreshold
	}
	if opts.Cooloff <= 0 {
		opts.Cooloff = DefaultCooloff
	}
	if opts.MaxCooloff <= 0 {
		opts.MaxCooloff = DefaultMaxCooloff
	}
	if opts.MaxCooloff < opts.Cooloff {
		opts.MaxCooloff = opts.Cooloff
	}
	if opts.MinLive <= 0 {
		opts.MinLive = 1
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = DefaultProbeTimeout
	}
	if opts.Probe == nil {
		opts.Probe = DialProbe(opts.ProbeTimeout)
	}
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = DefaultDrainTimeout
	}
	s := &Set{
		name:     name,
		opts:     opts,
		retired:  make(map[string]retiredHealth),
		draining: make(map[string]*replica),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	m := &members{byAddr: make(map[string]*replica, len(addrs))}
	for _, addr := range addrs {
		if addr == "" {
			return nil, fmt.Errorf("backend: set %q has an empty replica address", name)
		}
		if _, dup := m.byAddr[addr]; dup {
			return nil, fmt.Errorf("backend: set %q declares replica %q twice", name, addr)
		}
		r := &replica{addr: addr}
		m.replicas = append(m.replicas, r)
		m.byAddr[addr] = r
	}
	sort.Slice(m.replicas, func(i, j int) bool { return m.replicas[i].addr < m.replicas[j].addr })
	s.mem.Store(m)
	return s, nil
}

// DialProbe returns the default active health probe: a deadline-bounded
// TCP dial that succeeds if the replica accepts the connection.
func DialProbe(timeout time.Duration) func(addr string) error {
	return func(addr string) error {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return err
		}
		return c.Close()
	}
}

// Name is the set's logical service name.
func (s *Set) Name() string { return s.name }

// MinLive is the set's floor, Options.MinLive.
func (s *Set) MinLive() int { return s.opts.MinLive }

// Policy is the set's balancing policy.
func (s *Set) Policy() Policy { return s.opts.Policy }

// Addrs lists the current replica addresses, sorted — the order is
// deterministic across calls, so views built on it (the admin
// /backends and /discovery JSON) are stable.
func (s *Set) Addrs() []string {
	m := s.mem.Load()
	out := make([]string, len(m.replicas))
	for i, r := range m.replicas {
		out[i] = r.addr
	}
	return out
}

// OnEject registers a hook fired (outside the set lock) each time a
// replica is ejected; the engine uses it to flush the replica's idle
// pooled connections.
func (s *Set) OnEject(fn func(addr string)) {
	s.mu.Lock()
	s.onEject = append(s.onEject, fn)
	s.mu.Unlock()
}

// OnReadmit registers a hook fired (outside the set lock) each time an
// ejected replica is re-admitted.
func (s *Set) OnReadmit(fn func(addr string)) {
	s.mu.Lock()
	s.onReadmit = append(s.onReadmit, fn)
	s.mu.Unlock()
}

// OnRemove registers a hook fired (outside the set lock) after
// RemoveReplica has drained a replica; the engine uses it to flush the
// retired address's pooled connections for every client color.
func (s *Set) OnRemove(fn func(addr string)) {
	s.mu.Lock()
	s.onRemove = append(s.onRemove, fn)
	s.mu.Unlock()
}

// AddReplica admits a new address into the set. The replica does not
// take traffic immediately: it enters the set pending, an immediate
// asynchronous health probe is launched, and the first probe (or
// probation) success makes it pickable — so a freshly announced
// endpoint is verified before the balancer gambles a flow on it. If the
// address was removed earlier, its retired health history (ejection
// count, cooloff progress, latency EWMA) is restored first: a flapping
// endpoint re-announced by discovery keeps its doubled cooloffs instead
// of resetting to trusted. Adding an address already in the set is an
// error.
func (s *Set) AddReplica(addr string) error {
	if addr == "" {
		return fmt.Errorf("backend: set %q: empty replica address", s.name)
	}
	r := &replica{addr: addr}
	now := time.Now()
	s.mu.Lock()
	m := s.mem.Load()
	if _, dup := m.byAddr[addr]; dup {
		s.mu.Unlock()
		return fmt.Errorf("backend: set %q already has replica %q", s.name, addr)
	}
	cooling := false
	if h, ok := s.retired[addr]; ok {
		r.consecFails = h.consecFails
		r.ejections = h.ejections
		r.ewmaNs.Store(h.ewmaNs)
		if h.ejected && now.Before(h.until) {
			r.until = h.until
			cooling = true
		}
		delete(s.retired, addr)
	}
	// Pending admission rides the ejection machinery: the replica starts
	// ejected, so picks skip it, and the admission probe's success (or
	// any later probe/probation success) re-admits it. A replica restored
	// mid-cooloff keeps its original deadline instead.
	r.ejected = true
	if !cooling {
		r.until = now.Add(s.opts.Cooloff)
	}
	s.mem.Store(m.withReplica(r))
	s.adds.Add(1)
	closed := s.closed
	s.mu.Unlock()
	if !cooling && !closed {
		s.aux.Add(1)
		go func() {
			defer s.aux.Done()
			r.probes.Add(1)
			err := s.opts.Probe(addr)
			if err != nil {
				r.probeNGs.Add(1)
			}
			// Only apply if the replica is still the member for this addr:
			// a remove/re-add racing the probe must not have a stale probe
			// outcome resurrect or condemn the new incarnation.
			if s.mem.Load().byAddr[addr] == r {
				s.applyOutcome(r, err == nil)
			}
		}()
	}
	return nil
}

// RemoveReplica retires an address from the set: it leaves the
// balancing rotation immediately (no new picks), its in-flight
// exchanges are drained (bounded by DrainTimeout), its health history
// is kept for a flap-back AddReplica, and the OnRemove hooks fire so
// the engine can flush the address's pooled connections. Removing the
// last replica is refused — a set always resolves to something.
func (s *Set) RemoveReplica(addr string) error {
	s.mu.Lock()
	m := s.mem.Load()
	r := m.byAddr[addr]
	if r == nil {
		s.mu.Unlock()
		return fmt.Errorf("backend: set %q has no replica %q", s.name, addr)
	}
	if len(m.replicas) == 1 {
		s.mu.Unlock()
		return fmt.Errorf("backend: set %q: refusing to remove last replica %q", s.name, addr)
	}
	s.mem.Store(m.withoutAddr(addr))
	if len(s.retired) >= retiredCap {
		oldest, at := "", time.Time{}
		for a, h := range s.retired {
			if oldest == "" || h.retiredAt.Before(at) {
				oldest, at = a, h.retiredAt
			}
		}
		delete(s.retired, oldest)
	}
	s.retired[addr] = retiredHealth{
		ejected:     r.ejected,
		until:       r.until,
		consecFails: r.consecFails,
		ejections:   r.ejections,
		ewmaNs:      r.ewmaNs.Load(),
		retiredAt:   time.Now(),
	}
	s.removes.Add(1)
	s.draining[addr] = r
	fire := append([]func(string){}, s.onRemove...)
	s.mu.Unlock()
	s.drain(r)
	s.mu.Lock()
	if s.draining[addr] == r {
		delete(s.draining, addr)
	}
	s.mu.Unlock()
	for _, fn := range fire {
		fn(addr)
	}
	return nil
}

// drain waits (bounded by DrainTimeout, cut short by Close) for a
// retired replica's in-flight exchanges to finish; the draining map
// keeps Release resolving the address meanwhile, so the slot count can
// still fall to zero through the exchanges that hold slots.
func (s *Set) drain(r *replica) {
	deadline := time.Now().Add(s.opts.DrainTimeout)
	for r.inFlight.Load() > 0 && time.Now().Before(deadline) {
		select {
		case <-s.stop:
			return
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Pick resolves the set to one replica address and accounts one
// in-flight exchange against it; the caller must pair it with Release.
// Candidates are the live replicas plus any whose cooloff has expired
// (probation); avoid, when it names a replica, is skipped as long as
// another candidate remains — the fault-recovery redial path passes the
// replica that just failed so the retry lands somewhere else. When
// every replica is cooling (only reachable through adopted state), the
// one closest to probation is returned rather than failing the flow.
func (s *Set) Pick(avoid string) string {
	m := s.mem.Load()
	var r *replica
	if len(m.replicas) == 1 {
		r = m.replicas[0]
	} else {
		r = s.pickMulti(m, avoid)
	}
	r.picks.Add(1)
	r.inFlight.Add(1)
	return r.addr
}

func (s *Set) pickMulti(m *members, avoid string) *replica {
	now := time.Now()
	cands := make([]*replica, 0, len(m.replicas))
	var soonest *replica
	s.mu.Lock()
	for _, r := range m.replicas {
		if r.ejected && now.Before(r.until) {
			if soonest == nil || r.until.Before(soonest.until) {
				soonest = r
			}
			continue
		}
		cands = append(cands, r)
	}
	s.mu.Unlock()
	if len(cands) == 0 {
		return soonest
	}
	if avoid != "" && len(cands) > 1 {
		kept := cands[:0]
		for _, r := range cands {
			if r.addr != avoid {
				kept = append(kept, r)
			}
		}
		if len(kept) > 0 {
			cands = kept
		}
	}
	if len(cands) == 1 {
		return cands[0]
	}
	if s.opts.Policy == PowerOfTwo {
		i := rand.Intn(len(cands))
		j := rand.Intn(len(cands) - 1)
		if j >= i {
			j++
		}
		return better(cands[i], cands[j])
	}
	return cands[int((s.rr.Add(1)-1)%uint64(len(cands)))]
}

// better is the power-of-two comparison: fewer in-flight exchanges
// wins, latency EWMA breaks the tie.
func better(a, b *replica) *replica {
	la, lb := a.inFlight.Load(), b.inFlight.Load()
	if la != lb {
		if la < lb {
			return a
		}
		return b
	}
	if b.ewmaNs.Load() < a.ewmaNs.Load() {
		return b
	}
	return a
}

// Release returns a Pick's in-flight slot. A replica mid-removal still
// resolves (so its drain can complete); genuinely unknown addresses are
// ignored so callers can release unconditionally.
func (s *Set) Release(addr string) {
	if r := s.mem.Load().byAddr[addr]; r != nil {
		r.inFlight.Add(-1)
		return
	}
	s.mu.Lock()
	r := s.draining[addr]
	s.mu.Unlock()
	if r != nil {
		r.inFlight.Add(-1)
	}
}

// Report feeds one exchange outcome into the ejection state machine. A
// success resets the consecutive-failure count, folds latency (when
// positive) into the replica's EWMA, and re-admits a probation replica;
// a failure increments the count and ejects the replica once it reaches
// FailThreshold — unless that would drop the live count to MinLive — or
// re-ejects a probation replica immediately with a doubled cooloff.
func (s *Set) Report(addr string, latency time.Duration, err error) {
	r := s.mem.Load().byAddr[addr]
	if r == nil {
		// A replica mid-removal takes no further health transitions: its
		// history was captured at removal time.
		return
	}
	if err == nil {
		r.oks.Add(1)
		if latency > 0 {
			updateEWMA(&r.ewmaNs, latency)
		}
	} else {
		r.fails.Add(1)
	}
	s.applyOutcome(r, err == nil)
}

// applyOutcome runs the mu-guarded health transition shared by Report
// and the prober, firing the eject/readmit hooks outside the lock.
func (s *Set) applyOutcome(r *replica, ok bool) {
	var fire []func(string)
	s.mu.Lock()
	switch {
	case ok:
		r.consecFails = 0
		if r.ejected {
			r.ejected = false
			r.until = time.Time{}
			s.readmits.Add(1)
			fire = append(fire, s.onReadmit...)
		}
	case r.ejected:
		// A failure while cooling (an exchange that was already in
		// flight) changes nothing; a probation failure re-ejects with a
		// doubled window.
		r.consecFails++
		if !time.Now().Before(r.until) {
			s.ejectLocked(r)
			fire = append(fire, s.onEject...)
		}
	default:
		r.consecFails++
		if r.consecFails >= s.opts.FailThreshold && s.liveCountLocked() > min(s.opts.MinLive, len(s.mem.Load().replicas)) {
			s.ejectLocked(r)
			fire = append(fire, s.onEject...)
		}
	}
	s.mu.Unlock()
	for _, fn := range fire {
		fn(r.addr)
	}
}

// ejectLocked marks r ejected for an exponentially growing cooloff.
// Caller holds s.mu.
func (s *Set) ejectLocked(r *replica) {
	shift := r.ejections
	if shift > 6 {
		shift = 6 // 64x the base is past any sane MaxCooloff already
	}
	d := s.opts.Cooloff << uint(shift)
	if d > s.opts.MaxCooloff || d <= 0 {
		d = s.opts.MaxCooloff
	}
	r.ejected = true
	r.until = time.Now().Add(d)
	r.ejections++
	s.ejects.Add(1)
}

// liveCountLocked counts replicas not currently ejected. Caller holds
// s.mu.
func (s *Set) liveCountLocked() int {
	n := 0
	for _, r := range s.mem.Load().replicas {
		if !r.ejected {
			n++
		}
	}
	return n
}

// updateEWMA folds one latency sample into the running average with a
// 1/8 gain, lock-free.
func updateEWMA(e *atomic.Int64, sample time.Duration) {
	for {
		old := e.Load()
		next := int64(sample)
		if old != 0 {
			next = old + (int64(sample)-old)/8
		}
		if e.CompareAndSwap(old, next) {
			return
		}
	}
}

// Start launches the active prober (a no-op when ProbeInterval is zero
// or the set is closed). Idempotent.
func (s *Set) Start() {
	s.mu.Lock()
	if s.started || s.closed || s.opts.ProbeInterval <= 0 {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	go s.probeLoop()
}

// Close stops the prober, cuts short any in-progress removal drains and
// waits for outstanding admission probes. Idempotent; the set's picking
// and reporting surfaces keep working (a closed set is merely
// unprobed).
func (s *Set) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	started := s.started
	s.mu.Unlock()
	close(s.stop)
	if started {
		<-s.done
	}
	s.aux.Wait()
}

func (s *Set) probeLoop() {
	defer close(s.done)
	t := time.NewTicker(s.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.probeAll()
		}
	}
}

// probeAll checks every replica concurrently so one hung probe cannot
// starve the others; each probe is deadline-bounded by the Probe
// function itself (DialProbe honours ProbeTimeout).
func (s *Set) probeAll() {
	var wg sync.WaitGroup
	for _, r := range s.mem.Load().replicas {
		wg.Add(1)
		go func(r *replica) {
			defer wg.Done()
			r.probes.Add(1)
			err := s.opts.Probe(r.addr)
			if err != nil {
				r.probeNGs.Add(1)
			}
			s.applyOutcome(r, err == nil)
		}(r)
	}
	wg.Wait()
}

// Adopt carries replica health from an equivalent previous set —
// typically the one a gateway reload is replacing — into this one:
// ejection state, cooloff progress, consecutive-failure counts and
// latency EWMAs are copied for every address both sets share, so a hot
// swap does not reset a sick replica to live and re-learn its sickness
// on client traffic. Counters and in-flight accounting stay fresh.
func (s *Set) Adopt(old *Set) {
	if old == nil || old == s {
		return
	}
	type health struct {
		ejected     bool
		until       time.Time
		consecFails int
		ejections   int
		ewmaNs      int64
	}
	oldMem := old.mem.Load()
	carried := make(map[string]health, len(oldMem.replicas))
	old.mu.Lock()
	for _, r := range oldMem.replicas {
		carried[r.addr] = health{r.ejected, r.until, r.consecFails, r.ejections, r.ewmaNs.Load()}
	}
	retired := make(map[string]retiredHealth, len(old.retired))
	for addr, h := range old.retired {
		retired[addr] = h
	}
	old.mu.Unlock()
	s.mu.Lock()
	for _, r := range s.mem.Load().replicas {
		h, ok := carried[r.addr]
		if !ok {
			continue
		}
		r.ejected = h.ejected
		r.until = h.until
		r.consecFails = h.consecFails
		r.ejections = h.ejections
		r.ewmaNs.Store(h.ewmaNs)
	}
	// The removed-replica history crosses the swap too, so a flap-back
	// re-add shortly after a hot reload still sees its record.
	for addr, h := range retired {
		if _, member := s.mem.Load().byAddr[addr]; member {
			continue
		}
		if _, have := s.retired[addr]; !have {
			s.retired[addr] = h
		}
	}
	s.mu.Unlock()
}

// ReplicaSnapshot is one replica's point-in-time state.
type ReplicaSnapshot struct {
	// Addr is the replica address.
	Addr string `json:"addr"`
	// Live is true when the replica is not ejected; Probation marks an
	// ejected replica whose cooloff has expired (pickable again).
	Live      bool `json:"live"`
	Probation bool `json:"probation,omitempty"`
	// CooloffUntil is when an ejected replica becomes probeable again.
	CooloffUntil time.Time `json:"cooloff_until"`
	// InFlight is the current number of exchanges charged to the replica.
	InFlight int64 `json:"in_flight"`
	// EWMANs is the exchange-latency running average in nanoseconds.
	EWMANs int64 `json:"ewma_ns"`
	// Picks/Successes/Failures count balancing picks and reported
	// exchange outcomes; ConsecFails is the current failure streak.
	Picks       uint64 `json:"picks"`
	Successes   uint64 `json:"successes"`
	Failures    uint64 `json:"failures"`
	ConsecFails int    `json:"consec_fails"`
	// Ejections counts how many times this replica has been ejected.
	Ejections int `json:"ejections"`
	// Probes/ProbeFailures count active health probes.
	Probes        uint64 `json:"probes"`
	ProbeFailures uint64 `json:"probe_failures"`
}

// SetSnapshot is a set's point-in-time state, JSON-shaped for the
// admin endpoint's /backends view.
type SetSnapshot struct {
	Name   string `json:"name"`
	Policy Policy `json:"policy"`
	// ProbeInterval/ProbeTimeout are nanoseconds (0 = passive only).
	ProbeInterval time.Duration `json:"probe_interval_ns"`
	ProbeTimeout  time.Duration `json:"probe_timeout_ns"`
	FailThreshold int           `json:"fail_threshold"`
	Cooloff       time.Duration `json:"cooloff_ns"`
	MaxCooloff    time.Duration `json:"max_cooloff_ns"`
	MinLive       int           `json:"min_live"`
	// Ejections/Readmissions are set-lifetime totals;
	// MembershipAdds/MembershipRemoves count dynamic AddReplica and
	// RemoveReplica applications.
	Ejections         uint64            `json:"ejections_total"`
	Readmissions      uint64            `json:"readmissions_total"`
	MembershipAdds    uint64            `json:"membership_adds_total"`
	MembershipRemoves uint64            `json:"membership_removes_total"`
	Replicas          []ReplicaSnapshot `json:"replicas"`
}

// Snapshot captures the set's configuration, totals and every
// replica's state, replicas sorted by address.
func (s *Set) Snapshot() SetSnapshot {
	m := s.mem.Load()
	snap := SetSnapshot{
		Name:              s.name,
		Policy:            s.opts.Policy,
		ProbeInterval:     s.opts.ProbeInterval,
		ProbeTimeout:      s.opts.ProbeTimeout,
		FailThreshold:     s.opts.FailThreshold,
		Cooloff:           s.opts.Cooloff,
		MaxCooloff:        s.opts.MaxCooloff,
		MinLive:           s.opts.MinLive,
		Ejections:         s.ejects.Load(),
		Readmissions:      s.readmits.Load(),
		MembershipAdds:    s.adds.Load(),
		MembershipRemoves: s.removes.Load(),
		Replicas:          make([]ReplicaSnapshot, 0, len(m.replicas)),
	}
	now := time.Now()
	s.mu.Lock()
	for _, r := range m.replicas {
		snap.Replicas = append(snap.Replicas, ReplicaSnapshot{
			Addr:          r.addr,
			Live:          !r.ejected,
			Probation:     r.ejected && !now.Before(r.until),
			CooloffUntil:  r.until,
			InFlight:      r.inFlight.Load(),
			EWMANs:        r.ewmaNs.Load(),
			Picks:         r.picks.Load(),
			Successes:     r.oks.Load(),
			Failures:      r.fails.Load(),
			ConsecFails:   r.consecFails,
			Ejections:     r.ejections,
			Probes:        r.probes.Load(),
			ProbeFailures: r.probeNGs.Load(),
		})
	}
	s.mu.Unlock()
	return snap
}

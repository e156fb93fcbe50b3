package discovery

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"starlink/internal/backend"
)

// Reconciler defaults.
const (
	// DefaultRefresh is the poll interval when the spec gives none.
	DefaultRefresh = 5 * time.Second
	// DefaultDebounce is how long an endpoint must be continuously
	// present before admission (and continuously absent before
	// removal) when the spec gives none.
	DefaultDebounce = 10 * time.Second
	// DefaultMinTTL is the minimum membership age before a replica may
	// be removed when the spec gives none.
	DefaultMinTTL = 30 * time.Second
)

// Options configures a Reconciler.
type Options struct {
	// Source supplies endpoint snapshots. Required. The reconciler
	// owns it: Close closes the source too.
	Source Source
	// Refresh is the poll interval (default DefaultRefresh).
	Refresh time.Duration
	// Debounce is the hysteresis window: an endpoint must be present
	// for Debounce before it is added, and absent for Debounce before
	// it is removed (default DefaultDebounce; 0 keeps the default —
	// use a tiny positive value to effectively disable it in tests).
	Debounce time.Duration
	// MinTTL is the minimum time a replica stays a member before the
	// reconciler may remove it, regardless of the source (default
	// DefaultMinTTL).
	MinTTL time.Duration
	// MaxChurn caps membership changes (adds + removes) applied per
	// reconcile round; 0 means unlimited.
	MaxChurn int
}

// Reconciler drives one backend.Set's membership from one Source. Each
// round it resolves the source, diffs the desired endpoints against
// current membership, and applies adds and removes through the set's
// dynamic-membership APIs — with hysteresis, so a flapping
// advertisement never churns the balancer: endpoints must be
// continuously present for the debounce window before admission,
// continuously absent for the window (and members for at least MinTTL)
// before removal, at most MaxChurn changes land per round, and the set
// is never shrunk below the set's MinLive floor.
type Reconciler struct {
	set  *backend.Set
	opts Options

	resolutions     atomic.Uint64
	resolveErrors   atomic.Uint64
	endpoints       atomic.Uint64
	adds            atomic.Uint64
	removes         atomic.Uint64
	flapsSuppressed atomic.Uint64
	lastResolution  atomic.Int64 // unix nanos; 0 = never

	mu       sync.Mutex
	members  map[string]time.Time // addr -> admitted at
	seen     map[string]*sighting // addr -> presence tracking
	started  bool
	closed   bool
	stop     chan struct{}
	done     chan struct{}
	nudge    chan struct{} // test hook: force a round, reply on roundDone
	roundOut chan struct{}
}

// sighting tracks one advertised endpoint's presence across rounds.
type sighting struct {
	firstSeen time.Time // start of the current continuous-presence run
	expires   time.Time // advertisement TTL deadline; zero = none
	present   bool      // in the latest resolution (or within TTL)
	absentAt  time.Time // start of the current absence run (members only)
}

// New binds a reconciler to set. The set's existing replicas are
// adopted as members immediately so min-TTL protects them from a
// source that disagrees with the seed.
func New(set *backend.Set, opts Options) (*Reconciler, error) {
	if set == nil {
		return nil, fmt.Errorf("%w: reconciler needs a backend set", ErrSource)
	}
	if opts.Source == nil {
		return nil, fmt.Errorf("%w: reconciler needs a source", ErrSource)
	}
	if opts.Refresh <= 0 {
		opts.Refresh = DefaultRefresh
	}
	if opts.Debounce <= 0 {
		opts.Debounce = DefaultDebounce
	}
	if opts.MinTTL <= 0 {
		opts.MinTTL = DefaultMinTTL
	}
	r := &Reconciler{
		set:      set,
		opts:     opts,
		members:  make(map[string]time.Time),
		seen:     make(map[string]*sighting),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		nudge:    make(chan struct{}),
		roundOut: make(chan struct{}, 1),
	}
	now := time.Now()
	for _, addr := range set.Addrs() {
		r.members[addr] = now
	}
	return r, nil
}

// SetName names the backend set this reconciler drives.
func (r *Reconciler) SetName() string { return r.set.Name() }

// Backend returns the driven set.
func (r *Reconciler) Backend() *backend.Set { return r.set }

// Source describes the configured source.
func (r *Reconciler) Source() string { return r.opts.Source.String() }

// Options returns the options the reconciler runs with: New's, its
// defaults filled in.
func (r *Reconciler) Options() Options { return r.opts }

// Start launches the reconcile loop: an immediate first round, then
// one per refresh tick, plus out-of-band rounds whenever a notifying
// source (SSDP NOTIFY) nudges. Idempotent.
func (r *Reconciler) Start() {
	r.mu.Lock()
	if r.started || r.closed {
		r.mu.Unlock()
		return
	}
	r.started = true
	r.mu.Unlock()
	go r.loop()
}

func (r *Reconciler) loop() {
	defer close(r.done)
	var updates <-chan struct{}
	if n, ok := r.opts.Source.(Notifier); ok {
		updates = n.Updates()
	}
	tick := time.NewTicker(r.opts.Refresh)
	defer tick.Stop()
	r.reconcile(time.Now())
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
			r.reconcile(time.Now())
		case <-updates:
			r.reconcile(time.Now())
		case <-r.nudge:
			r.reconcile(time.Now())
			select {
			case r.roundOut <- struct{}{}:
			default:
			}
		}
	}
}

// Poke forces one reconcile round out of band and waits for it to
// finish; a no-op when the loop is not running. Tests use it to step
// the reconciler deterministically.
func (r *Reconciler) Poke() {
	r.mu.Lock()
	running := r.started && !r.closed
	r.mu.Unlock()
	if !running {
		return
	}
	select {
	case <-r.roundOut: // drain a stale completion
	default:
	}
	select {
	case r.nudge <- struct{}{}:
	case <-r.stop:
		return
	}
	select {
	case <-r.roundOut:
	case <-r.stop:
	}
}

// reconcile runs one resolve-diff-apply round.
func (r *Reconciler) reconcile(now time.Time) {
	eps, err := r.opts.Source.Resolve()
	r.resolutions.Add(1)
	if err != nil {
		// Resolution unavailable: keep the membership we have. An
		// unreachable DA must not empty a healthy set.
		r.resolveErrors.Add(1)
		return
	}
	r.lastResolution.Store(now.UnixNano())
	r.endpoints.Add(uint64(len(eps)))

	r.mu.Lock()
	resolved := make(map[string]time.Duration, len(eps))
	for _, ep := range eps {
		if ep.Addr == "" {
			continue
		}
		if ttl, ok := resolved[ep.Addr]; !ok || ep.TTL > ttl {
			resolved[ep.Addr] = ep.TTL
		}
	}

	// Fold the resolution into the sighting table. An endpoint is
	// "present" when the latest resolution lists it or its last
	// advertisement's TTL has not run out.
	for addr, ttl := range resolved {
		sg := r.seen[addr]
		if sg == nil {
			sg = &sighting{firstSeen: now}
			r.seen[addr] = sg
		} else if !sg.present {
			sg.firstSeen = now // absence broke the run; start over
		}
		sg.present = true
		sg.absentAt = time.Time{}
		if ttl > 0 {
			sg.expires = now.Add(ttl)
		} else {
			sg.expires = time.Time{}
		}
	}
	// Members the source has never listed (the spec's seed replicas)
	// need a sighting too, or their absence could never out-wait the
	// debounce window.
	for addr := range r.members {
		if _, ok := resolved[addr]; !ok && r.seen[addr] == nil {
			r.seen[addr] = &sighting{absentAt: now}
		}
	}
	for addr, sg := range r.seen {
		if _, ok := resolved[addr]; ok {
			continue
		}
		if !sg.expires.IsZero() && now.Before(sg.expires) {
			continue // TTL still covers it
		}
		if sg.present {
			sg.present = false
			sg.absentAt = now
		}
		if _, member := r.members[addr]; !member {
			// A pending add that vanished before admission: the
			// debounce window just absorbed a flap.
			r.flapsSuppressed.Add(1)
			delete(r.seen, addr)
		}
	}

	// Diff: adds are endpoints continuously present for the debounce
	// window; removes are members continuously absent for the window
	// that have also been members for at least MinTTL.
	var adds, removes []string
	for addr, sg := range r.seen {
		if _, member := r.members[addr]; member || !sg.present {
			continue
		}
		if now.Sub(sg.firstSeen) >= r.opts.Debounce {
			adds = append(adds, addr)
		}
	}
	for addr, since := range r.members {
		sg := r.seen[addr]
		if sg == nil || sg.present {
			continue
		}
		if now.Sub(sg.absentAt) >= r.opts.Debounce && now.Sub(since) >= r.opts.MinTTL {
			removes = append(removes, addr)
		}
	}
	sort.Strings(adds)
	sort.Strings(removes)

	// Apply adds before removes so a rolling replacement never dips
	// through the floor, cap total churn, and honor the set's MinLive.
	churn := 0
	capped := func() bool { return r.opts.MaxChurn > 0 && churn >= r.opts.MaxChurn }
	for _, addr := range adds {
		if capped() {
			break
		}
		if err := r.set.AddReplica(addr); err == nil {
			r.members[addr] = now
			r.adds.Add(1)
			churn++
		}
	}
	plan := make([]string, 0, len(removes))
	for _, addr := range removes {
		if capped() {
			break
		}
		if len(r.members)-len(plan) <= r.set.MinLive() {
			break // never shrink below the floor
		}
		plan = append(plan, addr)
		churn++
	}
	for _, addr := range plan {
		delete(r.members, addr)
		delete(r.seen, addr)
	}
	r.mu.Unlock()

	// RemoveReplica drains in-flight picks (bounded by the set's
	// DrainTimeout), so apply removals outside the reconciler lock.
	for _, addr := range plan {
		if err := r.set.RemoveReplica(addr); err != nil {
			// The set refused (e.g. last replica); restore membership.
			r.mu.Lock()
			r.members[addr] = now
			r.mu.Unlock()
			continue
		}
		r.removes.Add(1)
	}
}

// Adopt carries the cumulative counters over from the reconciler this
// one replaces on hot reload, so /metrics rates survive the swap the
// same way backend health does.
func (r *Reconciler) Adopt(old *Reconciler) {
	if old == nil || old == r {
		return
	}
	r.resolutions.Add(old.resolutions.Load())
	r.resolveErrors.Add(old.resolveErrors.Load())
	r.endpoints.Add(old.endpoints.Load())
	r.adds.Add(old.adds.Load())
	r.removes.Add(old.removes.Load())
	r.flapsSuppressed.Add(old.flapsSuppressed.Load())
	if last := old.lastResolution.Load(); last > r.lastResolution.Load() {
		r.lastResolution.Store(last)
	}
}

// Close stops the loop and closes the source. Idempotent.
func (r *Reconciler) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	started := r.started
	r.mu.Unlock()
	close(r.stop)
	if started {
		<-r.done
	}
	r.opts.Source.Close()
}

// Snapshot is a point-in-time JSON view of one reconciler, served by
// the admin /discovery route.
type Snapshot struct {
	Set             string   `json:"set"`
	Source          string   `json:"source"`
	Refresh         string   `json:"refresh"`
	Debounce        string   `json:"debounce"`
	MinTTL          string   `json:"min_ttl"`
	MaxChurn        int      `json:"max_churn,omitempty"`
	MinLive         int      `json:"min_live"`
	Resolutions     uint64   `json:"resolutions_total"`
	ResolveErrors   uint64   `json:"resolve_errors_total"`
	Endpoints       uint64   `json:"endpoints_total"`
	Adds            uint64   `json:"adds_total"`
	Removes         uint64   `json:"removes_total"`
	FlapsSuppressed uint64   `json:"flaps_suppressed_total"`
	LastResolution  float64  `json:"last_resolution_age_seconds"` // -1 = never
	Members         []string `json:"members"`
	Pending         []string `json:"pending,omitempty"` // sighted, inside debounce
}

// Snapshot captures the reconciler's current state.
func (r *Reconciler) Snapshot() Snapshot {
	s := Snapshot{
		Set:             r.set.Name(),
		Source:          r.opts.Source.String(),
		Refresh:         r.opts.Refresh.String(),
		Debounce:        r.opts.Debounce.String(),
		MinTTL:          r.opts.MinTTL.String(),
		MaxChurn:        r.opts.MaxChurn,
		MinLive:         r.set.MinLive(),
		Resolutions:     r.resolutions.Load(),
		ResolveErrors:   r.resolveErrors.Load(),
		Endpoints:       r.endpoints.Load(),
		Adds:            r.adds.Load(),
		Removes:         r.removes.Load(),
		FlapsSuppressed: r.flapsSuppressed.Load(),
		LastResolution:  -1,
	}
	if last := r.lastResolution.Load(); last > 0 {
		s.LastResolution = max(time.Since(time.Unix(0, last)).Seconds(), 0)
	}
	r.mu.Lock()
	for addr := range r.members {
		s.Members = append(s.Members, addr)
	}
	for addr, sg := range r.seen {
		if _, member := r.members[addr]; !member && sg.present {
			s.Pending = append(s.Pending, addr)
		}
	}
	r.mu.Unlock()
	sort.Strings(s.Members)
	sort.Strings(s.Pending)
	return s
}

package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"starlink/internal/backend"
	"starlink/internal/discovery"
	"starlink/internal/engine"
	"starlink/internal/gateway"
	"starlink/internal/network"
	"starlink/internal/rcache"
)

// This file is the one reader of deployment specs. A grammar is a table
// of directive rows — mediatorDirectives, gatewayDirectives — and
// parseSpec the only loop over a document's lines. A new directive is a
// new row, a new option an entry in a row's option list; the references in
// docs/MODELS.md and docs/GATEWAY.md are held to the rows by
// TestDirectiveReference.

// directive is one line kind of a grammar: what the reader checks before
// it hands the line to parse, and what the reference says about it.
type directive[S any] struct {
	name  string
	usage string // the operands, as "want:" errors and the reference print them
	once  bool   // at most one line of this kind in a document
	// min and max bound the operand words (the words after the name).
	min, max int
	def      string // the value in force without the line, from the constant that sets it
	doc      string // what the line means
	// parse reads the line r holds into s. It refuses through r and need
	// not stop there: the first refusal is kept, and s dropped with it.
	parse func(s *S, r *reading)
}

// many is a directive's max when any number of operands may follow.
const many = math.MaxInt

// scalar is the row of a directive that is one operand and may be given
// once: most knobs.
func scalar[S any](name, usage, def, doc string, parse func(s *S, r *reading)) directive[S] {
	return directive[S]{name: name, usage: usage, once: true, min: 1, max: 1, def: def, doc: doc, parse: parse}
}

// reading is one document being read: whose errors it builds, what it
// has met so far, and the line the rows are looking at.
type reading struct {
	sentinels []error
	// first has the 0-based line that first gave each directive and each
	// once-per-thing key (see unique).
	first map[string]int
	// after is what lines left for when the whole document is read; the
	// caller runs it, in order, among its own whole-document checks.
	after []func() error

	lineNo int        // 0-based
	name   string     // the directive
	rest   string     // the line after the directive, trimmed
	words  []string   // the operands
	err    *SpecError // why the line is refused, once it is
}

// errAt builds the SpecError of a 0-based line; -1 is the whole document.
func (r *reading) errAt(lineNo int, directive, format string, args ...any) *SpecError {
	return &SpecError{Line: lineNo + 1, Directive: directive,
		Msg: fmt.Sprintf(format, args...), sentinels: r.sentinels}
}

// refuse refuses the current line, unless it already is.
func (r *reading) refuse(format string, args ...any) {
	if r.err == nil {
		r.err = r.errAt(r.lineNo, r.name, format, args...)
	}
}

// unique refuses a second line for the same thing — a side of one
// colour, a route of one name — naming the line of the first. The key
// is the value as parsed, not the word: "side 00" and "side 0" are one
// colour.
func (r *reading) unique(what, key string) {
	k := what + "\x00" + key
	if first, dup := r.first[k]; dup {
		r.refuse("duplicate %s %q (first given on line %d)", what, key, first+1)
		return
	}
	r.first[k] = r.lineNo
}

// repeatedKey returns the first key two of a line's key=value words
// share. An empty key is a key like any other, so "route = =" and
// "hostmap a = b = c" are refused: no directive takes more than one
// bare "=".
func repeatedKey(words []string) (string, bool) {
	for i, w := range words {
		k, _, ok := strings.Cut(w, "=")
		if !ok {
			continue
		}
		for _, earlier := range words[:i] {
			if ek, _, ok := strings.Cut(earlier, "="); ok && ek == k {
				return k, true
			}
		}
	}
	return "", false
}

// parseSpec reads doc line by line against table into s. It owns
// everything the line kinds share: blank and comment lines, the unknown
// directive, once-only, a repeated option key and the operand count. The
// reading comes back for the caller's whole-document checks.
func parseSpec[S any](doc string, table []directive[S], s *S, sentinels ...error) (*reading, error) {
	r := &reading{sentinels: sentinels, first: map[string]int{}}
	for lineNo, line := range strings.Split(doc, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		r.lineNo, r.name, r.words = lineNo, fields[0], fields[1:]
		r.rest = strings.TrimSpace(line[len(r.name):])
		var row *directive[S]
		for i := range table {
			if table[i].name == r.name {
				row = &table[i]
			}
		}
		if row == nil {
			r.refuse("unknown directive")
		} else if first, dup := r.first[row.name]; dup && row.once {
			r.refuse("duplicate directive (first given on line %d)", first+1)
		} else if k, twice := repeatedKey(r.words); twice {
			r.refuse("option %q given twice", k)
		} else if len(r.words) < row.min || len(r.words) > row.max {
			r.refuse("want: %s %s", row.name, row.usage)
		} else {
			r.first[row.name] = lineNo
			row.parse(s, r)
		}
		if r.err != nil {
			return nil, r.err
		}
	}
	return r, nil
}

// The value readers return what a word says, or refuse the line saying
// what they wanted. count reads a whole number from min to max.
func (r *reading) count(word string, min, max int) int {
	n, err := strconv.Atoi(word)
	if err != nil || n < min || n > max {
		want := "a whole number"
		if max != many {
			want += fmt.Sprintf(" from %d to %d", min, max)
		} else if min != math.MinInt {
			want += fmt.Sprintf(", %d or more", min)
		}
		r.refuse("bad value %q: want %s", word, want)
	}
	return n
}

// positive is the least duration a knob that must be above zero takes.
const positive = time.Nanosecond

// duration reads a Go duration of min or more.
func (r *reading) duration(word string, min time.Duration) time.Duration {
	d, err := time.ParseDuration(word)
	if err != nil || d < min {
		r.refuse(`bad value %q: want a duration like "250ms" or "2s", %v or more`, word, min)
	}
	return d
}

// durationOrOff reads a duration above zero, or the word off as -1.
func (r *reading) durationOrOff(word string) time.Duration {
	if word == "off" {
		return -1
	}
	return r.duration(word, positive)
}

// list splits a comma-separated word; no part may be empty.
func (r *reading) list(word string) []string {
	parts := strings.Split(word, ",")
	for _, p := range parts {
		if p == "" {
			r.refuse("bad value %q: want a comma-separated list with no empty part", word)
		}
	}
	return parts
}

// oneOf reads one of the words of a usage like "xml|json".
func (r *reading) oneOf(word, usage string) string {
	for _, c := range strings.Split(usage, "|") {
		if word == c {
			return word
		}
	}
	r.refuse("bad value %q: want %s", word, usage)
	return ""
}

// filled reads any word but the empty one (an option written "key=").
func (r *reading) filled(word string) string {
	if word == "" {
		r.refuse("bad value %q: want one that is not empty", word)
	}
	return word
}

// option is one word a directive takes after its operands: key=value
// as usage shows the value, or with no usage a flag, the bare key.
type option[T any] struct {
	key, usage string
	need       bool // the line is refused without it
	set        func(t *T, r *reading, value string)
}

// form is the option as a usage line prints it.
func (o option[T]) form() string {
	form := o.key
	if o.usage != "" {
		form += "=" + o.usage
	}
	if !o.need {
		form = "[" + form + "]"
	}
	return form
}

// forms is the usage of a whole option list.
func forms[T any](opts []option[T]) string { return joined(opts, " ", option[T].form) }

// joined is strings.Join over what name makes of each x.
func joined[T any](xs []T, sep string, name func(T) string) string {
	names := make([]string, len(xs))
	for i, x := range xs {
		names[i] = name(x)
	}
	return strings.Join(names, sep)
}

// options walks a line's option words into t: each must be an entry of
// opts, written as the entry says, and no needed entry may be missing.
// (That none comes twice the line loop has already seen to.)
func options[T any](r *reading, words []string, opts []option[T], t *T) {
	given := make([]bool, len(opts))
	for _, w := range words {
		k, v, valued := strings.Cut(w, "=")
		at := -1
		for i := range opts {
			if opts[i].key == k {
				at = i
			}
		}
		switch {
		case at < 0 && valued:
			r.refuse("unknown option %q (want: %s)", k, forms(opts))
		case at < 0 || valued != (opts[at].usage != ""):
			r.refuse("bad option %q (want: %s)", w, forms(opts))
		default:
			opts[at].set(t, r, v)
			given[at] = true
		}
	}
	for i, o := range opts {
		if o.need && !given[i] {
			r.refuse("needs %s", o.form())
		}
	}
}

// The option lists of the .mediator directives that have one.
var (
	sideOptions = []option[SideSpec]{
		{"path", "<path>", false, func(s *SideSpec, _ *reading, v string) { s.Path = v }},
		{"objectkey", "<key>", false, func(s *SideSpec, _ *reading, v string) { s.ObjectKey = v }},
		{"routes", "<table>", false, func(s *SideSpec, _ *reading, v string) { s.Routes = v }},
		{"defs", "<automaton>", false, func(s *SideSpec, _ *reading, v string) { s.Defs = v }},
		{"target", "<addr>|<backend>", false, func(s *SideSpec, _ *reading, v string) { s.Target = v }},
		{"server", "", false, func(s *SideSpec, _ *reading, _ string) { s.Server = true }},
	}
	probeOptions = []option[BackendSpec]{
		{"timeout", "<duration>", false, func(b *BackendSpec, r *reading, v string) { b.ProbeTimeout = r.duration(v, positive) }},
	}
	ejectOptions = []option[BackendSpec]{
		{"fails", "<n>", false, func(b *BackendSpec, r *reading, v string) { b.FailThreshold = r.count(v, 1, many) }},
		{"cooloff", "<duration>", false, func(b *BackendSpec, r *reading, v string) { b.Cooloff = r.duration(v, positive) }},
		{"max_cooloff", "<duration>", false, func(b *BackendSpec, r *reading, v string) { b.MaxCooloff = r.duration(v, positive) }},
		{"min_live", "<n>", false, func(b *BackendSpec, r *reading, v string) { b.MinLive = r.count(v, 1, many) }},
	}
	cacheableOptions = []option[engine.CacheRule]{
		{"ttl", "<duration>", true, func(c *engine.CacheRule, r *reading, v string) { c.TTL = r.duration(v, positive) }},
		{"vary", "<path,...>", false, func(c *engine.CacheRule, r *reading, v string) { c.Vary = r.list(v) }},
	}
	// discoverTuning are the reconciler's options, which every source takes.
	discoverTuning = []option[DiscoverSpec]{
		{"refresh", "<duration>", false, func(d *DiscoverSpec, r *reading, v string) { d.Refresh = r.duration(v, positive) }},
		{"debounce", "<duration>", false, func(d *DiscoverSpec, r *reading, v string) { d.Debounce = r.duration(v, positive) }},
		{"min_ttl", "<duration>", false, func(d *DiscoverSpec, r *reading, v string) { d.MinTTL = r.duration(v, positive) }},
		{"max_churn", "<n>", false, func(d *DiscoverSpec, r *reading, v string) { d.MaxChurn = r.count(v, 1, many) }},
	}
)

// discoverSources has a row per `discover … via=`: the options that are
// the source's own (one of another source is refused) and what opens it.
type discoverSource struct {
	via  string
	opts []option[DiscoverSpec]
	open func(ds DiscoverSpec) (discovery.Source, error)
}

var discoverSources = []discoverSource{
	{"slp", []option[DiscoverSpec]{
		{"agent", "<addr>", true, func(d *DiscoverSpec, r *reading, v string) { d.Agent = r.filled(v) }},
		{"type", "<service-type>", true, func(d *DiscoverSpec, r *reading, v string) { d.Type = r.filled(v) }},
		{"scope", "<scope>", false, func(d *DiscoverSpec, r *reading, v string) { d.Scope = r.filled(v) }},
	}, func(ds DiscoverSpec) (discovery.Source, error) {
		return discovery.NewSLPSource(ds.Agent, ds.Type, ds.Scope)
	}},
	{"ssdp", []option[DiscoverSpec]{
		{"search", "<addr>", true, func(d *DiscoverSpec, r *reading, v string) { d.Search = r.filled(v) }},
		{"st", "<target>", true, func(d *DiscoverSpec, r *reading, v string) { d.ST = r.filled(v) }},
		{"listen", "<addr>", false, func(d *DiscoverSpec, r *reading, v string) { d.Listen = r.filled(v) }},
		{"mx", "<seconds>", false, func(d *DiscoverSpec, r *reading, v string) { d.MX = r.count(v, 1, many) }},
	}, func(ds DiscoverSpec) (discovery.Source, error) {
		return discovery.NewSSDPSource(ds.Search, ds.ST, discovery.SSDPOptions{MX: ds.MX, Listen: ds.Listen})
	}},
	{"dns", []option[DiscoverSpec]{
		{"name", "<host:port>|<_svc._proto.domain>", true, func(d *DiscoverSpec, r *reading, v string) { d.Name = r.filled(v) }},
	}, func(ds DiscoverSpec) (discovery.Source, error) { return discovery.NewDNSSource(ds.Name) }},
	{"file", []option[DiscoverSpec]{
		{"path", "<hosts-file>", true, func(d *DiscoverSpec, r *reading, v string) { d.Path = r.filled(v) }},
	}, func(ds DiscoverSpec) (discovery.Source, error) { return discovery.NewFileSource(ds.Path) }},
}

// discoverForms lists each source with its options, for usage and the
// reference.
func discoverForms() string {
	return joined(discoverSources, ", ", func(src discoverSource) string { return "`via=" + src.via + " " + forms(src.opts) + "`" })
}

// parseDiscover reads a discover line: via= picks the source, and the
// options are then that source's and the reconciler's, no other's.
func parseDiscover(s *MediatorSpec, r *reading) {
	ds := DiscoverSpec{Backend: r.words[0]}
	r.unique("discover for backend", ds.Backend)
	for _, src := range discoverSources {
		for _, w := range r.words[1:] {
			if w == "via="+src.via {
				opts := []option[DiscoverSpec]{{"via", src.via, true, func(d *DiscoverSpec, _ *reading, v string) { d.Via = v }}}
				options(r, r.words[1:], append(append(opts, src.opts...), discoverTuning...), &ds)
				s.Discover = append(s.Discover, ds)
				return
			}
		}
	}
	r.refuse("needs a source, one of %s", discoverForms())
}

// tune holds a balance, probe or eject line until the document is read —
// each may stand before the backend line it names — and then applies it,
// or reports the name as undeclared.
func tune(s *MediatorSpec, r *reading, apply func(*BackendSpec)) {
	name, lineNo, directive := r.words[0], r.lineNo, r.name
	r.unique(directive+" for backend", name)
	r.after = append(r.after, func() error {
		for i := range s.Backends {
			if s.Backends[i].Name == name {
				apply(&s.Backends[i])
				return nil
			}
		}
		return r.errAt(lineNo, directive, "references undeclared backend %q", name)
	})
}

// balancePolicies are the words `balance` takes.
const balancePolicies = string(backend.RoundRobin + "|" + backend.PowerOfTwo)

// mediatorDirectives is the *.mediator grammar.
var mediatorDirectives = []directive[MediatorSpec]{
	scalar("merged", "<name>", "", "The merged automaton to execute. Required.",
		func(s *MediatorSpec, r *reading) { s.MergedName = r.words[0] }),
	scalar("listen", "<addr>", "`127.0.0.1:0`", "The client-facing address; `starlink run -listen` overrides it.",
		func(s *MediatorSpec, r *reading) { s.Listen = r.words[0] }),
	{name: "side", usage: "<color> <protocol> " + forms(sideOptions), min: 2, max: many,
		doc: "Binds one colour of the automaton to a protocol (" + protocolNames() + "). Required, once per colour. " +
			"`server` marks the client-facing colour (one side at most; the merged automaton's first colour without it); " +
			"`target=` is where a service side dials, an address or a `backend` name. The transport is the protocol's: UDP for `ssdp` and `slp`, TCP otherwise.",
		parse: func(s *MediatorSpec, r *reading) {
			side := SideSpec{Color: r.count(r.words[0], math.MinInt, many), Protocol: r.words[1]}
			r.unique("side for color", strconv.Itoa(side.Color))
			if _, ok := protocolOf(side.Protocol); !ok {
				r.refuse("unknown protocol %q (want one of %s)", side.Protocol, protocolNames())
			}
			options(r, r.words[2:], sideOptions, &side)
			if side.Server {
				r.unique("server side", "")
			}
			s.Sides = append(s.Sides, side)
		}},
	{name: "hostmap", usage: "<host> = <addr>", min: 1, max: many,
		doc: "Resolves a logical host an MTL `sethost` names to an address or a `backend` name; once per host, neither part empty.",
		parse: func(s *MediatorSpec, r *reading) {
			host, addr, ok := strings.Cut(r.rest, "=")
			host, addr = strings.TrimSpace(host), strings.TrimSpace(addr)
			if !ok || host == "" || addr == "" {
				r.refuse("want: hostmap <host> = <addr>")
			}
			r.unique("hostmap for", host)
			s.HostMap[host] = addr
		}},
	{name: "backend", usage: "<name> <addr> [addr ...]", min: 1, max: many,
		doc: "Declares a named replica set a `target=` or `hostmap` may name in place of an address; once per name, no address twice (docs/BACKENDS.md).",
		parse: func(s *MediatorSpec, r *reading) {
			name, addrs := r.words[0], r.words[1:]
			if len(addrs) == 0 {
				r.refuse("backend %q declares no replica addresses", name)
			}
			r.unique("backend", name)
			for i, a := range addrs {
				for _, earlier := range addrs[:i] {
					if a == earlier {
						r.refuse("backend %q lists replica %q twice", name, a)
					}
				}
			}
			s.Backends = append(s.Backends, BackendSpec{Name: name, Addrs: append([]string(nil), addrs...)})
		}},
	{name: "balance", usage: "<backend> " + balancePolicies, min: 2, max: 2, def: "`" + string(backend.RoundRobin) + "`",
		doc: "The set's balancing policy; `p2c` is power-of-two-choices over in-flight counts. Once per set, before or after its `backend` line.",
		parse: func(s *MediatorSpec, r *reading) {
			policy := r.oneOf(r.words[1], balancePolicies)
			tune(s, r, func(b *BackendSpec) { b.Policy = policy })
		}},
	{name: "probe", usage: "<backend> <interval> " + forms(probeOptions), min: 2, max: many,
		def: "no probing; `timeout=" + backend.DefaultProbeTimeout.String() + "`",
		doc: "Probes every replica of the set with a TCP dial each interval; without it health is passive only. Once per set.",
		parse: func(s *MediatorSpec, r *reading) {
			t := BackendSpec{ProbeInterval: r.duration(r.words[1], positive)}
			options(r, r.words[2:], probeOptions, &t)
			tune(s, r, func(b *BackendSpec) { b.ProbeInterval, b.ProbeTimeout = t.ProbeInterval, t.ProbeTimeout })
		}},
	{name: "eject", usage: "<backend> " + forms(ejectOptions), min: 2, max: many,
		def: fmt.Sprintf("`fails=%d cooloff=%v max_cooloff=%v min_live=1`",
			backend.DefaultFailThreshold, backend.DefaultCooloff, backend.DefaultMaxCooloff),
		doc: "Passive ejection: `fails` consecutive failures eject a replica for `cooloff`, doubling to `max_cooloff`, never below `min_live` live replicas. At least one option; once per set.",
		parse: func(s *MediatorSpec, r *reading) {
			var t BackendSpec
			options(r, r.words[1:], ejectOptions, &t)
			tune(s, r, func(b *BackendSpec) {
				b.FailThreshold, b.MinLive = t.FailThreshold, t.MinLive
				b.Cooloff, b.MaxCooloff = t.Cooloff, t.MaxCooloff
			})
		}},
	{name: "discover", usage: "<backend> via=<source> <source options> " + forms(discoverTuning), min: 2, max: many,
		def: fmt.Sprintf("`refresh=%v debounce=%v min_ttl=%v`, no churn cap",
			discovery.DefaultRefresh, discovery.DefaultDebounce, discovery.DefaultMinTTL),
		doc: "Drives the set's membership from a live source: " + discoverForms() +
			". An option of another source is refused. Once per set, before or after its `backend` line (docs/DISCOVERY.md).",
		parse: parseDiscover},
	scalar("typemap", "<name>", "", "The `.typemap` vocabulary MTL reads as `maptype()`.",
		func(s *MediatorSpec, r *reading) { s.TypeMap = r.words[0] }),
	scalar("retries", "<n>", strconv.Itoa(engine.DefaultRetryAttempts),
		"Redial attempts after a failed service exchange; 0 disables recovery.",
		func(s *MediatorSpec, r *reading) { n := r.count(r.words[0], 0, many); s.Retries = &n }),
	scalar("backoff", "<duration>", engine.DefaultBackoff.String(), "The base of the exponential retry backoff; 0 retries at once.",
		func(s *MediatorSpec, r *reading) { s.Backoff = r.duration(r.words[0], 0) }),
	scalar("max_backoff", "<duration>", engine.DefaultMaxBackoff.String(), "The cap of the jittered backoff window.",
		func(s *MediatorSpec, r *reading) { s.MaxBackoff = r.duration(r.words[0], positive) }),
	scalar("flow_deadline", "<duration>", (2 * engine.DefaultExchangeTimeout).String(),
		"The budget every blocking step of one flow draws down, twice the exchange timeout unless set; every flow has one (docs/DEADLINES.md).",
		func(s *MediatorSpec, r *reading) { s.FlowDeadline = r.duration(r.words[0], positive) }),
	scalar("dialtimeout", "<duration>", network.DefaultDialTimeout.String(),
		"The bound on each service dial, and on a wait for a pooled connection.",
		func(s *MediatorSpec, r *reading) { s.DialTimeout = r.duration(r.words[0], positive) }),
	scalar("pool_size", "<n>", strconv.Itoa(engine.DefaultPoolSize), "Service connections per (colour, address), idle and in use.",
		func(s *MediatorSpec, r *reading) { s.PoolSize = r.count(r.words[0], 1, many) }),
	scalar("pool_idle", "<duration>|off", engine.DefaultPoolIdle.String(),
		"How long an idle pooled connection stays warm; `off` closes it on check-in.",
		func(s *MediatorSpec, r *reading) { s.PoolIdle = r.durationOrOff(r.words[0]) }),
	scalar("admin", "<addr>", "no endpoint",
		"Attaches the flow tracer and serves the admin endpoint there; `-admin` overrides it (docs/OBSERVABILITY.md).",
		func(s *MediatorSpec, r *reading) { s.Admin = r.words[0] }),
	{name: "cacheable", usage: "<operation> " + forms(cacheableOptions), min: 2, max: many, def: "no cache",
		doc: "Shares replies to the service operation across flows for `ttl`; `vary=` keys the cache on the listed request fields only. Once per operation (docs/CACHING.md).",
		parse: func(s *MediatorSpec, r *reading) {
			var rule engine.CacheRule
			options(r, r.words[1:], cacheableOptions, &rule)
			r.unique("cacheable for operation", r.words[0])
			if s.Cacheable == nil {
				s.Cacheable = map[string]engine.CacheRule{}
			}
			s.Cacheable[r.words[0]] = rule
		}},
	{name: "invalidates", usage: "<operation> <cached-op,...>", min: 2, max: many,
		doc: "Sending the write operation first flushes the listed operations' entries; each must be declared `cacheable`.",
		parse: func(s *MediatorSpec, r *reading) {
			if s.Invalidates == nil {
				s.Invalidates = map[string][]string{}
			}
			for _, w := range r.words[1:] {
				s.Invalidates[r.words[0]] = append(s.Invalidates[r.words[0]], r.list(w)...)
			}
		}},
	scalar("cache_size", "<n>", strconv.Itoa(rcache.DefaultMaxEntries), "The most replies the response cache stores.",
		func(s *MediatorSpec, r *reading) { s.CacheSize = r.count(r.words[0], 1, many) }),
	scalar("cache_shards", "<n>", strconv.Itoa(rcache.DefaultShards), "The response cache's lock shards.",
		func(s *MediatorSpec, r *reading) { s.CacheShards = r.count(r.words[0], 1, many) }),
}

// ParseMediatorSpec reads a deployment spec document.
func ParseMediatorSpec(doc string) (*MediatorSpec, error) {
	spec := &MediatorSpec{HostMap: map[string]string{}}
	r, err := parseSpec(doc, mediatorDirectives, spec, ErrSpec)
	if err != nil {
		return nil, err
	}
	if spec.MergedName == "" {
		return nil, r.errAt(-1, "", "no merged automaton named (directive \"merged\" missing)")
	}
	if len(spec.Sides) == 0 {
		return nil, r.errAt(-1, "", "no sides configured (directive \"side\" missing)")
	}
	for op, targets := range spec.Invalidates {
		for _, target := range targets {
			if _, ok := spec.Cacheable[target]; !ok {
				return nil, r.errAt(-1, "invalidates", "operation %q invalidates %q, which is not declared cacheable", op, target)
			}
		}
	}
	for _, settle := range r.after {
		if err := settle(); err != nil {
			return nil, err
		}
	}
	for _, ds := range spec.Discover {
		if _, ok := r.first["backend\x00"+ds.Backend]; !ok {
			return nil, r.errAt(r.first["discover for backend\x00"+ds.Backend], "discover",
				"references undeclared backend %q", ds.Backend)
		}
	}
	return spec, nil
}

// routeClasses are the wire classes a route's match= may name, and the
// last two of them its payload=; routeMatches and routePayloads are the
// two choices as usage writes them, "xml|json".
var (
	routeClasses  = []gateway.WireClass{gateway.ClassGIOP, gateway.ClassHTTP, gateway.ClassXML, gateway.ClassJSON}
	routeMatches  = joined(routeClasses, "|", gateway.WireClass.String)
	routePayloads = joined(routeClasses[2:], "|", gateway.WireClass.String)
)

// wireClass is the class a spec word names; ClassUnknown for any other.
func wireClass(word string) gateway.WireClass {
	for _, c := range routeClasses {
		if c.String() == word {
			return c
		}
	}
	return gateway.ClassUnknown
}

var routeOptions = []option[GatewayRouteSpec]{
	{"match", routeMatches, false, func(rs *GatewayRouteSpec, r *reading, v string) { rs.Match = r.oneOf(v, routeMatches) }},
	{"path", "<prefix>", false, func(rs *GatewayRouteSpec, _ *reading, v string) { rs.PathPrefix = v }},
	{"payload", routePayloads, false, func(rs *GatewayRouteSpec, r *reading, v string) { rs.Payload = r.oneOf(v, routePayloads) }},
	{"rate", "<per-second>", false, func(rs *GatewayRouteSpec, r *reading, v string) {
		f, err := strconv.ParseFloat(v, 64)
		// Written as what is accepted, a finite number above zero: NaN is
		// neither above zero nor at or below it, so `f <= 0` would let it by
		// and the admission policy then read the limit as off.
		if err != nil || !(f > 0) || math.IsInf(f, 1) {
			r.refuse("bad value %q: want a finite number above zero", v)
		}
		rs.Rate = f
	}},
	{"burst", "<n>", false, func(rs *GatewayRouteSpec, r *reading, v string) { rs.Burst = r.count(v, 1, many) }},
	{"maxflows", "<n>", false, func(rs *GatewayRouteSpec, r *reading, v string) { rs.MaxFlows = r.count(v, 1, many) }},
	{"deadline", "<duration>", false, func(rs *GatewayRouteSpec, r *reading, v string) { rs.Deadline = r.duration(v, positive) }},
}

// gatewayDirectives is the *.gateway grammar.
var gatewayDirectives = []directive[GatewaySpec]{
	scalar("listen", "<addr>", "`127.0.0.1:0`", "The front-door address; `starlink gateway -listen` overrides it.",
		func(s *GatewaySpec, r *reading) { s.Listen = r.words[0] }),
	scalar("admin", "<addr>", "no endpoint", "Serves the gateway's own `/metrics` there; `-admin` overrides it.",
		func(s *GatewaySpec, r *reading) { s.Admin = r.words[0] }),
	scalar("sniff_bytes", "<n>", strconv.Itoa(gateway.DefaultSniffBytes),
		fmt.Sprintf("The most bytes the sniffer peeks before it gives a connection up as unclassified; %d at most, what its buffer holds.", network.PeekSize),
		func(s *GatewaySpec, r *reading) { s.SniffBytes = r.count(r.words[0], 1, network.PeekSize) }),
	scalar("sniff_timeout", "<duration>", gateway.DefaultSniffTimeout.String(), "How long the sniffer waits for those bytes.",
		func(s *GatewaySpec, r *reading) { s.SniffTimeout = r.duration(r.words[0], positive) }),
	{name: "route", usage: "<name> <mediator-spec> " + forms(routeOptions), min: 2, max: many,
		def: "class and path of the mediator's server side; no limits",
		doc: "Hosts the `.mediator` spec of that name. Required, once per name; routes match in the order given. " +
			"`match=` and `path=` override the wire class and HTTP path prefix derived from the mediator's client-facing side, " +
			"`payload=` narrows an HTTP match to a body kind, `rate=`/`burst=` and `maxflows=` are admission control, " +
			"`deadline=` replaces the mediator's `flow_deadline`.",
		parse: func(s *GatewaySpec, r *reading) {
			rs := GatewayRouteSpec{Name: r.words[0], Mediator: r.words[1]}
			options(r, r.words[2:], routeOptions, &rs)
			r.unique("route", rs.Name)
			s.Routes = append(s.Routes, rs)
		}},
	scalar("default", "<route-name>", "close the connection", "The route that takes a connection no route matches.",
		func(s *GatewaySpec, r *reading) { s.Default = r.words[0] }),
}

// ParseGatewaySpec reads a gateway deployment spec document.
func ParseGatewaySpec(doc string) (*GatewaySpec, error) {
	spec := &GatewaySpec{}
	r, err := parseSpec(doc, gatewayDirectives, spec, ErrGateway, ErrSpec)
	if err != nil {
		return nil, err
	}
	if len(spec.Routes) == 0 {
		return nil, r.errAt(-1, "", "no routes declared (directive \"route\" missing)")
	}
	if _, ok := r.first["route\x00"+spec.Default]; spec.Default != "" && !ok {
		return nil, r.errAt(-1, "default", "default route %q not declared", spec.Default)
	}
	return spec, nil
}

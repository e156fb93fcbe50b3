// Package mtl implements Starlink's Message Translation Logic.
//
// MTL describes how to translate between semantically equivalent messages
// at the bicolored states of a merged k-colored automaton (paper Section
// 4.1, Figs. 8-10). A program is a sequence of statements over the
// abstract messages received and sent so far in the session, addressed by
// the state at which they were exchanged:
//
//	# Fig. 8: bind Add's arguments to Plus's
//	s22.SOAPRequest.Parameter[0] = s21.GIOPRequest.ParameterArray.Parameter[0]
//
//	# Fig. 9: retarget and remember each search result
//	sethost("https://picasaweb.google.com")
//	foreach e in s5.HTTPOK.Body.feed.entry {
//	  cache(e.id, e)
//	  s6.MethodResponse.Photos.photo[] = e.id
//	}
//
//	# Fig. 10: answer getInfo from the cache, no remote call
//	entry = getcache(s8.MethodCall.params.param.value.string)
//	s8.MethodResponse.photo.title = entry.title
//
// Statement forms:
//
//	lvalue = expr            field assignment (creates missing path steps;
//	                         a trailing [] on the last step appends)
//	name = expr              local variable binding
//	func(args...)            side-effecting call (cache, sethost, ...)
//	foreach v in path { … }  iterate the children of path's parent that
//	                         share the final label
//
// Expressions are field paths, string/number literals, local variables or
// function calls. A path whose first component names a message in the
// environment reads from that message; assigning a structured field grafts
// a deep copy.
package mtl

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"starlink/internal/message"
)

// Errors reported by the MTL layer.
var (
	// ErrParse is wrapped by all syntax errors.
	ErrParse = errors.New("mtl: parse error")
	// ErrExec is wrapped by all runtime errors.
	ErrExec = errors.New("mtl: execution error")
	// ErrCacheMiss is returned by getcache for an absent key.
	ErrCacheMiss = errors.New("mtl: cache miss")
	// ErrWork is wrapped, with ErrExec, by the error of a run that passes
	// its work bound (MaxExecNodes).
	ErrWork = errors.New("mtl: work bound exceeded")
)

// A run of a program (Exec) may graft and visit MaxExecNodes nodes, and
// ExecNodesPerInput more for each node of the messages bound when it
// starts: the nodes of the values it grafts, a tree counted whole, and the
// items its foreach loops visit. A fifty-entry search's reply γ counts 402
// over 300 bound nodes. Without the bound a few hundred bytes of source
// grafting a message into itself, or looping in loops, could run for hours.
const MaxExecNodes, ExecNodesPerInput = 1 << 16, 16

// startWork starts the count of a run, and sets its bound. A bound
// message is walked once, at the first run after it is bound or written
// (forget), and counted as it was then until it is bound or written again.
func (e *Env) startWork() {
	if e.counted == nil {
		e.counted = make(map[string]int)
	}
	for _, h := range e.recount {
		n := 0
		if m := e.Messages[h]; m != nil {
			n = nodes(m.Fields)
		}
		e.inputs += n - e.counted[h]
		e.counted[h] = n
	}
	e.recount = e.recount[:0]
	if len(e.counted) != len(e.Messages) {
		// Messages was changed without Bind: count every message again.
		e.forgetAll()
		for h, m := range e.Messages {
			n := 0
			if m != nil {
				n = nodes(m.Fields)
			}
			e.counted[h] = n
			e.inputs += n
		}
	}
	e.work, e.maxWork = 0, MaxExecNodes+ExecNodesPerInput*e.inputs
}

// forget has the next run count handle's message again. An Env bound or
// written more often than it runs counts every message again instead.
func (e *Env) forget(handle string) {
	if len(e.recount) > len(e.Messages) {
		e.forgetAll()
		return
	}
	e.recount = append(e.recount, handle)
}

// forgetAll drops every count.
func (e *Env) forgetAll() {
	clear(e.counted)
	e.inputs, e.recount = 0, e.recount[:0]
}

// spend counts n nodes of the run under way against its bound.
func (e *Env) spend(n int) error {
	if e.work += n; e.work > e.maxWork {
		return fmt.Errorf("%w: %w: more than %d nodes grafted or visited", ErrExec, ErrWork, e.maxWork)
	}
	return nil
}

// treeNodes is what grafting v counts: a tree's nodes, 1 for a scalar.
func treeNodes(v any) int {
	if f, ok := v.(*message.Field); ok {
		return 1 + nodes(f.Children)
	}
	return 1
}

// nodes is how many nodes the trees of fs hold.
func nodes(fs []*message.Field) int {
	n := len(fs)
	for _, f := range fs {
		n += nodes(f.Children)
	}
	return n
}

// DefaultCacheLimit bounds a session cache's entry count; long-lived
// sessions (a client looping over many searches on one connection) would
// otherwise grow without bound.
const DefaultCacheLimit = 1024

// Cache is the session-scoped store behind the cache/getcache keywords
// (used for the Fig. 10 extra-message mismatch). It is safe for concurrent
// use and the zero value is ready to use.
//
// Eviction policy: when the cache exceeds its limit (DefaultCacheLimit
// unless Limit is set), entries are evicted oldest-write-first. Re-putting
// an existing key refreshes its position — a repeatedly-rewritten hot key
// counts as fresh, and the stalest write is evicted first. (Reads do not
// refresh; this is write-recency, not LRU.) A put costs the same whatever
// the cache holds: the entries are a list in write order, and a put moves
// its own to the newest end and evicts from the oldest.
//
// Each entry keeps its value in a message.Slab of the heap's: a put copies
// the value into the slab of the entry it replaces or evicts, where it
// fits, unless a getcache still holds the tree there (Env.loans).
type Cache struct {
	// Limit overrides DefaultCacheLimit when positive.
	Limit int

	mu             sync.Mutex
	m              map[string]*cacheEntry
	oldest, newest *cacheEntry
}

// cacheEntry is one key's value and its place in the write order. lent
// counts the Envs a compiled getcache handed f to that have not been reset
// since, and borrower is the last of them, which holds one loan of the
// entry however often it borrows it.
type cacheEntry struct {
	key          string
	f            *message.Field
	slab         message.Slab
	older, newer *cacheEntry
	lent         int
	borrower     *Env
}

// loan is an entry of c's whose tree an Env holds until its Reset.
type loan struct {
	c *Cache
	e *cacheEntry
}

// Put stores a deep copy of f under key.
func (c *Cache) Put(key string, f *message.Field) { c.put(key, f, "") }

// put stores a copy of f under key, its root labelled label unless that
// is empty.
func (c *Cache) put(key string, f *message.Field, label string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[string]*cacheEntry)
	}
	limit := c.Limit
	if limit <= 0 {
		limit = DefaultCacheLimit
	}
	e := c.m[key]
	if e != nil {
		c.unlink(e)
	} else {
		if len(c.m) >= limit && c.oldest != nil {
			// The oldest write makes room, and its slab takes the value.
			e = c.evict()
		}
		if e == nil {
			e = &cacheEntry{}
		}
		e.key = key
		c.m[key] = e
	}
	if e.lent > 0 {
		// A getcache holds the tree in the slab until its Env's Reset.
		e.slab = message.Slab{}
	}
	e.f = e.slab.Copy(f)
	if e.f != nil && label != "" {
		e.f.Label = label
	}
	e.older = c.newest
	if c.newest != nil {
		c.newest.newer = e
	} else {
		c.oldest = e
	}
	c.newest = e
	for len(c.m) > limit {
		c.evict()
	}
}

// unlink takes e out of the write order.
func (c *Cache) unlink(e *cacheEntry) {
	if e.older != nil {
		e.older.newer = e.newer
	} else {
		c.oldest = e.newer
	}
	if e.newer != nil {
		e.newer.older = e.older
	} else {
		c.newest = e.older
	}
	e.older, e.newer = nil, nil
}

// evict takes the oldest entry out of the cache and returns it, emptied
// for a put to reuse, or nil where an Env borrowed its tree.
func (c *Cache) evict() *cacheEntry {
	e := c.oldest
	c.unlink(e)
	delete(c.m, e.key)
	if e.lent > 0 {
		return nil
	}
	e.key, e.f, e.borrower = "", nil, nil
	return e
}

// Get returns a deep copy of the field stored under key.
func (c *Cache) Get(key string) (*message.Field, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrCacheMiss, key)
	}
	return e.f.Clone(), nil
}

// lend returns the field stored under key without copying, to env: the
// tree is shared with the cache and must be treated as read-only (the
// compiled getcache marks it copy-on-write and clones before any mutation
// or graft), and the cache does not write into it before env's Reset.
func (c *Cache) lend(key string, env *Env) (*message.Field, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrCacheMiss, key)
	}
	if e.borrower != env {
		env.loans = append(env.loans, loan{c, e})
		e.lent++
		e.borrower = env
	}
	return e.f, nil
}

// giveBack ends env's loan of e.
func (c *Cache) giveBack(e *cacheEntry, env *Env) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.lent--
	if e.borrower == env {
		e.borrower = nil
	}
}

// Len reports the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Func is a callable an MTL program can name. Arguments are
// evaluated values: scalars (string, int64, float64, bool, []byte) or
// *message.Field trees.
type Func func(env *Env, args []any) (any, error)

// Env is the execution environment of one translation.
type Env struct {
	// Messages maps a state label (or any chosen handle) to the message
	// exchanged there. Lvalues rooted at a handle write into (and create)
	// that message.
	Messages map[string]*message.Message
	// Vars holds local variable bindings.
	Vars map[string]any
	// Cache is the session cache; if nil, cache/getcache fail.
	Cache *Cache
	// Host is set by sethost() and read by the engine to retarget the
	// outgoing connection.
	Host string
	// Funcs are extra functions; built-ins are always available and can be
	// shadowed here.
	Funcs map[string]Func

	// frame is the compiled fast path's reusable per-execution scratch
	// (slot tables, argument arena, foreach snapshots), and store is where
	// the programs make their nodes and the flow its parsed messages; see
	// compile.go.
	frame         *cframe
	store         message.Store
	work, maxWork int // what the run under way counted, and its bound
	// counted holds the nodes of each bound message the bound counts, and
	// inputs their sum; recount holds the handles to count again at the
	// next run.
	counted map[string]int
	inputs  int
	recount []string
	// loans are the session cache's trees a getcache handed out, which the
	// cache keeps as they are until Reset gives them back.
	loans []loan
}

// NewEnv returns an environment with empty bindings and the given cache.
func NewEnv(cache *Cache) *Env {
	return &Env{
		Messages: make(map[string]*message.Message),
		Vars:     make(map[string]any),
		Cache:    cache,
	}
}

// Bind associates a message with a state handle.
func (e *Env) Bind(handle string, msg *message.Message) {
	e.Messages[handle] = msg
	e.forget(handle)
}

// Reset clears the environment's bindings and host retarget while keeping
// its cache, extra functions, map capacity and compiled-execution scratch,
// so one Env can be pooled across the flows of a session. It takes back
// every node the compiled programs made since the last Reset, in the
// messages they wrote and in Vars, to build the next flow's from: what γ
// built is valid until the Env is reset, and must not be kept past it
// (the session cache keeps copies of its own). The same holds for what the
// flow parsed into Store, and for the session cache's trees a getcache
// handed out, which the cache may write into again once Reset gives them
// back. Under the race detector the nodes are poisoned as they are taken
// back.
func (e *Env) Reset() {
	if e.Messages != nil {
		clear(e.Messages)
	}
	if e.Vars != nil {
		clear(e.Vars)
	}
	e.forgetAll()
	for _, l := range e.loans {
		l.c.giveBack(l.e, e)
	}
	clear(e.loans)
	e.loans = e.loans[:0]
	e.Host = ""
	e.store.Reset()
}

// Store is where the Env's programs make their nodes, and the store a flow
// parses its messages into: valid until Reset.
func (e *Env) Store() *message.Store { return &e.store }

// Message returns the message bound to handle, or nil.
func (e *Env) Message(handle string) *message.Message { return e.Messages[handle] }

// ---- AST ----

// Stmt is one statement of a parsed program: an assignment, a call, a
// foreach or a try. Compile lowers it to what runs.
type Stmt interface{ stmt() }

// Expr is one expression: a path, a literal or a call. It evaluates to a
// scalar or a *message.Field.
type Expr interface{ expr() }

func (*assignStmt) stmt()  {}
func (*callStmt) stmt()    {}
func (*foreachStmt) stmt() {}
func (*tryStmt) stmt()     {}

func (*pathExpr) expr()    {}
func (*literalExpr) expr() {}
func (*callExpr) expr()    {}

type pathStep struct {
	label  string
	index  int  // -1 absent
	append bool // lvalue-only: trailing []
}

type pathExpr struct {
	steps []pathStep
	text  string
}

type literalExpr struct{ val any }

type callExpr struct {
	name string
	args []Expr
}

type assignStmt struct {
	lhs *pathExpr
	rhs Expr
}

type callStmt struct{ call *callExpr }

type foreachStmt struct {
	varName string
	src     *pathExpr
	body    []Stmt
}

// tryStmt runs a statement and ignores its execution errors — the MTL form
// for copying optional fields that may be absent from a message:
//
//	try m2.Msg.max-results = m1.Msg.per_page
type tryStmt struct{ inner Stmt }

// Program is a parsed MTL program.
type Program struct {
	stmts []Stmt
	src   string
}

// Source returns the original program text.
func (p *Program) Source() string { return p.src }

// Len reports the number of top-level statements.
func (p *Program) Len() int { return len(p.stmts) }

// isMsgWildcard reports whether a path's message-name component matches any
// message ("Msg" as in the paper's Fig. 8, or "*").
func isMsgWildcard(name string) bool { return name == "Msg" || name == "*" }

func nameMatches(msgName, pathName string) bool {
	return isMsgWildcard(pathName) || msgName == "" || msgName == pathName
}

// fieldValue unwraps primitive fields to their scalar; structured fields
// stay as trees.
func fieldValue(f *message.Field) any {
	if f.Type.Primitive() {
		return f.Value()
	}
	return f
}

// valueToField converts an evaluated value into a field with the given
// label. Field trees are cloned and relabelled; a scalar costs its node.
func valueToField(label string, val any) *message.Field {
	if f, ok := val.(*message.Field); ok {
		cp := f.Clone()
		cp.Label = label
		return cp
	}
	f := &message.Field{Label: label}
	setScalar(f, val)
	return f
}

// setScalar gives f the value and the type of an evaluated scalar: nil is
// the empty string, and a Go value MTL has no type for is its text.
func setScalar(f *message.Field, val any) {
	switch v := val.(type) {
	case string:
		f.SetText(v)
	case int64:
		f.SetInt64(v)
	case uint64:
		f.SetUint64(v)
	case float64:
		f.SetFloat64(v)
	case bool:
		f.SetBool(v)
	case []byte:
		f.SetBytes(v)
	case nil:
		f.SetText("")
	default:
		f.SetText(fmt.Sprint(v))
	}
}

// ValueString renders an evaluated value as text (helper for functions).
func ValueString(v any) string {
	switch x := v.(type) {
	case *message.Field:
		return x.ValueString()
	case string:
		return x
	case []byte:
		return string(x)
	case nil:
		return ""
	default:
		return strings.TrimSpace(fmt.Sprint(x))
	}
}

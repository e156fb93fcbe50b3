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
)

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
// refresh; this is write-recency, not LRU.)
type Cache struct {
	// Limit overrides DefaultCacheLimit when positive.
	Limit int

	mu    sync.Mutex
	m     map[string]*message.Field
	order []string
}

// Put stores a deep copy of f under key.
func (c *Cache) Put(key string, f *message.Field) { c.putOwned(key, f.Clone()) }

// putOwned stores f under key without copying; the caller transfers
// ownership of the tree to the cache.
func (c *Cache) putOwned(key string, f *message.Field) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[string]*message.Field)
	}
	if _, exists := c.m[key]; exists {
		// Refresh the key's eviction slot: without this, a hot key
		// rewritten many times keeps its original (oldest) position and
		// is evicted while stale keys survive.
		for i, k := range c.order {
			if k == key {
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
	}
	c.order = append(c.order, key)
	c.m[key] = f
	limit := c.Limit
	if limit <= 0 {
		limit = DefaultCacheLimit
	}
	for len(c.m) > limit && len(c.order) > 0 {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.m, oldest)
	}
}

// Get returns a deep copy of the field stored under key.
func (c *Cache) Get(key string) (*message.Field, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.m[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrCacheMiss, key)
	}
	return f.Clone(), nil
}

// Peek returns the field stored under key without copying. The returned
// tree is shared with the cache: callers must treat it as read-only (the
// compiled fast path marks it copy-on-write and clones before any
// mutation or graft).
func (c *Cache) Peek(key string) (*message.Field, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.m[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrCacheMiss, key)
	}
	return f, nil
}

// Len reports the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Func is a callable registered with the interpreter. Arguments are
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
	// (slot tables, argument arena, foreach snapshots); see compile.go.
	frame *cframe
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
func (e *Env) Bind(handle string, msg *message.Message) { e.Messages[handle] = msg }

// Reset clears the environment's bindings and host retarget while keeping
// its cache, extra functions, map capacity and compiled-execution scratch,
// so one Env can be pooled across translations of a session.
func (e *Env) Reset() {
	if e.Messages != nil {
		clear(e.Messages)
	}
	if e.Vars != nil {
		clear(e.Vars)
	}
	e.Host = ""
}

// Message returns the message bound to handle, or nil.
func (e *Env) Message(handle string) *message.Message { return e.Messages[handle] }

// ---- AST ----

// Stmt is one executable statement.
type Stmt interface{ exec(env *Env) error }

// Expr evaluates to a scalar or a *message.Field.
type Expr interface{ eval(env *Env) (any, error) }

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

func (s *tryStmt) exec(env *Env) error {
	_ = s.inner.exec(env)
	return nil
}

// Program is a parsed MTL program.
type Program struct {
	stmts []Stmt
	src   string
}

// Source returns the original program text.
func (p *Program) Source() string { return p.src }

// Len reports the number of top-level statements.
func (p *Program) Len() int { return len(p.stmts) }

// Exec runs the program against env.
func (p *Program) Exec(env *Env) error {
	if env.Vars == nil {
		env.Vars = make(map[string]any)
	}
	if env.Messages == nil {
		env.Messages = make(map[string]*message.Message)
	}
	for _, s := range p.stmts {
		if err := s.exec(env); err != nil {
			return err
		}
	}
	return nil
}

// ---- execution ----

func (s *assignStmt) exec(env *Env) error {
	val, err := s.rhs.eval(env)
	if err != nil {
		return err
	}
	// Bare single-step lvalue that is not a message handle -> local var.
	if len(s.lhs.steps) == 1 && !s.lhs.steps[0].append {
		name := s.lhs.steps[0].label
		if _, isMsg := env.Messages[name]; !isMsg {
			env.Vars[name] = val
			return nil
		}
	}
	return assignPath(env, s.lhs, val)
}

func (s *callStmt) exec(env *Env) error {
	_, err := s.call.eval(env)
	return err
}

// exec iterates with snapshot semantics: the set of matching fields is
// captured once, before the body first runs. A body that appends matching
// siblings to the iterated parent (e.g. `m.Msg.feed.entry[] = e`) does not
// extend the iteration, and a body that overwrites an upcoming item's
// slot mutates the field the snapshot already points at — the loop still
// visits exactly the fields that matched at entry. The compiled fast path
// (compile.go) enforces the same rule.
func (s *foreachStmt) exec(env *Env) error {
	items, err := resolveAll(env, s.src)
	if err != nil {
		return err
	}
	saved, had := env.Vars[s.varName]
	defer func() {
		if had {
			env.Vars[s.varName] = saved
		} else {
			delete(env.Vars, s.varName)
		}
	}()
	for _, item := range items {
		env.Vars[s.varName] = item
		for _, st := range s.body {
			if err := st.exec(env); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *literalExpr) eval(*Env) (any, error) { return e.val, nil }

func (e *callExpr) eval(env *Env) (any, error) {
	fn := env.Funcs[e.name]
	if fn == nil {
		fn = builtins[e.name]
	}
	if fn == nil {
		return nil, fmt.Errorf("%w: unknown function %q", ErrExec, e.name)
	}
	args := make([]any, len(e.args))
	for i, a := range e.args {
		v, err := a.eval(env)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	v, err := fn(env, args)
	if err != nil {
		return nil, fmt.Errorf("%w: %s(): %w", ErrExec, e.name, err)
	}
	return v, nil
}

func (e *pathExpr) eval(env *Env) (any, error) {
	root := e.steps[0]
	// Message handle? The second path component names the message (as in
	// the paper's "S21.GIOPRqst.X") and is checked, not navigated.
	if msg, ok := env.Messages[root.label]; ok {
		if len(e.steps) == 1 {
			return message.NewStruct(msg.Name, msg.Fields...), nil
		}
		if !nameMatches(msg.Name, e.steps[1].label) {
			return nil, fmt.Errorf("%w: %s: message at %q is %q, not %q",
				ErrExec, e.text, root.label, msg.Name, e.steps[1].label)
		}
		if len(e.steps) == 2 {
			return message.NewStruct(msg.Name, msg.Fields...), nil
		}
		f, err := lookupSteps(msg.Fields, e.steps[2:])
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrExec, e.text, err)
		}
		return fieldValue(f), nil
	}
	// Local variable?
	if v, ok := env.Vars[root.label]; ok {
		if len(e.steps) == 1 {
			return v, nil
		}
		f, ok := v.(*message.Field)
		if !ok {
			return nil, fmt.Errorf("%w: %s: variable %q is not a field tree", ErrExec, e.text, root.label)
		}
		sub, err := lookupSteps(f.Children, e.steps[1:])
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrExec, e.text, err)
		}
		return fieldValue(sub), nil
	}
	return nil, fmt.Errorf("%w: %s: unknown message or variable %q", ErrExec, e.text, root.label)
}

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

func lookupSteps(children []*message.Field, steps []pathStep) (*message.Field, error) {
	var cur *message.Field
	for _, st := range steps {
		cur = nil
		seen := 0
		for _, c := range children {
			if c.Label != st.label {
				continue
			}
			if st.index < 0 || seen == st.index {
				cur = c
				break
			}
			seen++
		}
		if cur == nil {
			return nil, fmt.Errorf("no field %q", st.label)
		}
		children = cur.Children
	}
	return cur, nil
}

// resolveAll returns every sibling matching the path's final label (the
// foreach source set).
func resolveAll(env *Env, p *pathExpr) ([]*message.Field, error) {
	if len(p.steps) < 2 {
		return nil, fmt.Errorf("%w: foreach source %q too short", ErrExec, p.text)
	}
	root := p.steps[0]
	steps := p.steps
	var children []*message.Field
	if msg, ok := env.Messages[root.label]; ok {
		if len(steps) < 3 {
			return nil, fmt.Errorf("%w: foreach source %q too short", ErrExec, p.text)
		}
		if !nameMatches(msg.Name, steps[1].label) {
			return nil, fmt.Errorf("%w: foreach source %q: message at %q is %q, not %q",
				ErrExec, p.text, root.label, msg.Name, steps[1].label)
		}
		children = msg.Fields
		steps = append([]pathStep{steps[0]}, steps[2:]...)
	} else if v, ok := env.Vars[root.label]; ok {
		f, ok := v.(*message.Field)
		if !ok {
			return nil, fmt.Errorf("%w: foreach source %q: not a field tree", ErrExec, p.text)
		}
		children = f.Children
	} else {
		return nil, fmt.Errorf("%w: foreach source %q: unknown root %q", ErrExec, p.text, root.label)
	}
	mid := steps[1 : len(steps)-1]
	if len(mid) > 0 {
		parent, err := lookupSteps(children, mid)
		if err != nil {
			return nil, fmt.Errorf("%w: foreach source %q: %v", ErrExec, p.text, err)
		}
		children = parent.Children
	}
	last := steps[len(steps)-1]
	var out []*message.Field
	seen := 0
	for _, c := range children {
		if c.Label != last.label {
			continue
		}
		if last.index >= 0 {
			if seen == last.index {
				out = append(out, c)
				break
			}
			seen++
			continue
		}
		out = append(out, c)
	}
	return out, nil
}

func assignPath(env *Env, lhs *pathExpr, val any) error {
	root := lhs.steps[0]
	msg, ok := env.Messages[root.label]
	if !ok {
		// Assigning into a structured local variable.
		if v, okVar := env.Vars[root.label]; okVar {
			if f, okField := v.(*message.Field); okField && len(lhs.steps) > 1 {
				return setSteps(&f.Children, lhs.steps[1:], val, lhs.text)
			}
		}
		return fmt.Errorf("%w: assign %s: unknown message %q", ErrExec, lhs.text, root.label)
	}
	if len(lhs.steps) < 2 {
		return fmt.Errorf("%w: assign %s: need a message name component", ErrExec, lhs.text)
	}
	// Second step names (or renames) the abstract message. The paper's
	// Fig. 8 uses the wildcard "Msg" to mean "whatever message is bound
	// here"; we honour that (and "*").
	if name := lhs.steps[1].label; !isMsgWildcard(name) {
		if msg.Name == "" {
			msg.Name = name
		} else if msg.Name != name {
			return fmt.Errorf("%w: assign %s: message at %q is %q, not %q",
				ErrExec, lhs.text, root.label, msg.Name, name)
		}
	}
	if len(lhs.steps) == 2 {
		// Whole-message assignment: graft a field tree's children.
		f, ok := val.(*message.Field)
		if !ok {
			return fmt.Errorf("%w: assign %s: whole-message assignment needs a field tree", ErrExec, lhs.text)
		}
		cp := f.Clone()
		msg.Fields = cp.Children
		return nil
	}
	return setSteps(&msg.Fields, lhs.steps[2:], val, lhs.text)
}

func setSteps(children *[]*message.Field, steps []pathStep, val any, text string) error {
	for i, st := range steps {
		last := i == len(steps)-1
		var cur *message.Field
		if !st.append {
			seen := 0
			for _, c := range *children {
				if c.Label != st.label {
					continue
				}
				if st.index < 0 || seen == st.index {
					cur = c
					break
				}
				seen++
			}
		}
		if cur == nil {
			if last {
				*children = append(*children, valueToField(st.label, val))
				return nil
			}
			cur = message.NewStruct(st.label)
			*children = append(*children, cur)
		}
		if last {
			nf := valueToField(st.label, val)
			*cur = *nf
			return nil
		}
		if cur.Type.Primitive() {
			return fmt.Errorf("%w: assign %s: %q is primitive", ErrExec, text, st.label)
		}
		children = &cur.Children
	}
	return nil
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

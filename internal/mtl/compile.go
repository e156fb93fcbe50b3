package mtl

// The one executor of MTL (DESIGN.md §12).
//
// Parse produces an AST; Compile lowers it into the resolved form that
// CompiledProgram.Exec runs. The reference it is held to is the seed's
// tree-walking interpreter, kept in oracle_test.go ("the interpreter"
// below): that one re-resolves message handles through the Messages map
// at every path, function names through two map lookups at every call,
// and deep-clones every field tree it grafts. The compiled form differs
// in cost, not in meaning:
//
//   - message handles and local variables are interned into integer
//     slots, so a statement touches a map at most once per distinct
//     handle per Exec (when the slot table is seeded) instead of once
//     per path step;
//   - builtin and configured functions are bound to direct references
//     at compile time (unknown names still fail at execution time, like
//     the interpreter, so `try unknown()` keeps its semantics);
//   - calls of pure builtins over literal arguments are constant-folded;
//   - a tree freshly produced by a direct newstruct/newarray call and
//     consumed immediately by a graft is transferred instead of cloned
//     (it provably has no other reference); trees read back out of
//     variables always clone on graft, exactly like the interpreter —
//     eliding those clones can be observed through aliases and can even
//     build cyclic trees (`p.s = p`);
//   - in programs that never mutate variables and call only builtins,
//     getcache borrows the session cache's tree (Cache.lend) instead of
//     cloning it, and the cache writes nothing into it until the Env is
//     reset; the result is marked copy-on-write as a second line of
//     defence;
//   - cache(k, v) reads its key from the leaf it is in, without boxing it,
//     and hands v to the cache as it is, to copy once (Cache.put);
//   - scalar overwrites of existing fields update the field in place
//     instead of building a replacement node;
//   - a scalar read from a field and only moved (`p.id = e.id`) is carried
//     as the field it was read from and copied node to node; it is boxed
//     into an `any` only where one is needed — a function argument, a
//     scalar variable;
//   - every node a program makes — a builder variable's tree (every
//     mention of the variable is `v = newstruct("…")`, the root of
//     `v.path = …`, or the whole right-hand side of a graft), any other
//     newstruct or newarray, a message read whole, a graft's copy, a
//     scalar's node, a step a path creates — comes from the Env's
//     message.Store, which Env.Reset takes back whole. Nothing but a
//     node's own pointer leaves the store: a message or a field of its
//     own never takes over a store node's child list, which the next flow
//     appends into again (see cAssignMsg and csetSteps), and nothing that
//     outlives a flow holds a store node: the session cache copies what
//     cache() puts in it into heap memory of its own — the slab of the
//     entry the put replaces or evicts where the tree fits and no Env
//     borrowed it since its last Reset, else a new one — and a reply the
//     response cache holds is copied before a γ program writes into it
//     (engine.flow.bindCached);
//   - per-execution scratch (argument arena, foreach item snapshots,
//     variable slots) lives in the Env and is reused across Execs, so a
//     pooled Env executes a compiled program with a small constant
//     number of allocations beyond the field nodes it creates.
//
// Semantics are identical to the interpreter; FuzzCompile and every test
// of mtl_test.go assert that compiled and interpreted execution produce
// the same message trees, variables, host retarget and success/failure
// outcome. The one deliberate caveat is a compile-time decision:
// functions are resolved against CompileOptions.Funcs rather than the
// Env's map at each call, so the executing Env should carry the same
// function table the program was compiled with.

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"starlink/internal/message"
)

// CompileOptions configures Compile.
type CompileOptions struct {
	// Handles is the set of message-handle names (for the engine: the
	// merged automaton's state names). A path root in this set addresses
	// a message in the Env; any other root is a local variable. (The
	// interpreter decides it from Env.Messages at run time.) An Env
	// executing the compiled program should bind exactly these handles.
	Handles []string
	// Funcs are the extra functions available to the program, shadowing
	// builtins by name — the same map the executing Env will carry.
	// Compiled programs bind functions at compile time.
	Funcs map[string]Func
}

// CompiledProgram is the executable form produced by Compile.
// It is immutable after Compile and safe for concurrent Exec from many
// goroutines (each against its own Env).
type CompiledProgram struct {
	src      string
	stmts    []cStmt
	handles  []string // slot -> handle name
	varNames []string // slot -> variable name
	// reads and writes are what the program reads and assigns into, by
	// handle (see Reads and Writes), foreign is set when it may write into a
	// tree it did not make (see ReadOnly), and outside when it may read
	// something no message holds (see FunctionOf).
	reads   map[string][]Read
	writes  map[string][]string
	foreign bool
	outside bool
	// written are the handles of writes, whose counts Exec has the work
	// bound drop.
	written []string
}

// Source returns the original program text.
func (p *CompiledProgram) Source() string { return p.src }

// ReadOnly reports whether executing the program leaves the message bound
// to handle, and every tree reachable from it, as it found them — so the
// message may be shared with other goroutines while the program runs. It
// holds when the program assigns nothing into handle, assigns under no
// variable but a builder variable it has built before (in the same block or
// an enclosing one; a builder's tree is the frame's nodes, and a variable
// still holding what an earlier program left in Env.Vars may hold a subtree
// of handle), and calls only builtins, none of which writes its arguments.
// Every other way a tree reaches a message copies it (a graft clones).
func (p *CompiledProgram) ReadOnly(handle string) bool {
	_, writes := p.writes[handle]
	return !p.foreign && !writes
}

// FunctionOf reports whether what the program assigns, and whether it fails,
// depend on the message bound to handle alone: it reads no other message, no
// variable it has not assigned before (in its block or an enclosing one, not
// under a try), and calls none of cache, getcache, sethost or a function of
// the deployment.
func (p *CompiledProgram) FunctionOf(handle string) bool {
	for h := range p.reads {
		if h != handle {
			return false
		}
	}
	return !p.outside
}

// Shape is how much of a field a program reads, least first: a read of one
// shape reads all that a read of a smaller one does.
type Shape uint8

const (
	// ReadLabel reads that the field is there, and its label: label(p),
	// and the source of a foreach, which visits every field the path names.
	ReadLabel Shape = iota + 1
	// ReadChildren reads the field's child list, its length and the labels
	// on it, but not what the children hold: count(p).
	ReadChildren
	// ReadValue reads the field's value where it stands, which for a tree
	// is all of it: a plain path, copied, compared or handed to a builtin.
	ReadValue
	// ReadWhole reads the field's whole tree and carries it where the
	// program text no longer follows it: a whole-message assignment, the
	// value cache(k, e) stores, the tree child(p, i) picks from, an
	// argument of a function of the deployment, and a path bound to a
	// variable other than a foreach item or a builder.
	ReadWhole
)

// Read is one field path a program reads of a message, and how much of the
// field it reads there.
type Read struct {
	// Path is the labels from the message down to the field, dot-joined,
	// without the message-name component or an index: "" is the message
	// itself. A path names every field it can reach.
	Path  string
	Shape Shape
}

// Reads returns the paths the program reads of the message bound to
// handle, each once with the largest shape it is read with, in path order.
// A read through a foreach item is the path of the field it visits: in
// `foreach e in m4.Msg.entry { x = e.id }`, m4's "entry.id". It is exact in
// what it names and conservative in how: a path the program may read is
// there, with a shape no smaller than the read. What an earlier program
// bound to a variable is read where it was bound, in that program's Reads.
// A function of the deployment is handed the whole Env and may read any
// message: Reads counts its arguments, ReadOnly the rest.
func (p *CompiledProgram) Reads(handle string) []Read { return slices.Clone(p.reads[handle]) }

// Writes returns the paths, as Reads names them, the program assigns into
// under handle, directly or through a foreach item, in path order. Writes
// through an alias or by a function of the deployment it cannot name;
// ReadOnly counts those.
func (p *CompiledProgram) Writes(handle string) []string { return slices.Clone(p.writes[handle]) }

// cval is one variable slot.
//
// cow (copy-on-write) marks a tree shared with the session cache (a
// Cache.lend result): mutating it through the variable clones it first.
// A slot without cow aliases whatever tree it was bound to; reads and
// mutations write through — the interpreter's semantics for
// `v = m1.Msg.sub` — and grafting it into a message clones, exactly like
// the interpreter.
type cval struct {
	v   any
	set bool
	cow bool
}

// bind gives the slot a value.
func (sv *cval) bind(v any, cow bool) { sv.v, sv.set, sv.cow = v, true, cow }

// cres is one evaluated expression result.
//
// owned is set ONLY for a tree freshly produced by the expression itself
// (a direct newstruct/newarray call): such a tree provably has no other
// reference, so a graft consuming it directly may transfer it without
// the interpreter's defensive clone. Values read out of variable slots
// are never owned — a variable's tree can be aliased by other variables,
// by the program text later on, or (if transferred) observed through
// message mutations, all of which would diverge from the interpreter's
// clone-on-graft semantics (and a self-graft like `p.s = p` would even
// build a cyclic tree).
//
// leaf carries a scalar that was read from a primitive field as that field
// (v is nil then): an assignment copies it node to node, and value boxes it
// for whoever needs an `any`.
type cres struct {
	v     any
	leaf  *message.Field
	owned bool
	cow   bool
}

// key is the result as the text a session cache key is, which a leaf gives
// without boxing its scalar.
func (r cres) key() string {
	if r.leaf != nil {
		return r.leaf.ValueString()
	}
	return ValueString(r.v)
}

// value returns the result as the interpreter would hold it.
func (r cres) value() any {
	if r.leaf != nil {
		return fieldValue(r.leaf)
	}
	return r.v
}

// field converts the result into a graftable field: an owned tree is
// transferred, any other copied into s, and a scalar goes into a node of
// s's. With a nil s the copy and the node are the heap's.
func (r cres) field(label string, s *message.Store) *message.Field {
	if f, ok := r.v.(*message.Field); ok {
		if !r.owned {
			f = s.Clone(f)
		}
		f.Label = label
		return f
	}
	f := s.Node(label)
	r.scalarInto(f)
	return f
}

// scalarInto gives f the value and the type of a result that is no tree.
func (r cres) scalarInto(f *message.Field) {
	if r.leaf != nil {
		f.CopyScalar(r.leaf)
	} else {
		setScalar(f, r.v)
	}
}

// cframe is the per-execution scratch state, reused across Execs of the
// same Env.
type cframe struct {
	env   *Env
	msgs  []*message.Message // handle slot -> bound message
	vars  []cval             // variable slot -> value
	args  []any              // argument arena (stack discipline)
	iters []*message.Field   // foreach item snapshots (stack discipline)
	busy  bool
}

type cStmt interface{ exec(fr *cframe) error }
type cExpr interface {
	eval(fr *cframe) (cres, error)
}

// Exec runs the compiled program against env. Variable slots are seeded
// from env.Vars and written back when Exec returns, so local variables
// still flow between programs sharing one Env, as they do under the
// interpreter. Every node the program makes — in the messages it writes
// and in env.Vars — is the Env's and valid until env is reset
// (Env.Reset), which takes them back for the programs after it.
func (p *CompiledProgram) Exec(env *Env) error {
	if env.Vars == nil {
		env.Vars = make(map[string]any)
	}
	if env.Messages == nil {
		env.Messages = make(map[string]*message.Message)
	}
	fr := env.frame
	if fr == nil {
		fr = &cframe{}
		env.frame = fr
	} else if fr.busy {
		// Re-entrant Exec (a Func running a program against its own
		// env): give the nested run its own frame.
		fr = &cframe{}
	}
	if fr == env.frame {
		env.startWork() // a nested run, on a frame of its own, adds to its caller's count
	}
	fr.busy = true
	fr.env = env
	fr.args = fr.args[:0]
	fr.iters = fr.iters[:0]
	if cap(fr.msgs) < len(p.handles) {
		fr.msgs = make([]*message.Message, len(p.handles))
	} else {
		fr.msgs = fr.msgs[:len(p.handles)]
	}
	for i, h := range p.handles {
		fr.msgs[i] = env.Messages[h]
	}
	if cap(fr.vars) < len(p.varNames) {
		fr.vars = make([]cval, len(p.varNames))
	} else {
		fr.vars = fr.vars[:len(p.varNames)]
		clear(fr.vars)
	}
	for i, name := range p.varNames {
		if v, ok := env.Vars[name]; ok {
			fr.vars[i].bind(v, false)
		}
	}
	defer func() {
		for i, name := range p.varNames {
			if sv := &fr.vars[i]; sv.set {
				env.Vars[name] = sv.v
			}
		}
		if p.foreign {
			env.forgetAll()
		}
		for _, h := range p.written {
			env.forget(h)
		}
		fr.busy = false
	}()
	for _, s := range p.stmts {
		if err := s.exec(fr); err != nil {
			return err
		}
	}
	return nil
}

// ---- compiled statements ----

type cAssignVar struct {
	slot int
	rhs  cExpr
}

func (s *cAssignVar) exec(fr *cframe) error {
	res, err := s.rhs.eval(fr)
	if err != nil {
		return err
	}
	fr.vars[s.slot].bind(res.value(), res.cow)
	return nil
}

// cBuild is `v = newstruct("label")` (or newarray) for a builder variable:
// one the compiler has shown to be mentioned only as `v = newstruct(<literal>)`
// (or newarray), as the root of `v.path = expr`, or as the whole right-hand
// side of a graft — never as a call argument, a foreach source or loop
// variable, in `q = v`, or in a longer path read. Nothing but the variable's
// slot can then refer to its tree, and every way out of the frame copies it
// (a graft clones it, as for any variable), which ReadOnly relies on. The new
// root is a node of the store's.
type cBuild struct {
	slot  int
	label string
	typ   message.Type
}

func (s *cBuild) exec(fr *cframe) error {
	root := fr.env.store.Node(s.label)
	root.Type = s.typ
	fr.vars[s.slot].bind(root, false)
	return nil
}

type cAssignVarPath struct {
	slot  int
	root  string
	steps []pathStep // steps after the root; empty means malformed lvalue
	rhs   cExpr
	text  string
}

func (s *cAssignVarPath) exec(fr *cframe) error {
	res, err := s.rhs.eval(fr)
	if err != nil {
		return err
	}
	sv := &fr.vars[s.slot]
	if !sv.set {
		if v, ok := fr.env.Vars[s.root]; ok {
			sv.bind(v, false)
		}
	}
	f, isField := sv.v.(*message.Field)
	if !sv.set || !isField || len(s.steps) == 0 {
		return fmt.Errorf("%w: assign %s: unknown message %q", ErrExec, s.text, s.root)
	}
	if sv.cow {
		// The tree is shared with the session cache; mutate a private
		// copy (the interpreter's getcache cloned eagerly).
		f = fr.env.store.Clone(f)
		sv.v, sv.cow = f, false
	}
	if err := fr.env.spend(treeNodes(res.v)); err != nil {
		return err
	}
	return csetSteps(&f.Children, s.steps, res, s.text, &fr.env.store)
}

type cAssignMsg struct {
	slot  int
	root  string
	steps []pathStep // the full lvalue path including the root step
	rhs   cExpr
	text  string
}

func (s *cAssignMsg) exec(fr *cframe) error {
	res, err := s.rhs.eval(fr)
	if err != nil {
		return err
	}
	msg := fr.msgs[s.slot]
	if msg == nil {
		return fmt.Errorf("%w: assign %s: unknown message %q", ErrExec, s.text, s.root)
	}
	if len(s.steps) < 2 {
		return fmt.Errorf("%w: assign %s: need a message name component", ErrExec, s.text)
	}
	if name := s.steps[1].label; !isMsgWildcard(name) {
		if msg.Name == "" {
			msg.Name = name
		} else if msg.Name != name {
			return fmt.Errorf("%w: assign %s: message at %q is %q, not %q",
				ErrExec, s.text, s.root, msg.Name, name)
		}
	}
	if err := fr.env.spend(treeNodes(res.v)); err != nil {
		return err
	}
	if len(s.steps) == 2 {
		f, ok := res.v.(*message.Field)
		if !ok {
			return fmt.Errorf("%w: assign %s: whole-message assignment needs a field tree", ErrExec, s.text)
		}
		// The message takes the tree's child list for its own, so the copy
		// is the heap's: a store node's list is appended into again after
		// the next Env.Reset. A fresh tree is a store node too.
		if res.owned {
			msg.Fields = slices.Clone(f.Children)
		} else {
			msg.Fields = f.Clone().Children
		}
		return nil
	}
	return csetSteps(&msg.Fields, s.steps[2:], res, s.text, &fr.env.store)
}

type cCallStmt struct{ call cExpr }

func (s *cCallStmt) exec(fr *cframe) error {
	_, err := s.call.eval(fr)
	return err
}

// cNop replaces a statement-level call that was constant-folded (the
// fold only happens when the call is pure and already succeeded).
type cNop struct{}

func (cNop) exec(*cframe) error { return nil }

type cTry struct{ inner cStmt }

func (s *cTry) exec(fr *cframe) error {
	_ = s.inner.exec(fr)
	return nil
}

// cErr is a statement whose malformedness is only detectable with the
// whole-path context; it mirrors the interpreter's runtime error so a
// `try` still swallows it.
type cErr struct{ err error }

func (s *cErr) exec(*cframe) error { return s.err }

type cForeach struct {
	// Source: a message handle (srcIsMsg) or a variable slot.
	srcIsMsg bool
	srcSlot  int
	srcRoot  string
	msgName  string     // message-name component for handle sources
	mid      []pathStep // navigation between root and the final label
	last     pathStep
	varSlot  int
	body     []cStmt
	text     string
}

func (s *cForeach) exec(fr *cframe) error {
	var children []*message.Field
	cowSrc := false
	if s.srcIsMsg {
		msg := fr.msgs[s.srcSlot]
		if msg == nil {
			return fmt.Errorf("%w: foreach source %q: unknown root %q", ErrExec, s.text, s.srcRoot)
		}
		if !nameMatches(msg.Name, s.msgName) {
			return fmt.Errorf("%w: foreach source %q: message at %q is %q, not %q",
				ErrExec, s.text, s.srcRoot, msg.Name, s.msgName)
		}
		children = msg.Fields
	} else {
		sv := &fr.vars[s.srcSlot]
		if !sv.set {
			if v, ok := fr.env.Vars[s.srcRoot]; ok {
				sv.bind(v, false)
			} else {
				return fmt.Errorf("%w: foreach source %q: unknown root %q", ErrExec, s.text, s.srcRoot)
			}
		}
		f, ok := sv.v.(*message.Field)
		if !ok {
			return fmt.Errorf("%w: foreach source %q: not a field tree", ErrExec, s.text)
		}
		children = f.Children
		cowSrc = sv.cow
	}
	if len(s.mid) > 0 {
		parent, err := clookupSteps(children, s.mid)
		if err != nil {
			return fmt.Errorf("%w: foreach source %q: %v", ErrExec, s.text, err)
		}
		children = parent.Children
	}
	// Snapshot the matched set before the body runs: a body that appends
	// matching siblings must not extend the iteration, and a body that
	// overwrites an upcoming item's slot mutates the field the snapshot
	// already points at — the loop visits exactly the fields that matched
	// at entry.
	base := len(fr.iters)
	seen := 0
	for _, c := range children {
		if c.Label != s.last.label {
			continue
		}
		if s.last.index >= 0 {
			if seen == s.last.index {
				fr.iters = append(fr.iters, c)
				break
			}
			seen++
			continue
		}
		fr.iters = append(fr.iters, c)
	}
	n := len(fr.iters) - base
	saved := fr.vars[s.varSlot]
	defer func() {
		fr.vars[s.varSlot] = saved
		fr.iters = fr.iters[:base]
	}()
	for i := 0; i < n; i++ {
		if err := fr.env.spend(1); err != nil {
			return err
		}
		fr.vars[s.varSlot].bind(fr.iters[base+i], cowSrc)
		for _, st := range s.body {
			if err := st.exec(fr); err != nil {
				return err
			}
		}
	}
	return nil
}

// ---- compiled expressions ----

type cLit struct{ val any }

func (e *cLit) eval(*cframe) (cres, error) { return cres{v: e.val, owned: true}, nil }

type cPath struct {
	isMsg   bool
	slot    int
	root    string
	msgName string     // message-name component for handle roots ("" when the path stops at the root)
	hasName bool       // a second component exists
	rest    []pathStep // navigation after root (and message name, for handles)
	text    string
}

func (e *cPath) eval(fr *cframe) (cres, error) {
	if e.isMsg {
		msg := fr.msgs[e.slot]
		if msg == nil {
			return cres{}, fmt.Errorf("%w: %s: unknown message or variable %q", ErrExec, e.text, e.root)
		}
		if e.hasName && !nameMatches(msg.Name, e.msgName) {
			return cres{}, fmt.Errorf("%w: %s: message at %q is %q, not %q",
				ErrExec, e.text, e.root, msg.Name, e.msgName)
		}
		if len(e.rest) == 0 {
			// A message read whole: a struct over its fields, in a carved
			// node, which does not keep the message's list.
			f := &fr.env.store.Nodes(1)[0]
			f.Label, f.Type, f.Children = msg.Name, message.TypeStruct, msg.Fields
			return cres{v: f}, nil
		}
		f, err := clookupSteps(msg.Fields, e.rest)
		if err != nil {
			return cres{}, fmt.Errorf("%w: %s: %v", ErrExec, e.text, err)
		}
		return fieldResult(f, false), nil
	}
	sv := &fr.vars[e.slot]
	if !sv.set {
		if v, ok := fr.env.Vars[e.root]; ok {
			sv.bind(v, false)
		} else {
			return cres{}, fmt.Errorf("%w: %s: unknown message or variable %q", ErrExec, e.text, e.root)
		}
	}
	if len(e.rest) == 0 {
		return cres{v: sv.v, cow: sv.cow}, nil
	}
	f, ok := sv.v.(*message.Field)
	if !ok {
		return cres{}, fmt.Errorf("%w: %s: variable %q is not a field tree", ErrExec, e.text, e.root)
	}
	sub, err := clookupSteps(f.Children, e.rest)
	if err != nil {
		return cres{}, fmt.Errorf("%w: %s: %v", ErrExec, e.text, err)
	}
	return fieldResult(sub, sv.cow), nil
}

// fieldResult is what reading f gives: the tree, or the scalar as the leaf
// it sits in.
func fieldResult(f *message.Field, cow bool) cres {
	if f.Type.Primitive() {
		return cres{leaf: f, cow: cow}
	}
	return cres{v: f, cow: cow}
}

type cCall struct {
	name  string
	fn    Func // nil: unknown at compile time, fails at exec like the interpreter
	fresh bool // newstruct/newarray: result tree is owned by the execution
	args  []cExpr
}

func (e *cCall) eval(fr *cframe) (cres, error) {
	if e.fn == nil {
		return cres{}, fmt.Errorf("%w: unknown function %q", ErrExec, e.name)
	}
	base := len(fr.args)
	for _, a := range e.args {
		r, err := a.eval(fr)
		if err != nil {
			fr.args = fr.args[:base]
			return cres{}, err
		}
		fr.args = append(fr.args, r.value())
	}
	v, err := e.fn(fr.env, fr.args[base:])
	fr.args = fr.args[:base]
	if err != nil {
		return cres{}, fmt.Errorf("%w: %s(): %w", ErrExec, e.name, err)
	}
	return cres{v: v, owned: e.fresh}, nil
}

// cGetCachePeek is getcache compiled to borrow the session cache's tree
// until the Env's Reset, without cloning it. Only chosen when the program
// provably never mutates variables or calls non-builtin functions; the
// returned tree is marked copy-on-write anyway.
type cGetCachePeek struct {
	key cExpr
}

func (e *cGetCachePeek) eval(fr *cframe) (cres, error) {
	r, err := e.key.eval(fr)
	if err != nil {
		return cres{}, err
	}
	if fr.env.Cache == nil {
		return cres{}, fmt.Errorf("%w: getcache(): no session cache configured", ErrExec)
	}
	f, err := fr.env.Cache.lend(r.key(), fr.env)
	if err != nil {
		return cres{}, fmt.Errorf("%w: getcache(): %w", ErrExec, err)
	}
	return cres{v: f, cow: true}, nil
}

// cCache is cache(k, v) compiled to read the key from the leaf it is in
// without boxing it, and to hand the value to the session cache as it is,
// for Cache.put to copy into the slab of the entry it replaces or evicts.
type cCache struct {
	key, val cExpr
}

func (e *cCache) eval(fr *cframe) (cres, error) {
	k, err := e.key.eval(fr)
	if err != nil {
		return cres{}, err
	}
	v, err := e.val.eval(fr)
	if err != nil {
		return cres{}, err
	}
	if fr.env.Cache == nil {
		return cres{}, fmt.Errorf("%w: cache(): no session cache configured", ErrExec)
	}
	f, ok := v.v.(*message.Field)
	if !ok {
		// A scalar is its node, made where it stands for the cache to copy.
		f = &message.Field{}
		v.scalarInto(f)
	}
	fr.env.Cache.put(k.key(), f, "cached")
	return cres{}, nil
}

// ---- compiled navigation and mutation ----

func clookupSteps(children []*message.Field, steps []pathStep) (*message.Field, error) {
	var cur *message.Field
	for i := range steps {
		st := &steps[i]
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

// csetSteps is the interpreter's setSteps with ownership-aware grafting,
// an in-place overwrite fast path for existing scalar targets, and the
// nodes it makes taken from s (the heap's when s is nil).
func csetSteps(children *[]*message.Field, steps []pathStep, res cres, text string, s *message.Store) error {
	for i := range steps {
		st := &steps[i]
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
				*children = append(*children, res.field(st.label, s))
				return nil
			}
			cur = s.Node(st.label)
			cur.Type = message.TypeStruct
			*children = append(*children, cur)
		}
		if last {
			if _, tree := res.v.(*message.Field); tree {
				// cur takes the copy's child list for its own, so the copy
				// is the heap's, as for a whole-message assignment.
				*cur = *res.field(st.label, nil)
				if res.owned {
					cur.Children = slices.Clone(cur.Children)
				}
				return nil
			}
			// Overwrite in place: the interpreter's `*cur = *nf` resets
			// length, mandatory flag and children too.
			res.scalarInto(cur)
			cur.LengthBits, cur.Mandatory, cur.Children = 0, false, nil
			return nil
		}
		if cur.Type.Primitive() {
			return fmt.Errorf("%w: assign %s: %q is primitive", ErrExec, text, st.label)
		}
		children = &cur.Children
	}
	return nil
}

// ---- compiler ----

// pureBuiltins are side-effect-free builtins whose calls over literal
// arguments can be folded at compile time.
var pureBuiltins = map[string]bool{
	"concat": true, "toint": true, "tostring": true,
	"urlencode": true, "urldecode": true, "default": true,
	"add": true, "sub": true, "mul": true, "replace": true,
	"trim": true, "lower": true, "upper": true, "substr": true,
}

type compiler struct {
	handles   map[string]int
	handleIDs []string
	vars      map[string]int
	varIDs    []string
	funcs     map[string]Func

	// peekSafe: the program has no non-builtin calls (a custom function
	// could mutate an argument tree) and no variable-path assignments
	// (no tree reachable from a variable is ever mutated), so getcache
	// may return the cache's own tree instead of a clone — nothing can
	// write through it, and grafts always copy.
	peekSafe bool
	// reads, writes, foreign and outside become the CompiledProgram's;
	// reads and writes are sorted and made unique when the walk is done.
	reads   map[string][]Read
	writes  map[string][]string
	foreign bool
	outside bool

	// builders are the variables every mention of which fits the builder
	// rule (see cBuild); their `v = newstruct(…)` compiles to cBuild.
	builders map[string]bool
}

// Compile lowers a parsed program into its compiled form. It never
// fails on a program produced by Parse; the error return guards against
// future unsupported constructs.
func Compile(p *Program, opts CompileOptions) (*CompiledProgram, error) {
	c := &compiler{
		handles: make(map[string]int),
		vars:    make(map[string]int),
		funcs:   opts.Funcs,
	}
	handleSet := make(map[string]bool, len(opts.Handles))
	for _, h := range opts.Handles {
		handleSet[h] = true
	}
	c.builders = c.builderVars(p.stmts, handleSet)
	c.analyze(p.stmts, handleSet)
	stmts := make([]cStmt, 0, len(p.stmts))
	for _, s := range p.stmts {
		cs, err := c.stmt(s, handleSet)
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, cs)
	}
	for h, reads := range c.reads {
		// By path, the largest shape first, which is the one kept.
		slices.SortFunc(reads, func(a, b Read) int {
			if n := strings.Compare(a.Path, b.Path); n != 0 {
				return n
			}
			return int(b.Shape) - int(a.Shape)
		})
		c.reads[h] = slices.CompactFunc(reads, func(a, b Read) bool { return a.Path == b.Path })
	}
	var written []string
	for h, paths := range c.writes {
		slices.Sort(paths)
		c.writes[h] = slices.Compact(paths)
		written = append(written, h)
	}
	slices.Sort(written)
	return &CompiledProgram{
		src:      p.src,
		stmts:    stmts,
		handles:  c.handleIDs,
		varNames: c.varIDs,
		reads:    c.reads,
		writes:   c.writes,
		foreign:  c.foreign,
		outside:  c.outside,
		written:  written,
	}, nil
}

// item is what a foreach item variable visits: the fields at path of the
// message bound to handle.
type item struct{ handle, path string }

// joinPath appends the labels of steps to path, dot-joined.
func joinPath(path string, steps []pathStep) string {
	if path == "" && len(steps) == 1 {
		return steps[0].label
	}
	var b strings.Builder
	b.WriteString(path)
	for _, st := range steps {
		if b.Len() > 0 {
			b.WriteByte('.')
		}
		b.WriteString(st.label)
	}
	return b.String()
}

// analyze scans the program for what it reads and writes of each handle
// (Reads, Writes), whether it may write into a tree it did not make —
// through a custom function, or under a variable that is no builder it has
// built before — and whether it may read what no message holds (FunctionOf).
// peekSafe, the gate of the getcache Peek fast path, is stricter: no
// variable path is assigned at all. It needs builders.
func (c *compiler) analyze(stmts []Stmt, handleSet map[string]bool) {
	c.reads, c.writes = map[string][]Read{}, map[string][]string{}
	varPaths, customCalls := false, false
	// items are the foreach items in scope, innermost last; one whose
	// source is no message's is none (ok false).
	type scoped struct {
		name string
		at   item
		ok   bool
	}
	var items []scoped
	// resolve names the message field a path reaches, directly or through
	// one of the foreach items in scope. A path from a variable not in set,
	// the variables assigned on every way to it, reads what an earlier
	// program left.
	resolve := func(ex *pathExpr, set map[string]bool) (item, bool) {
		root := ex.steps[0].label
		if handleSet[root] {
			if len(ex.steps) <= 2 {
				return item{root, ""}, true
			}
			return item{root, joinPath("", ex.steps[2:])}, true
		}
		for i := len(items) - 1; i >= 0; i-- {
			if it := items[i]; it.name == root {
				it.at.path = joinPath(it.at.path, ex.steps[1:])
				return it.at, it.ok
			}
		}
		c.outside = c.outside || !set[root]
		return item{}, false
	}
	var walkExpr func(e Expr, shape Shape, set map[string]bool)
	walkExpr = func(e Expr, shape Shape, set map[string]bool) {
		switch ex := e.(type) {
		case *pathExpr:
			if at, ok := resolve(ex, set); ok {
				c.reads[at.handle] = append(c.reads[at.handle], Read{at.path, shape})
			}
		case *callExpr:
			_, shadowed := c.funcs[ex.name]
			_, isBuiltin := builtins[ex.name]
			custom := shadowed || !isBuiltin
			customCalls = customCalls || custom
			switch ex.name {
			case "cache", "getcache", "sethost":
				c.outside = true
			}
			for i, a := range ex.args {
				arg := ReadValue
				switch {
				case custom, ex.name == "child" && i == 0, ex.name == "cache" && i == 1:
					arg = ReadWhole
				case ex.name == "count":
					arg = ReadChildren
				case ex.name == "label":
					arg = ReadLabel
				case ex.name == "default":
					// default returns an argument as it is.
					arg = max(arg, shape)
				}
				walkExpr(a, arg, set)
			}
		}
	}
	// built holds the builder variables built so far on every way to the
	// statement, and set the variables assigned so far on every way to it:
	// a block's are its own and its nested blocks'. An assignment under a
	// try may not happen, so it sets nothing after the try.
	var walkStmt func(s Stmt, built, set map[string]bool)
	walkBlock := func(stmts []Stmt, outerBuilt, outerSet map[string]bool) {
		built, set := maps.Clone(outerBuilt), maps.Clone(outerSet)
		for _, s := range stmts {
			walkStmt(s, built, set)
		}
	}
	walkStmt = func(s Stmt, built, set map[string]bool) {
		switch st := s.(type) {
		case *assignStmt:
			root := st.lhs.steps[0]
			rhs := ReadValue
			if handleSet[root.label] || len(st.lhs.steps) > 1 || root.append {
				if at, ok := resolve(st.lhs, set); ok {
					c.writes[at.handle] = append(c.writes[at.handle], at.path)
				}
			}
			assigns := false // v = …: the statement sets variable v
			switch {
			case handleSet[root.label]:
				if len(st.lhs.steps) == 2 {
					rhs = ReadWhole
				}
			case len(st.lhs.steps) > 1 || root.append:
				varPaths = true
				if !built[root.label] {
					c.foreign = true
				}
			case c.builders[root.label]:
				// Every `v = …` of a builder variable is a builder call.
				built[root.label], assigns = true, true
			default:
				// v = expr: v aliases what expr reads.
				rhs, assigns = ReadWhole, true
			}
			walkExpr(st.rhs, rhs, set)
			if assigns {
				set[root.label] = true
			}
		case *callStmt:
			walkExpr(st.call, ReadValue, set)
		case *foreachStmt:
			at, ok := resolve(st.src, set)
			if ok {
				c.reads[at.handle] = append(c.reads[at.handle], Read{at.path, ReadLabel})
			}
			items = append(items, scoped{st.varName, at, ok})
			walkBlock(st.body, built, set)
			items = items[:len(items)-1]
		case *tryStmt:
			walkStmt(st.inner, built, maps.Clone(set))
		}
	}
	walkBlock(stmts, map[string]bool{}, map[string]bool{})
	c.peekSafe = !varPaths && !customCalls
	c.foreign = c.foreign || customCalls
	c.outside = c.outside || customCalls
}

// builderCall reports whether e is newstruct or newarray — the builtin, not
// a function of the same name — over one literal, and what it makes.
func (c *compiler) builderCall(e Expr) (label string, typ message.Type, ok bool) {
	call, isCall := e.(*callExpr)
	if !isCall || len(call.args) != 1 || c.funcs[call.name] != nil {
		return "", 0, false
	}
	lit, isLit := call.args[0].(*literalExpr)
	if !isLit {
		return "", 0, false
	}
	switch call.name {
	case "newstruct":
		return ValueString(lit.val), message.TypeStruct, true
	case "newarray":
		return ValueString(lit.val), message.TypeArray, true
	}
	return "", 0, false
}

// builderVars is the syntactic pass behind cBuild: it returns the
// variables that are assigned by a builder call and mentioned nowhere the
// rule does not allow.
func (c *compiler) builderVars(stmts []Stmt, handleSet map[string]bool) map[string]bool {
	built, barred := map[string]bool{}, map[string]bool{}
	// mention bars every variable an expression reads.
	var mention func(e Expr)
	mention = func(e Expr) {
		switch ex := e.(type) {
		case *pathExpr:
			barred[ex.steps[0].label] = true
		case *callExpr:
			for _, a := range ex.args {
				mention(a)
			}
		}
	}
	var walk func(s Stmt)
	walk = func(s Stmt) {
		switch st := s.(type) {
		case *assignStmt:
			root := st.lhs.steps[0]
			if len(st.lhs.steps) == 1 && !root.append && !handleSet[root.label] {
				// `v = expr`: a builder call, or v is no builder — and
				// nor is what expr reads, which v would alias.
				if _, _, ok := c.builderCall(st.rhs); ok {
					built[root.label] = true
				} else {
					barred[root.label] = true
					mention(st.rhs)
				}
				return
			}
			// A graft, into a message or under a variable (which may be a
			// builder: it is the root of the path). The graft copies a
			// tree, so a variable that is the whole right-hand side stays
			// eligible.
			if rhs, ok := st.rhs.(*pathExpr); !ok || len(rhs.steps) > 1 {
				mention(st.rhs)
			}
		case *callStmt:
			mention(st.call)
		case *foreachStmt:
			barred[st.varName] = true
			barred[st.src.steps[0].label] = true
			for _, b := range st.body {
				walk(b)
			}
		case *tryStmt:
			walk(st.inner)
		}
	}
	for _, s := range stmts {
		walk(s)
	}
	for v := range barred {
		delete(built, v)
	}
	return built
}

func (c *compiler) handleSlot(name string) int {
	if i, ok := c.handles[name]; ok {
		return i
	}
	i := len(c.handleIDs)
	c.handles[name] = i
	c.handleIDs = append(c.handleIDs, name)
	return i
}

func (c *compiler) varSlot(name string) int {
	if i, ok := c.vars[name]; ok {
		return i
	}
	i := len(c.varIDs)
	c.vars[name] = i
	c.varIDs = append(c.varIDs, name)
	return i
}

func (c *compiler) stmt(s Stmt, handleSet map[string]bool) (cStmt, error) {
	switch st := s.(type) {
	case *tryStmt:
		inner, err := c.stmt(st.inner, handleSet)
		if err != nil {
			return nil, err
		}
		return &cTry{inner: inner}, nil
	case *callStmt:
		call, err := c.call(st.call, handleSet)
		if err != nil {
			return nil, err
		}
		if _, folded := call.(*cLit); folded {
			return cNop{}, nil
		}
		return &cCallStmt{call: call}, nil
	case *assignStmt:
		rhs, err := c.expr(st.rhs, handleSet)
		if err != nil {
			return nil, err
		}
		root := st.lhs.steps[0]
		if handleSet[root.label] {
			return &cAssignMsg{
				slot:  c.handleSlot(root.label),
				root:  root.label,
				steps: st.lhs.steps,
				rhs:   rhs,
				text:  st.lhs.text,
			}, nil
		}
		if len(st.lhs.steps) == 1 && !root.append {
			if c.builders[root.label] {
				label, typ, _ := c.builderCall(st.rhs)
				return &cBuild{slot: c.varSlot(root.label), label: label, typ: typ}, nil
			}
			return &cAssignVar{slot: c.varSlot(root.label), rhs: rhs}, nil
		}
		steps := st.lhs.steps[1:]
		return &cAssignVarPath{
			slot:  c.varSlot(root.label),
			root:  root.label,
			steps: steps,
			rhs:   rhs,
			text:  st.lhs.text,
		}, nil
	case *foreachStmt:
		return c.foreach(st, handleSet)
	default:
		return nil, fmt.Errorf("%w: unsupported statement %T", ErrParse, s)
	}
}

func (c *compiler) foreach(st *foreachStmt, handleSet map[string]bool) (cStmt, error) {
	steps := st.src.steps
	if len(steps) < 2 {
		return &cErr{err: fmt.Errorf("%w: foreach source %q too short", ErrExec, st.src.text)}, nil
	}
	root := steps[0]
	f := &cForeach{
		srcRoot: root.label,
		varSlot: c.varSlot(st.varName),
		text:    st.src.text,
	}
	if handleSet[root.label] {
		if len(steps) < 3 {
			return &cErr{err: fmt.Errorf("%w: foreach source %q too short", ErrExec, st.src.text)}, nil
		}
		f.srcIsMsg = true
		f.srcSlot = c.handleSlot(root.label)
		f.msgName = steps[1].label
		f.mid = steps[2 : len(steps)-1]
	} else {
		f.srcSlot = c.varSlot(root.label)
		f.mid = steps[1 : len(steps)-1]
	}
	f.last = steps[len(steps)-1]
	for _, b := range st.body {
		cs, err := c.stmt(b, handleSet)
		if err != nil {
			return nil, err
		}
		f.body = append(f.body, cs)
	}
	return f, nil
}

func (c *compiler) expr(e Expr, handleSet map[string]bool) (cExpr, error) {
	switch ex := e.(type) {
	case *literalExpr:
		return &cLit{val: ex.val}, nil
	case *callExpr:
		return c.call(ex, handleSet)
	case *pathExpr:
		root := ex.steps[0]
		if handleSet[root.label] {
			p := &cPath{
				isMsg: true,
				slot:  c.handleSlot(root.label),
				root:  root.label,
				text:  ex.text,
			}
			if len(ex.steps) >= 2 {
				p.hasName = true
				p.msgName = ex.steps[1].label
				p.rest = ex.steps[2:]
			}
			return p, nil
		}
		return &cPath{
			slot: c.varSlot(root.label),
			root: root.label,
			rest: ex.steps[1:],
			text: ex.text,
		}, nil
	default:
		return nil, fmt.Errorf("%w: unsupported expression %T", ErrParse, e)
	}
}

func (c *compiler) call(e *callExpr, handleSet map[string]bool) (cExpr, error) {
	args := make([]cExpr, len(e.args))
	allLit := true
	for i, a := range e.args {
		ca, err := c.expr(a, handleSet)
		if err != nil {
			return nil, err
		}
		args[i] = ca
		if _, ok := ca.(*cLit); !ok {
			allLit = false
		}
	}
	fn := c.funcs[e.name]
	shadowed := fn != nil
	if fn == nil {
		fn = builtins[e.name]
	}
	// Constant-fold pure builtins over literal arguments. Folding is
	// best-effort: a call that fails stays unfolded so its error (and
	// any enclosing `try`) keeps runtime semantics.
	if !shadowed && fn != nil && allLit && pureBuiltins[e.name] {
		vals := make([]any, len(args))
		for i, a := range args {
			vals[i] = a.(*cLit).val
		}
		if v, err := fn(nil, vals); err == nil {
			return &cLit{val: v}, nil
		}
	}
	if !shadowed && e.name == "getcache" && c.peekSafe && len(args) == 1 {
		return &cGetCachePeek{key: args[0]}, nil
	}
	if !shadowed && e.name == "cache" && len(args) == 2 {
		return &cCache{key: args[0], val: args[1]}, nil
	}
	fresh := !shadowed && (e.name == "newstruct" || e.name == "newarray")
	return &cCall{name: e.name, fn: fn, fresh: fresh, args: args}, nil
}

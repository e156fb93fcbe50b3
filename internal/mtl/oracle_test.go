package mtl

// The reference interpreter: the seed's tree-walking executor of a parsed
// Program, bodies unchanged. No deployment runs it — engine.New compiles
// every γ — so it lives here, as the slow obvious thing CompiledProgram.Exec
// is held to by diffRuns: in FuzzCompile, in the tables of compile_test.go
// and under every test of mtl_test.go. It decides "handle or variable" from
// Env.Messages at run time, where Compile is told CompileOptions.Handles.
//
// Stmt and Expr are marker interfaces outside the tests; execer and evaler
// are what this file's methods give every AST node.

import (
	"fmt"

	"starlink/internal/message"
)

type execer interface{ exec(env *Env) error }

type evaler interface{ eval(env *Env) (any, error) }

func (s *tryStmt) exec(env *Env) error {
	_ = s.inner.(execer).exec(env)
	return nil
}

// interpret runs the program against env.
func interpret(p *Program, env *Env) error {
	if env.Vars == nil {
		env.Vars = make(map[string]any)
	}
	if env.Messages == nil {
		env.Messages = make(map[string]*message.Message)
	}
	env.startWork()
	// It cannot name what it writes (CompiledProgram.written).
	defer env.forgetAll()
	for _, s := range p.stmts {
		if err := s.(execer).exec(env); err != nil {
			return err
		}
	}
	return nil
}

func (s *assignStmt) exec(env *Env) error {
	val, err := s.rhs.(evaler).eval(env)
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
		if err := env.spend(1); err != nil {
			return err
		}
		env.Vars[s.varName] = item
		for _, st := range s.body {
			if err := st.(execer).exec(env); err != nil {
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
		v, err := a.(evaler).eval(env)
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
				if err := env.spend(treeNodes(val)); err != nil {
					return err
				}
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
	if err := env.spend(treeNodes(val)); err != nil {
		return err
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

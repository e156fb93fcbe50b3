package mtl

import (
	"slices"
	"strings"
	"testing"

	"starlink/internal/message"
)

func FuzzParse(f *testing.F) {
	f.Add("a.Msg.x = b.Msg.y")
	f.Add(`sethost("https://x") ` + "\n" + `foreach e in m.M.list.item { out.O.v[] = e.id }`)
	f.Add("x = concat(\"a\", 1, 2.5)")
	f.Add("try a.Msg.x = getcache(\"k\")")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		// Programs that parse must compile, and execute (possibly to an
		// error) without panicking against the populated fixture.
		compiled, err := Compile(prog, CompileOptions{Handles: fuzzHandles})
		if err != nil {
			t.Fatalf("program parsed but did not compile: %v\n%s", err, src)
		}
		_ = compiled.Exec(fuzzFixture())
	})
}

// FuzzCompile is the compiled/interpreted equivalence oracle: any program
// that parses must compile, and executing the compiled form against a
// fixture environment — twice on one Env, see diffRuns — must produce
// exactly the interpreter's observable state: outcome, message trees, host
// retarget and variables. A program FunctionOf calls a function of m does
// the same over an Env that differs in all but m (functionOfHolds).
func FuzzCompile(f *testing.F) {
	seeds := []string{
		"a.Msg.x = b.Msg.y",
		`sethost("https://x")` + "\n" + `foreach e in m.M.list.item { out.O.v[] = e.id }`,
		`x = concat("a", 1, 2.5)` + "\n" + `out.O.x = x`,
		`try a.Msg.x = getcache("k")`,
		`entry = getcache("k")` + "\n" + `out.O.t = child(entry, "title")`,
		`entry = getcache("k")` + "\n" + `entry.title = "w"` + "\n" + `out.O.t = child(entry, "title")`,
		`p = newstruct("s")` + "\n" + `p.x = "1"` + "\n" + `out.O.s = p` + "\n" + `p.x = "2"` + "\n" + `out.O.s2 = p`,
		`v = b.Msg.tree` + "\n" + `v.x = "w"` + "\n" + `out.O.echo = b.Msg.tree.x`,
		`foreach e in m.M.list.item { m.M.list.item[] = e.v }`,
		`out.O.n = add(toint(b.Msg.y), 1)` + "\n" + `out.O.s = substr("abcdef", 1, 3)`,
		`try out.O.x = substr("ab", 0, 99)`,
		`try unknownfn("x")`,
		`out.Wrong.x = "1"` + "\n" + `out.Other.y = "2"`,
		`foreach e in v.kids { out.O.x = "1" }`,
		`e = "outer"` + "\n" + `foreach e in m.M.list.item { out.O.i[] = e.v }` + "\n" + `out.O.r = e`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	for _, c := range builderCases {
		if c.funcs == nil {
			f.Add(c.src)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Bound the differential run, which executes everything four
		// times: the source, and through MaxExecNodes what a run of it
		// grafts and visits (TestWorkBound).
		if len(src) > 2048 {
			return
		}
		prog, err := Parse(src)
		if err != nil {
			return
		}
		compiled := diffRuns(t, prog, CompileOptions{Handles: fuzzHandles}, fuzzFixture)
		readsSuffice(t, compiled)
		functionOfHolds(t, compiled, nil)
	})
}

// readsSuffice holds Reads to what a program does: run on the fixture, and
// on one that keeps of each message the program only reads (ReadOnly) what
// its Reads name, cut as the engine has a reply parsed (bind.Projector):
// every top-level field, each field a read names with all it holds unless
// the read is a top-level label, and each field on the way to one. The
// program ends the same: outcome, the messages it writes, host, variables.
func readsSuffice(t *testing.T, prog *CompiledProgram) {
	t.Helper()
	whole, cut := fuzzFixture(), fuzzFixture()
	var read []string
	for _, h := range fuzzHandles {
		if !prog.ReadOnly(h) {
			continue
		}
		read = append(read, h)
		var paths []string
		for _, r := range prog.Reads(h) {
			switch {
			case r.Path == "" && r.Shape >= ReadValue:
				paths = append(paths, "")
			case r.Path != "" && (r.Shape > ReadLabel || strings.Contains(r.Path, ".")):
				paths = append(paths, r.Path)
			}
		}
		if !slices.Contains(paths, "") {
			msg := cut.Message(h)
			msg.Fields = keepPaths(msg.Fields, "", paths, true)
		}
	}
	errWhole, errCut := prog.Exec(whole), prog.Exec(cut)
	if (errWhole != nil) != (errCut != nil) || errWhole != nil && errWhole.Error() != errCut.Error() {
		t.Fatalf("outcome on what it reads: %v, on the whole fixture: %v\nprogram:\n%s", errCut, errWhole, prog.Source())
	}
	for _, h := range fuzzHandles {
		if !slices.Contains(read, h) && !whole.Message(h).Equal(cut.Message(h)) {
			t.Fatalf("message %q on what it reads: %v, on the whole fixture: %v\nprogram:\n%s", h, cut.Message(h), whole.Message(h), prog.Source())
		}
	}
	if whole.Host != cut.Host || len(whole.Vars) != len(cut.Vars) {
		t.Fatalf("host %q and %d vars on what it reads, %q and %d on the whole fixture\nprogram:\n%s",
			cut.Host, len(cut.Vars), whole.Host, len(whole.Vars), prog.Source())
	}
	for name, v := range whole.Vars {
		if !sameValue(v, cut.Vars[name]) {
			t.Fatalf("var %q on what it reads: %v, on the whole fixture: %v\nprogram:\n%s", name, cut.Vars[name], v, prog.Source())
		}
	}
}

// keepPaths copies of fields those at or on the way to a path, each path
// dot-joined below the message, a field a path names with all it holds;
// top keeps every field besides.
func keepPaths(fields []*message.Field, at string, paths []string, top bool) []*message.Field {
	var out []*message.Field
	for _, f := range fields {
		path := strings.TrimPrefix(at+"."+f.Label, ".")
		named, below := false, false
		for _, p := range paths {
			named = named || p == path
			below = below || strings.HasPrefix(p, path+".")
		}
		switch {
		case named:
			out = append(out, f)
		case below || top:
			cp := *f
			cp.Children = keepPaths(f.Children, path, paths, false)
			out = append(out, &cp)
		}
	}
	return out
}

// fuzzHandles and fuzzFixture are what FuzzCompile and the builder table
// run their programs against.
var fuzzHandles = []string{"a", "b", "m", "out"}

func fuzzFixture() *Env {
	env := NewEnv(&Cache{})
	env.Bind("a", message.New("Msg"))
	env.Bind("b", message.New("Msg",
		message.NewPrimitive("y", message.TypeInt64, 1),
		message.NewStruct("tree",
			message.NewPrimitive("x", message.TypeString, "tx"),
		),
	))
	env.Bind("m", message.New("M",
		message.NewStruct("list",
			message.NewStruct("item", message.NewPrimitive("v", message.TypeString, "v0"),
				message.NewPrimitive("id", message.TypeString, "i0")),
			message.NewStruct("item", message.NewPrimitive("v", message.TypeString, "v1"),
				message.NewPrimitive("id", message.TypeString, "i1")),
		),
	))
	env.Bind("out", message.New("O"))
	env.Cache.Put("k", message.NewStruct("cached",
		message.NewPrimitive("title", message.TypeString, "ct"),
	))
	return env
}

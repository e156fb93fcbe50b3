package mtl

import (
	"strings"
	"testing"

	"starlink/internal/message"
	"starlink/internal/testutil"
)

// fixtureHandles is the handle set every differential test compiles
// against; the fixture envs bind exactly these.
var fixtureHandles = []string{"m1", "m2"}

// fixtureEnv builds one of two identical environments: a rich incoming
// message at m1, an empty outgoing message at m2, and a pre-seeded
// session cache.
func fixtureEnv() *Env {
	env := NewEnv(&Cache{})
	env.Bind("m1", message.New("HTTPOK",
		message.NewPrimitive("Status", message.TypeInt64, 200),
		message.NewStruct("Body",
			message.NewStruct("feed",
				message.NewStruct("entry",
					message.NewPrimitive("id", message.TypeString, "p1"),
					message.NewPrimitive("title", message.TypeString, "first"),
				),
				message.NewStruct("entry",
					message.NewPrimitive("id", message.TypeString, "p2"),
					message.NewPrimitive("title", message.TypeString, "second"),
				),
			),
		),
	))
	env.Bind("m2", message.New(""))
	env.Cache.Put("k", message.NewStruct("cached",
		message.NewPrimitive("title", message.TypeString, "cached-title"),
		message.NewPrimitive("owner", message.TypeString, "cached-owner"),
	))
	return env
}

// diffExec runs src through the interpreter and the compiled fast path
// against identical fixtures and fails the test on any observable
// difference: outcome, message trees, host retarget, or variables.
func diffExec(t *testing.T, src string, funcs map[string]Func) {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	compiled, err := Compile(prog, CompileOptions{Handles: fixtureHandles, Funcs: funcs})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	envI, envC := fixtureEnv(), fixtureEnv()
	envI.Funcs, envC.Funcs = funcs, funcs
	errI := prog.Exec(envI)
	errC := compiled.Exec(envC)
	if (errI != nil) != (errC != nil) {
		t.Fatalf("outcome diverged:\n interpreted: %v\n compiled:    %v\nprogram:\n%s", errI, errC, src)
	}
	assertEnvEqual(t, src, envI, envC)
}

func assertEnvEqual(t *testing.T, src string, envI, envC *Env) {
	t.Helper()
	for _, h := range fixtureHandles {
		if !envI.Message(h).Equal(envC.Message(h)) {
			t.Errorf("message %q diverged:\n interpreted: %v\n compiled:    %v\nprogram:\n%s",
				h, envI.Message(h), envC.Message(h), src)
		}
	}
	if envI.Host != envC.Host {
		t.Errorf("host diverged: %q vs %q\nprogram:\n%s", envI.Host, envC.Host, src)
	}
	for name := range envI.Vars {
		if _, ok := envC.Vars[name]; !ok {
			t.Errorf("var %q only set by interpreter\nprogram:\n%s", name, src)
		}
	}
	for name, vc := range envC.Vars {
		vi, ok := envI.Vars[name]
		if !ok {
			t.Errorf("var %q only set by compiled path\nprogram:\n%s", name, src)
			continue
		}
		if ValueString(vi) != ValueString(vc) {
			t.Errorf("var %q diverged: %q vs %q\nprogram:\n%s",
				name, ValueString(vi), ValueString(vc), src)
		}
	}
}

func TestCompiledMatchesInterpreter(t *testing.T) {
	programs := []string{
		// Field copies, literals, renames.
		`m2.Reply.status = m1.HTTPOK.Status`,
		`m2.Reply.greeting = "hello"`,
		`m2.Reply.n = 42
		 m2.Reply.f = 2.5`,
		`m2.Msg.first = m1.Msg.Body.feed.entry.id`,
		`m2.Msg.second = m1.Msg.Body.feed.entry[1].title`,
		// Whole-message assignment and bare handle reads.
		`m2.Copy = m1`,
		`v = m1
		 m2.Copy = v`,
		// Local variables, functions, folding candidates.
		`x = concat("a", "-", "b")
		 m2.Msg.joined = x`,
		`x = m1.Msg.Body.feed.entry.title
		 m2.Msg.up = upper(x)
		 m2.Msg.len = count(m1.Msg.Body.feed)`,
		`m2.Msg.sum = add(toint(m1.Msg.Status), 1)`,
		// sethost.
		`sethost("https://example.net")`,
		`sethost(concat("https://", "host", ":99"))`,
		// foreach with cache and append.
		`foreach e in m1.Msg.Body.feed.entry {
		   cache(e.id, e)
		   m2.MethodResponse.photos.photo[] = e.id
		 }`,
		// foreach over an indexed single element.
		`foreach e in m1.Msg.Body.feed.entry[1] {
		   m2.Msg.only[] = e.title
		 }`,
		// foreach over a variable tree.
		`v = m1.Msg.Body.feed
		 foreach e in v.entry {
		   m2.Msg.t[] = e.title
		 }`,
		// getcache: peek-safe (no var mutation, builtins only).
		`entry = getcache("k")
		 m2.Msg.title = child(entry, "title")
		 m2.Msg.owner = child(entry, "owner")`,
		// getcache: peek-unsafe (mutates the variable afterwards).
		`entry = getcache("k")
		 entry.title = "rewritten"
		 m2.Msg.title = child(entry, "title")`,
		// Structure building with newstruct/newarray.
		`p = newstruct("photo")
		 p.id = m1.Msg.Body.feed.entry.id
		 p.title = m1.Msg.Body.feed.entry.title
		 m2.Msg.photo = p`,
		`a = newarray("list")
		 a.item[] = "one"
		 a.item[] = "two"
		 m2.Msg.list = a`,
		// Mutating a variable after grafting it must not leak into the
		// message (the interpreter clones on graft; the compiled path
		// transfers then copies-on-write).
		`p = newstruct("photo")
		 p.id = "before"
		 m2.Msg.photo = p
		 p.id = "after"
		 m2.Msg.second = p`,
		// Variable aliasing: q and p share a tree; mutations through one
		// are visible through the other.
		`p = newstruct("s")
		 p.x = "1"
		 q = p
		 p.y = "2"
		 m2.Msg.qy = child(q, "y")`,
		// Aliasing a live message subtree writes through.
		`v = m1.Msg.Body.feed
		 v.extra = "added"
		 m2.Msg.echo = m1.Msg.Body.feed.extra`,
		// try over failing statements, including a foldable call whose
		// fold must stay a runtime error.
		`try m2.Msg.opt = m1.Msg.NoSuchField
		 m2.Msg.after = "ran"`,
		`try m2.Msg.opt = substr("ab", 0, 99)
		 m2.Msg.after = "ran"`,
		`try unknownfn("x")
		 m2.Msg.after = "ran"`,
		// Errors without try: both paths must fail.
		`m2.Msg.opt = m1.Msg.NoSuchField`,
		`m2.Msg.x = unknownfn("x")`,
		`m2.WrongName.x = "v"
		 m2.OtherName.y = "v"`,
		`entry = getcache("missing")`,
		`x = substr("ab", 0, 99)`,
		`foreach e in m1 { m2.Msg.x = "1" }`,
		`v = "scalar"
		 v.child = "x"`,
		`v = "scalar"
		 foreach e in v.kids { m2.Msg.x = "1" }`,
		// Message-name wildcard and guard.
		`m2.Msg.a = "1"
		 m2.*.b = "2"`,
		// default() with empty and non-empty values.
		`m2.Msg.d1 = default("", "fallback")
		 m2.Msg.d2 = default(m1.Msg.Body.feed.entry.id, "fallback")`,
	}
	for _, src := range programs {
		diffExec(t, src, nil)
	}
}

func TestCompiledWithCustomFuncs(t *testing.T) {
	funcs := map[string]Func{
		"vocab": TableFunc(map[string]string{"a": "b"}),
		// Shadow a builtin, as engine configs may.
		"upper": func(_ *Env, args []any) (any, error) { return "shadowed", nil },
	}
	programs := []string{
		`m2.Msg.v = vocab("a")`,
		`m2.Msg.v = vocab("missing")`,
		`m2.Msg.v = upper("x")`,
		// Custom calls force the conservative compile: grafts clone, and
		// the graft/mutate sequence must still match the interpreter.
		`p = newstruct("s")
		 p.x = vocab("a")
		 m2.Msg.photo = p
		 p.x = "after"
		 m2.Msg.second = p`,
	}
	for _, src := range programs {
		diffExec(t, src, funcs)
	}
}

// TestCompiledCacheIsolation pins the getcache fast path: a peeked tree
// is shared with the cache, so the program mutating its own view must
// never corrupt the cached entry.
func TestCompiledCacheIsolation(t *testing.T) {
	src := `entry = getcache("k")
	 entry.title = "rewritten"
	 m2.Msg.title = child(entry, "title")`
	prog := MustParse(src)
	compiled, err := Compile(prog, CompileOptions{Handles: fixtureHandles})
	if err != nil {
		t.Fatal(err)
	}
	env := fixtureEnv()
	if err := compiled.Exec(env); err != nil {
		t.Fatal(err)
	}
	f, err := env.Cache.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Child("title").ValueString(); got != "cached-title" {
		t.Fatalf("cache entry mutated through compiled execution: title = %q", got)
	}
	if got, _ := env.Message("m2").GetString("title"); got != "rewritten" {
		t.Fatalf("m2.title = %q, want rewritten", got)
	}
}

// TestCompiledEnvReuse pins the pooling contract: one Env executes the
// same compiled program many times with Reset between runs, and each run
// behaves like a fresh environment.
func TestCompiledEnvReuse(t *testing.T) {
	src := `foreach e in m1.Msg.Body.feed.entry {
	   cache(e.id, e)
	   m2.MethodResponse.photos.photo[] = e.id
	 }`
	compiled, err := Compile(MustParse(src), CompileOptions{Handles: fixtureHandles})
	if err != nil {
		t.Fatal(err)
	}
	cache := &Cache{}
	env := NewEnv(cache)
	for i := 0; i < 3; i++ {
		env.Reset()
		fresh := fixtureEnv()
		env.Bind("m1", fresh.Message("m1"))
		env.Bind("m2", fresh.Message("m2"))
		if err := compiled.Exec(env); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		m2 := env.Message("m2")
		if n := len(m2.Fields[0].Children); n != 2 {
			t.Fatalf("run %d: %d photos, want 2", i, n)
		}
	}
	if cache.Len() != 2 {
		t.Fatalf("cache has %d entries, want 2", cache.Len())
	}
}

// TestCachePutRefreshesEvictionOrder is the regression test for the
// eviction-order bug: re-putting an existing key must refresh its slot so
// a hot key is not evicted as "oldest" while stale keys survive.
func TestCachePutRefreshesEvictionOrder(t *testing.T) {
	c := &Cache{Limit: 2}
	v := message.NewPrimitive("v", message.TypeString, "x")
	c.Put("hot", v)
	c.Put("stale", v)
	// Rewrite the hot key: it must now be the freshest entry.
	c.Put("hot", v)
	// Inserting a third key must evict "stale", not "hot".
	c.Put("new", v)
	if _, err := c.Get("hot"); err != nil {
		t.Fatalf("hot key evicted despite re-put: %v", err)
	}
	if _, err := c.Get("stale"); err == nil {
		t.Fatal("stale key survived eviction")
	}
	if _, err := c.Get("new"); err != nil {
		t.Fatalf("new key missing: %v", err)
	}
}

// TestForeachSnapshotSemantics is the regression test for mid-iteration
// aliasing: a body that appends matching siblings into the iterated
// parent must not extend the iteration.
func TestForeachSnapshotSemantics(t *testing.T) {
	src := `foreach e in m1.Msg.Body.feed.entry {
	   m1.Msg.Body.feed.entry[] = "copied"
	 }`
	for _, mode := range []string{"interpreted", "compiled"} {
		env := fixtureEnv()
		prog := MustParse(src)
		var err error
		if mode == "compiled" {
			var compiled *CompiledProgram
			compiled, err = Compile(prog, CompileOptions{Handles: fixtureHandles})
			if err != nil {
				t.Fatal(err)
			}
			err = compiled.Exec(env)
		} else {
			err = prog.Exec(env)
		}
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		feed, err := env.Message("m1").Lookup("Body.feed")
		if err != nil {
			t.Fatal(err)
		}
		// 2 original entries, each appending exactly one: 4 total. An
		// implementation that re-reads the child list mid-loop would
		// iterate the appended entries too and never terminate (or
		// produce more than 4).
		if n := len(feed.Children); n != 4 {
			t.Fatalf("%s: feed has %d entries after foreach, want 4", mode, n)
		}
	}
}

// TestCompiledProgramAccessors covers the small introspection surface.
func TestCompiledProgramAccessors(t *testing.T) {
	src := `m2.Msg.x = m1.Msg.Status`
	prog := MustParse(src)
	compiled, err := Compile(prog, CompileOptions{Handles: fixtureHandles})
	if err != nil {
		t.Fatal(err)
	}
	if compiled.Source() != src {
		t.Errorf("Source() = %q", compiled.Source())
	}
	if compiled.Program() != prog {
		t.Error("Program() did not return the parsed program")
	}
	hs := compiled.Handles()
	if len(hs) != 2 {
		t.Errorf("Handles() = %v, want m1 and m2", hs)
	}
}

// TestCompiledExecAllocBudget is the allocation budget for the compiled
// fast path: executing a translation with a pooled Env must stay within
// a small constant number of allocations beyond the field nodes the
// program itself creates.
func TestCompiledExecAllocBudget(t *testing.T) {
	src := `sethost("https://picasaweb.google.com")
	 foreach e in m1.Msg.Body.feed.entry {
	   m2.MethodResponse.photos.photo[] = e.id
	 }`
	compiled, err := Compile(MustParse(src), CompileOptions{Handles: fixtureHandles})
	if err != nil {
		t.Fatal(err)
	}
	fresh := fixtureEnv()
	env := NewEnv(nil)
	env.Bind("m1", fresh.Message("m1"))
	m2 := message.New("")
	env.Bind("m2", m2)
	reset := func() {
		env.Host = ""
		m2.Name = ""
		m2.Fields = m2.Fields[:0]
	}
	reset()
	if err := compiled.Exec(env); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		reset()
		if err := compiled.Exec(env); err != nil {
			t.Fatal(err)
		}
	})
	if testutil.RaceEnabled {
		t.Skipf("race detector enabled; measured %.1f allocs/op unasserted", allocs)
	}
	// 2 photo fields + the photos parent and its child slices are rebuilt
	// each run; everything else (env scratch, args, iteration snapshot)
	// must be reused.
	if allocs > 10 {
		t.Fatalf("compiled Exec allocates %.1f/op, budget 10", allocs)
	}
}

// TestScalarGraftAllocBudget: a scalar copied into a message (`p.id =
// e.id`) costs the new field and nothing else — the value keeps the box it
// was read in.
func TestScalarGraftAllocBudget(t *testing.T) {
	for _, val := range []any{"photo-1", int64(7), uint64(7), 2.5, true, []byte("raw")} {
		allocs := testing.AllocsPerRun(200, func() { valueToField("id", val) })
		if testutil.RaceEnabled {
			t.Skipf("race detector enabled; measured %.1f allocs/op unasserted", allocs)
		}
		if allocs != 1 {
			t.Errorf("valueToField(%T) allocates %.1f/op, want 1", val, allocs)
		}
	}
}

// TestInterpretedVsCompiledAllocs documents (and guards) the headline
// claim: the compiled path allocates at least 30% less than the
// interpreter on a case-study-shaped program.
func TestInterpretedVsCompiledAllocs(t *testing.T) {
	src := `sethost("https://picasaweb.google.com")
	 foreach e in m1.Msg.Body.feed.entry {
	   cache(e.id, e)
	   m2.MethodResponse.photos.photo[] = e.id
	 }`
	prog := MustParse(src)
	compiled, err := Compile(prog, CompileOptions{Handles: fixtureHandles})
	if err != nil {
		t.Fatal(err)
	}
	fresh := fixtureEnv()
	m1 := fresh.Message("m1")

	interpreted := testing.AllocsPerRun(200, func() {
		env := NewEnv(&Cache{})
		env.Bind("m1", m1)
		env.Bind("m2", message.New(""))
		if err := prog.Exec(env); err != nil {
			t.Fatal(err)
		}
	})
	cache := &Cache{}
	env := NewEnv(cache)
	m2 := message.New("")
	compiledAllocs := testing.AllocsPerRun(200, func() {
		env.Reset()
		env.Cache = cache
		m2.Name = ""
		m2.Fields = m2.Fields[:0]
		env.Bind("m1", m1)
		env.Bind("m2", m2)
		if err := compiled.Exec(env); err != nil {
			t.Fatal(err)
		}
	})
	if testutil.RaceEnabled {
		t.Skipf("race detector enabled; interpreted %.1f vs compiled %.1f unasserted", interpreted, compiledAllocs)
	}
	if compiledAllocs > interpreted*0.7 {
		t.Fatalf("compiled path allocates %.1f/op vs interpreted %.1f/op; want >=30%% reduction",
			compiledAllocs, interpreted)
	}
}

// TestCompileReportsHandleSubset ensures only referenced handles are
// resolved per Exec (an engine automaton can have many states while each
// γ touches two or three).
func TestCompileReportsHandleSubset(t *testing.T) {
	compiled, err := Compile(MustParse(`m2.Msg.x = "1"`),
		CompileOptions{Handles: []string{"m1", "m2", "m3", "m4"}})
	if err != nil {
		t.Fatal(err)
	}
	if hs := compiled.Handles(); len(hs) != 1 || hs[0] != "m2" {
		t.Fatalf("Handles() = %v, want [m2]", hs)
	}
}

func TestCompiledForeachVarShadowRestore(t *testing.T) {
	diffExec(t, strings.TrimSpace(`
e = "outer"
foreach e in m1.Msg.Body.feed.entry {
  m2.Msg.ids[] = e.id
}
m2.Msg.restored = e`), nil)
}

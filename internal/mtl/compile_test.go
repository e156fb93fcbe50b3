package mtl

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strconv"
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

// diffExec holds the compiled form of src to the interpreter over the
// fixture; see diffRuns.
func diffExec(t *testing.T, src string, funcs map[string]Func) {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	diffRuns(t, prog, CompileOptions{Handles: fixtureHandles, Funcs: funcs}, fixtureEnv)
}

// diffRuns is the differential oracle of the compiled path, shared with
// FuzzCompile. It runs prog through the interpreter and through its
// compiled form, each twice on one Env of its own — the second run over
// fresh messages but with the variables, the cache and (compiled) the frame
// of the first — and fails on any observable difference after either run:
// outcome (the error's text and which sentinels it wraps), message trees,
// host retarget, variables. Then it looks at the
// first run's messages once more: a tree made of storage the frame handed
// out again in the second run would have changed under them. It returns the
// compiled form it held.
func diffRuns(t testing.TB, prog *Program, opts CompileOptions, fixture func() *Env) *CompiledProgram {
	t.Helper()
	src := prog.Source()
	compiled, err := Compile(prog, opts)
	if err != nil {
		t.Fatalf("program parsed but did not compile: %v\n%s", err, src)
	}
	envI, envC := fixture(), fixture()
	envI.Funcs, envC.Funcs = opts.Funcs, opts.Funcs
	same := func(when string) {
		t.Helper()
		for _, h := range opts.Handles {
			if !envI.Message(h).Equal(envC.Message(h)) {
				t.Fatalf("%s: message %q diverged:\n interpreted: %v\n compiled:    %v\nprogram:\n%s",
					when, h, envI.Message(h), envC.Message(h), src)
			}
		}
	}
	var firstI, firstC []*message.Message
	for _, run := range []string{"first run", "second run"} {
		if firstI != nil {
			freshI, freshC := fixture(), fixture()
			for _, h := range opts.Handles {
				envI.Bind(h, freshI.Message(h))
				envC.Bind(h, freshC.Message(h))
			}
		}
		errI, errC := interpret(prog, envI), compiled.Exec(envC)
		if (errI != nil) != (errC != nil) || (errI != nil && errI.Error() != errC.Error()) ||
			errors.Is(errI, ErrExec) != errors.Is(errC, ErrExec) || errors.Is(errI, ErrCacheMiss) != errors.Is(errC, ErrCacheMiss) {
			t.Fatalf("%s: outcome diverged:\n interpreted: %v\n compiled:    %v\nprogram:\n%s", run, errI, errC, src)
		}
		same(run)
		if envI.Host != envC.Host {
			t.Fatalf("%s: host diverged: %q vs %q\nprogram:\n%s", run, envI.Host, envC.Host, src)
		}
		for name := range envI.Vars {
			if _, ok := envC.Vars[name]; !ok {
				t.Fatalf("%s: var %q only set by interpreter\nprogram:\n%s", run, name, src)
			}
		}
		for name, vc := range envC.Vars {
			vi, ok := envI.Vars[name]
			if !ok {
				t.Fatalf("%s: var %q only set by compiled path\nprogram:\n%s", run, name, src)
			}
			if !sameValue(vi, vc) {
				t.Fatalf("%s: var %q diverged: %#v (%q) vs %#v (%q)\nprogram:\n%s",
					run, name, vi, ValueString(vi), vc, ValueString(vc), src)
			}
		}
		if firstI == nil {
			for _, h := range opts.Handles {
				firstI, firstC = append(firstI, envI.Message(h)), append(firstC, envC.Message(h))
			}
		}
	}
	for i, h := range opts.Handles {
		if !firstI[i].Equal(firstC[i]) {
			t.Fatalf("after the second run, message %q of the first diverged:\n interpreted: %v\n compiled:    %v\nprogram:\n%s",
				h, firstI[i], firstC[i], src)
		}
	}
	return compiled
}

// sameValue compares what two variables hold: trees by Equal — label, type
// and content, not their rendering — and scalars by type and value.
func sameValue(a, b any) bool {
	fa, isA := a.(*message.Field)
	fb, isB := b.(*message.Field)
	if isA || isB {
		return isA && isB && fa.Equal(fb)
	}
	return reflect.DeepEqual(a, b)
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
			err = interpret(prog, env)
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
	if hs := compiled.handles; len(hs) != 2 {
		t.Errorf("handles = %v, want m1 and m2", hs)
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
// e.id`) costs the new field and nothing else — the value lives in the
// node, whether it arrives as an evaluated value or as the leaf it was read
// from — and written over a field that exists it costs nothing. (Bytes that
// arrive in an `any` are the exception: the node holds them by a pointer.)
func TestScalarGraftAllocBudget(t *testing.T) {
	check := func(what string, want float64, run func()) {
		t.Helper()
		allocs := testing.AllocsPerRun(200, run)
		if testutil.RaceEnabled {
			t.Skipf("race detector enabled; measured %.1f allocs/op unasserted", allocs)
		}
		if allocs != want {
			t.Errorf("%s allocates %.1f/op, want %.0f", what, allocs, want)
		}
	}
	text := strings.Repeat("photo-", 4) // not a constant the compiler could box for nothing
	steps := []pathStep{{label: "id", index: -1}}
	appendStep := []pathStep{{label: "id", index: -1, append: true}}
	for _, val := range []any{text, int64(1) << 40, uint64(1) << 40, 2.5, true, []byte("raw")} {
		node := 1.0
		if _, ok := val.([]byte); ok {
			node = 2
		}
		check(fmt.Sprintf("valueToField(%T)", val), node, func() { valueToField("id", val) })

		// The compiled path: a new field, then the same field overwritten,
		// from the evaluated value and from a leaf that holds it.
		leaf := valueToField("src", val)
		for _, res := range []cres{{v: val}, {leaf: leaf}} {
			from := "a value"
			if res.leaf != nil {
				from, node = "a leaf", 1 // bytes move with their pointer
			}
			children := make([]*message.Field, 0, 1)
			check(fmt.Sprintf("a new field from %s (%T)", from, val), node, func() {
				children = children[:0]
				if err := csetSteps(&children, appendStep, res, "id", nil); err != nil {
					t.Fatal(err)
				}
			})
			check(fmt.Sprintf("an overwrite from %s (%T)", from, val), node-1, func() {
				if err := csetSteps(&children, steps, res, "id", nil); err != nil {
					t.Fatal(err)
				}
			})
			if got := children[0]; !got.Equal(valueToField("id", val)) {
				t.Errorf("%s (%T) wrote %v", from, val, got.Value())
			}
		}
	}
}

// searchReply is the reply γ of casestudy.SearchMediator (the package
// cannot be imported from here: it imports this one through the engine's
// models), over the fixture's handles: the Fig. 9 idiom, a struct built and
// grafted per entry.
const searchReply = `m2.Msg.photos = newarray("photos")
foreach e in m1.Msg.entry {
  p = newstruct("item")
  p.id = e.id
  p.title = e.title
  try p.owner = e.author
  m2.Msg.photos.item[] = p
}
m2.Msg.total = count(m1.Msg)`

// TestSearchGammaAllocBudget is the budget for that program over fifty
// entries of five children, in an Env reset between runs as the engine
// resets it between flows: the struct `p` built per entry, its leaves and
// the copy grafted are the store's nodes and child lists, handed out again
// after each Env.Reset, and the values move node to node. So are the photo
// list, newarray's node, whose child list it keeps, and the node count()
// reads the message through: nothing is left, where heap nodes for those
// two and the list's growth made it 9, and a heap copy per graft and the
// builder's nodes per variable 112.
func TestSearchGammaAllocBudget(t *testing.T) {
	compiled, err := Compile(MustParse(searchReply), CompileOptions{Handles: fixtureHandles})
	if err != nil {
		t.Fatal(err)
	}
	feed := message.New("search.reply")
	for i := 0; i < 50; i++ {
		n := strconv.Itoa(i)
		feed.Add(message.NewStruct("entry",
			message.NewString("id", "photo-"+n), message.NewString("title", "title "+n),
			message.NewString("summary", "summary "+n), message.NewString("author", "author "+n),
			message.NewString("src", "http://photos.example/"+n+".jpg")))
	}
	env := NewEnv(nil)
	env.Bind("m1", feed)
	m2 := message.New("")
	env.Bind("m2", m2)
	run := func() {
		env.Reset()
		env.Bind("m1", feed)
		env.Bind("m2", m2)
		m2.Name, m2.Fields = "", m2.Fields[:0]
		if err := compiled.Exec(env); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if photos, err := m2.Lookup("photos"); err != nil || len(photos.Children) != 50 ||
		photos.Children[49].Child("owner").ValueString() != "author 49" {
		t.Fatalf("the program built %v, %v", m2, err)
	}
	allocs := testing.AllocsPerRun(50, run)
	if testutil.RaceEnabled {
		t.Skipf("race detector enabled; measured %.1f allocs/op unasserted", allocs)
	}
	if allocs > 0 {
		t.Fatalf("the search γ allocates %.1f/op over fifty entries, budget 0", allocs)
	}
	t.Logf("the search γ over fifty entries: %.1f allocs/op", allocs)
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
		if err := interpret(prog, env); err != nil {
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
	if hs := compiled.handles; len(hs) != 1 || hs[0] != "m2" {
		t.Fatalf("handles = %v, want [m2]", hs)
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

// builderCases name, one by one, what the builder pass must decide: for
// each program, the variables whose tree may be made of the frame's nodes.
// They run against fuzzFixture, and the ones without functions of their own
// seed FuzzCompile.
var builderCases = []struct {
	name  string
	src   string
	funcs map[string]Func
	want  []string
}{
	{name: "the Fig. 9 idiom: built, filled, grafted, per entry", want: []string{"p"}, src: `
foreach e in m.M.list.item {
  p = newstruct("item")
  p.id = e.id
  try p.owner = e.nobody
  out.O.photos.item[] = p
}`},
	{name: "a self-graft copies: the tree never holds itself", want: []string{"p"}, src: `
p = newstruct("s")
p.x = "1"
p.s = p
p.s.x = "2"
out.O.s = p`},
	{name: "q = p gives the tree a second name, and q.x writes through it", want: nil, src: `
p = newstruct("s")
q = p
q.x = "1"
out.O.s = p`},
	{name: "cache(k, p) is a call argument", want: nil, src: `
p = newstruct("s")
p.x = "1"
cache("kk", p)
p.x = "2"
out.O.s = getcache("kk")`},
	{name: "a function of the deployment may keep what it is given", want: nil,
		funcs: map[string]Func{"stash": func(env *Env, args []any) (any, error) {
			env.Vars["held"] = args[0]
			return nil, nil
		}},
		src: `
p = newstruct("s")
p.x = "1"
stash(p)
p = newstruct("t")
p.y = "2"
out.O.kept = held`},
	{name: "a foreach over its children holds them while the body runs", want: nil, src: `
p = newstruct("s")
p.kids[] = "a"
p.kids[] = "b"
foreach c in p.kids {
  p = newstruct("t")
  out.O.k[] = c
}`},
	{name: "a longer path reads out of the tree", want: nil, src: `
p = newstruct("s")
p.x = "1"
x = p.x
out.O.x = x`},
	{name: "a label that is no literal", want: nil, src: `
foreach e in m.M.list.item {
  p = newstruct(e.v)
  p.id = e.id
  out.O.s[] = p
}`},
	{name: "newstruct is the deployment's function, not the builtin", want: nil,
		funcs: map[string]Func{"newstruct": func(*Env, []any) (any, error) {
			return message.NewStruct("theirs", message.NewString("made", "elsewhere")), nil
		}},
		src: `
p = newstruct("s")
p.x = "1"
out.O.s = p`},
	{name: "assigned once by a builder call and once otherwise", want: nil, src: `
p = newstruct("s")
p.x = "1"
out.O.s = p
p = b.Msg.tree
p.x = "written through"`},
	{name: "built inside a foreach and grafted after it", want: []string{"p"}, src: `
foreach e in m.M.list.item {
  p = newstruct("last")
  p.id = e.id
}
out.O.last = p`},
	{name: "grafted twice with an assignment between", want: []string{"p"}, src: `
p = newstruct("s")
p.x = "1"
out.O.one = p
p.x = "2"
p.y.z = "3"
out.O.two = p`},
	{name: "a statement fails half-way", want: []string{"p"}, src: `
p = newstruct("s")
p.x = "1"
out.O.s = p
p.x.y = "2"
out.O.never = p`},
	{name: "nested foreach with one builder each, one grafted into the other", want: []string{"i", "o"}, src: `
foreach e in m.M.list.item {
  o = newarray("outer")
  o.id = e.id
  foreach f in m.M.list.item {
    i = newstruct("inner")
    i.v = f.v
    o.inner[] = i
  }
  out.O.outer[] = o
}`},
	{name: "bound by an earlier program and used before it is assigned", want: []string{"p"}, src: `
try p.early = "1"
try out.O.before = p
p = newstruct("s")
p.x = "2"
out.O.s = p`},
	{name: "a tree grafted into it, then written under", want: []string{"p"}, src: `
p = newstruct("s")
p.tree = b.Msg.tree
p.tree.x = "mine"
p.tree.more.deep = b.Msg.y
p.fresh = newstruct("f")
p.fresh.x = 1
out.O.s = p
out.O.theirs = b.Msg.tree.x`},
	{name: "the whole message from it", want: []string{"p"}, src: `
p = newstruct("s")
p.x = "1"
out.O = p
p.x = "2"`},
}

// TestBuilderPass holds the pass to the table, and each program's compiled
// form to the interpreter, twice on one Env (diffRuns).
func TestBuilderPass(t *testing.T) {
	handleSet := map[string]bool{}
	for _, h := range fuzzHandles {
		handleSet[h] = true
	}
	for _, tc := range builderCases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for v := range (&compiler{funcs: tc.funcs}).builderVars(prog.stmts, handleSet) {
				got = append(got, v)
			}
			slices.Sort(got)
			if !slices.Equal(got, tc.want) {
				t.Errorf("builders %v, want %v", got, tc.want)
			}
			diffRuns(t, prog, CompileOptions{Handles: fuzzHandles, Funcs: tc.funcs}, fuzzFixture)
		})
	}
}

// TestBuilderWriteBackOwnsItsTree: when Exec returns, by an error too, what
// it leaves in Env.Vars stays as it is through the next Exec, which builds
// in nodes of the store's the first did not take: the store hands nothing
// out twice before Env.Reset.
func TestBuilderWriteBackOwnsItsTree(t *testing.T) {
	compiled, err := Compile(MustParse(`
p = newstruct("s")
p.x = b.Msg.tree.x
out.O.s = p
p.x.y = "fails: x is primitive"`), CompileOptions{Handles: fuzzHandles})
	if err != nil {
		t.Fatal(err)
	}
	env := fuzzFixture()
	if err := compiled.Exec(env); err == nil {
		t.Fatal("the program ran to its end")
	}
	left, _ := env.Vars["p"].(*message.Field)
	grafted, _ := env.Message("out").Lookup("s")
	want := message.NewStruct("s", message.NewString("x", "tx"))
	if !left.Equal(want) || !grafted.Equal(want) {
		t.Fatalf("left %v in Env.Vars and grafted %v, want %v", left, grafted, want)
	}
	b, _ := env.Message("b").Lookup("tree.x")
	b.SetText("second")
	env.Bind("out", message.New("O"))
	if err := compiled.Exec(env); err == nil {
		t.Fatal("the program ran to its end")
	}
	if !left.Equal(want) || !grafted.Equal(want) {
		t.Errorf("the second Exec changed what the first left (%v) or grafted (%v)", left, grafted)
	}
	if again, _ := env.Vars["p"].(*message.Field); again == left || again.Child("x").ValueString() != "second" {
		t.Errorf("the second Exec left %v", again)
	}
}

// TestBuilderReentrantExec: a function that runs the program again on its
// own Env finds the frame busy and gets one of its own, store included —
// the outer run's tree is not rebuilt under it.
func TestBuilderReentrantExec(t *testing.T) {
	var compiled *CompiledProgram
	depth := int64(0)
	funcs := map[string]Func{
		"depth": func(*Env, []any) (any, error) { return depth, nil },
		"again": func(env *Env, _ []any) (any, error) {
			if depth == 2 {
				return nil, nil
			}
			depth++
			defer func() { depth-- }()
			return nil, compiled.Exec(env)
		},
	}
	compiled, err := Compile(MustParse(`
p = newstruct("s")
p.depth = depth()
again()
out.O.s[] = p`), CompileOptions{Handles: fuzzHandles, Funcs: funcs})
	if err != nil {
		t.Fatal(err)
	}
	env := fuzzFixture()
	env.Funcs = funcs
	for run := 0; run < 2; run++ {
		out := message.New("O")
		env.Bind("out", out)
		if err := compiled.Exec(env); err != nil {
			t.Fatal(err)
		}
		want := message.New("O",
			message.NewStruct("s", message.NewInt64("depth", 2)),
			message.NewStruct("s", message.NewInt64("depth", 1)),
			message.NewStruct("s", message.NewInt64("depth", 0)))
		if !out.Equal(want) {
			t.Fatalf("run %d built %v, want %v", run, out, want)
		}
	}
}

// TestStoreDropsLargeStorage: the Env's store keeps its nodes from one
// Env.Reset to the next and hands the same ones out again; a flow that
// needs more than the store keeps takes the rest from the heap, and builds
// what it builds all the same. (message.TestStoreBoundsWhatItKeeps holds
// the store to its bound.)
func TestStoreDropsLargeStorage(t *testing.T) {
	compiled, err := Compile(MustParse(`
p = newstruct("s")
foreach e in m.M.list.item {
  p.id[] = e.id
}
out.O.s = p`), CompileOptions{Handles: fuzzHandles})
	if err != nil {
		t.Fatal(err)
	}
	env := fuzzFixture()
	msgs := maps.Clone(env.Messages)
	list, _ := env.Message("m").Lookup("list")
	exec := func() *message.Field {
		t.Helper()
		env.Reset()
		maps.Copy(env.Messages, msgs)
		env.Bind("out", message.New("O"))
		if err := compiled.Exec(env); err != nil {
			t.Fatal(err)
		}
		s, _ := env.Message("out").Lookup("s")
		if p := env.Vars["p"].(*message.Field); len(p.Children) != len(list.Children) || !s.Equal(p) {
			t.Fatalf("built %v and grafted %v, want %d children", p, s, len(list.Children))
		}
		return env.Vars["p"].(*message.Field)
	}
	if first := exec(); exec() != first {
		t.Fatal("a small flow's nodes are not kept and handed out again")
	}
	for len(list.Children) < 1000 {
		list.Add(message.NewStruct("item", message.NewString("id", "more")))
	}
	for run := 0; run < 2; run++ {
		exec()
	}
}

// TestResetPoisonsWhatItTakesBack: a tree γ built is valid until the Env is
// reset. Kept past Env.Reset under the race detector, it reads as poisoned,
// so `make race` runs every translation over storage a tree that outlives
// its flow would show up in.
func TestResetPoisonsWhatItTakesBack(t *testing.T) {
	defer func(was bool) { message.Poison = was }(message.Poison)
	message.Poison = true
	compiled, err := Compile(MustParse(`
p = newstruct("s")
p.x = b.Msg.tree.x
out.O.s = p`), CompileOptions{Handles: fuzzHandles})
	if err != nil {
		t.Fatal(err)
	}
	env := fuzzFixture()
	if err := compiled.Exec(env); err != nil {
		t.Fatal(err)
	}
	p := env.Vars["p"].(*message.Field)
	x := p.Child("x")
	if x == nil || x.Text() != "tx" {
		t.Fatalf("built %v", p)
	}
	env.Reset()
	for _, f := range []*message.Field{p, x} {
		if f.Label != message.Poisoned || f.Text() != message.Poisoned || len(f.Children) != 0 {
			t.Errorf("a node kept past Env.Reset reads %q = %q, want the poison", f.Label, f.Text())
		}
	}
}

// TestWholeAssignmentsOwnTheirLists: a whole-message assignment and the
// overwrite of a field by a tree hand the message a child list, so what
// they copy is the heap's, not the store's, whose lists the next flow
// appends into: both trees are whole after Env.Reset, poison and all.
func TestWholeAssignmentsOwnTheirLists(t *testing.T) {
	defer func(was bool) { message.Poison = was }(message.Poison)
	message.Poison = true
	compiled, err := Compile(MustParse(`
p = newstruct("s")
p.x = b.Msg.tree.x
a.Msg = p
b.Msg.tree = p`), CompileOptions{Handles: fuzzHandles})
	if err != nil {
		t.Fatal(err)
	}
	env := fuzzFixture()
	if err := compiled.Exec(env); err != nil {
		t.Fatal(err)
	}
	whole, over := env.Message("a"), env.Message("b")
	env.Reset()
	if want := message.New("Msg", message.NewString("x", "tx")); !whole.Equal(want) {
		t.Errorf("the message assigned whole reads %v after Env.Reset, want %v", whole, want)
	}
	want := message.New("Msg", message.NewInt64("y", 1), message.NewStruct("tree", message.NewString("x", "tx")))
	if !over.Equal(want) {
		t.Errorf("the field overwritten by a tree reads %v after Env.Reset, want %v", over, want)
	}
	// A fresh newstruct or newarray is a store node, which keeps its list
	// across Env.Reset: a field it overwrites takes a list of its own, or
	// two nodes would keep one list and append over each other in the
	// flows behind.
	compile := func(src string) *CompiledProgram {
		p, err := Compile(MustParse(src), CompileOptions{Handles: fuzzHandles})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	builders := compile(`
p = newstruct("p")
q = newstruct("q")
r = newarray("r")
q.x = "1"
r.y = "2"`)
	overwrite := compile(`
p = newstruct("p")
p.t = newstruct("a")
p.t = newarray("b")
p.t.x = "1"`)
	env = fuzzFixture()
	for _, prog := range []*CompiledProgram{builders, overwrite, builders} {
		env.Reset()
		if err := prog.Exec(env); err != nil {
			t.Fatal(err)
		}
	}
	if q := env.Vars["q"].(*message.Field); len(q.Children) != 1 || q.Children[0].Label != "x" {
		t.Errorf("q reads %v beside r %v", message.New("", q), message.New("", env.Vars["r"].(*message.Field)))
	}
}

// readOnlyCases name what ReadOnly must decide for the handle of each
// program, over fuzzFixture.
var readOnlyCases = []struct {
	name   string
	src    string
	funcs  map[string]Func
	handle string
	want   bool
}{
	{name: "the Fig. 9 idiom reads the reply and builds its own", handle: "m", want: true, src: `
out.O.photos = newarray("photos")
foreach e in m.M.list.item {
  p = newstruct("item")
  p.id = e.id
  try p.owner = e.nobody
  out.O.photos.item[] = p
}
out.O.total = count(m.M)`},
	{name: "the idiom's target is written", handle: "out", want: false, src: `
p = newstruct("item")
p.id = m.M.list.item.id
out.O.s = p`},
	{name: "a field of the handle is assigned", handle: "b", want: false, src: `b.Msg.y = 2`},
	{name: "a foreach variable is written under", handle: "m", want: false, src: `
foreach e in m.M.list.item {
  e.v = "w"
}`},
	{name: "a variable aliases a subtree and is written under", handle: "b", want: false, src: `
v = b.Msg.tree
v.x = "w"`},
	{name: "a function of the deployment may write its argument", handle: "b", want: false,
		funcs: map[string]Func{"touch": func(_ *Env, args []any) (any, error) {
			if f, ok := args[0].(*message.Field); ok && len(f.Children) > 0 {
				f.Children[0].SetText("touched")
			}
			return nil, nil
		}},
		src: `touch(b.Msg.tree)`},
	{name: "a builder written under before it is built holds what an earlier program left", handle: "b", want: false, src: `
try p.x = "w"
p = newstruct("s")
p.y = "1"
out.O.s = p`},
	{name: "a builder built in a foreach may not be built after it", handle: "b", want: false, src: `
foreach e in m.M.list.item {
  p = newstruct("s")
}
p.x = "w"`},
	{name: "a graft copies, so writing under it is writing a copy", handle: "b", want: true, src: `
p = newstruct("s")
p.t = b.Msg.tree
p.t.x = "mine"
out.O.s = p`},
	{name: "the session cache keeps a copy", handle: "b", want: true, src: `
cache("k2", b.Msg.tree)
out.O.c = getcache("k2")`},
	{name: "a whole message is copied into another", handle: "b", want: true, src: `out.O = b.Msg`},
}

// TestReadOnly holds ReadOnly to the table, and a program it calls read-only
// to its word: run twice on one Env whose variables already name subtrees of
// the handle, as an earlier program's could, it leaves the handle's message
// as it was.
func TestReadOnly(t *testing.T) {
	for _, tc := range readOnlyCases {
		t.Run(tc.name, func(t *testing.T) {
			compiled, err := Compile(MustParse(tc.src), CompileOptions{Handles: fuzzHandles, Funcs: tc.funcs})
			if err != nil {
				t.Fatal(err)
			}
			if got := compiled.ReadOnly(tc.handle); got != tc.want {
				t.Fatalf("ReadOnly(%q) = %v, want %v", tc.handle, got, tc.want)
			}
			env := fuzzFixture()
			env.Funcs = tc.funcs
			msg := env.Message(tc.handle)
			before := msg.Clone()
			for _, v := range []string{"p", "v", "e"} {
				if len(msg.Fields) > 0 {
					env.Vars[v] = msg.Fields[len(msg.Fields)-1]
				}
			}
			for i := 0; i < 2; i++ {
				_ = compiled.Exec(env)
			}
			if tc.want && !msg.Equal(before) {
				t.Errorf("a read-only program changed %s: %v, was %v", tc.handle, msg, before)
			}
		})
	}
}

// functionOfCases name what FunctionOf must decide for handle m of each
// program, over fuzzFixture.
var functionOfCases = []struct {
	name  string
	src   string
	funcs map[string]Func
	want  bool
}{
	{name: "the Fig. 9 idiom reads the reply and builds its own", want: true, src: `
out.O.photos = newarray("photos")
foreach e in m.M.list.item {
  p = newstruct("item")
  p.id = e.id
  try p.owner = e.nobody
  out.O.photos.item[] = p
}
out.O.total = count(m.M)`},
	{name: "a variable read after it is assigned", want: true, src: `
x = "none"
foreach e in m.M.list.item {
  x = e.id
}
out.O.x = x`},
	{name: "another message is read", want: false, src: `out.O.x = b.Msg.y`},
	{name: "a variable an earlier program left is read", want: false, src: `out.O.x = v`},
	{name: "a variable is read before the loop body assigns it", want: false, src: `
foreach e in m.M.list.item {
  out.O.i[] = x
  x = e.id
}`},
	{name: "a variable assigned under a try may not be", want: false, src: `
try x = m.M.nobody
out.O.x = x`},
	{name: "a foreach item is read after its loop", want: false, src: `
foreach e in m.M.list.item {
  out.O.n[] = e.id
}
out.O.last = e`},
	{name: "a variable an earlier program left is written under", want: false, src: `
v.x = m.M.list.item.id
out.O.v = v`},
	{name: "the session cache is read", want: false, src: `out.O.c = getcache("k")`},
	{name: "the session cache is written", want: false, src: `cache("k2", m.M.list)`},
	{name: "the host is set", want: false, src: `sethost(m.M.list.item.v)`},
	{name: "a function of the deployment is called", want: false,
		funcs: map[string]Func{"stamp": func(*Env, []any) (any, error) { return "s", nil }},
		src:   `out.O.s = stamp(m.M.list.item.id)`},
}

// TestFunctionOf holds FunctionOf to the table, and a program it calls a
// function of m to its word: run on two Envs that bind equal messages to m
// and differ in everything else an Env holds — the other messages, the
// variables an earlier program left, the session cache, the host — it
// writes the same message and ends the same way.
func TestFunctionOf(t *testing.T) {
	for _, tc := range functionOfCases {
		t.Run(tc.name, func(t *testing.T) {
			compiled, err := Compile(MustParse(tc.src), CompileOptions{Handles: fuzzHandles, Funcs: tc.funcs})
			if err != nil {
				t.Fatal(err)
			}
			if got := compiled.FunctionOf("m"); got != tc.want {
				t.Fatalf("FunctionOf(m) = %v, want %v", got, tc.want)
			}
			functionOfHolds(t, compiled, tc.funcs)
		})
	}
}

// functionOfHolds holds a program FunctionOf calls a function of m to its
// word: run on two Envs that bind equal messages to m and differ in
// everything else an Env holds — message b, the variables an earlier
// program left, the session cache, the host — it ends the same way and
// leaves the same messages at a, m and out.
func functionOfHolds(t *testing.T, prog *CompiledProgram, funcs map[string]Func) {
	t.Helper()
	if !prog.FunctionOf("m") {
		return
	}
	clean, used := fuzzFixture(), fuzzFixture()
	used.Bind("b", message.New("Msg", message.NewPrimitive("y", message.TypeInt64, 2)))
	for _, v := range []string{"x", "v", "e", "p"} {
		used.Vars[v] = "left"
	}
	used.Cache.Put("k", message.NewPrimitive("cached", message.TypeString, "other"))
	used.Host = "elsewhere"
	var errs [2]error
	for i, env := range []*Env{clean, used} {
		env.Funcs = funcs
		errs[i] = prog.Exec(env)
	}
	if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
		t.Fatalf("two runs over one m end differently: %v, then %v\n%s", errs[0], errs[1], prog.Source())
	}
	for _, h := range []string{"a", "m", "out"} {
		if !clean.Message(h).Equal(used.Message(h)) {
			t.Fatalf("two runs over one m wrote %s differently: %v, then %v\n%s", h, clean.Message(h), used.Message(h), prog.Source())
		}
	}
}

// TestReadWriteSets holds Reads and Writes to what each construct reads and
// writes, one row a construct: every handle's sets, exactly.
func TestReadWriteSets(t *testing.T) {
	type sets struct {
		reads  map[string][]Read
		writes map[string][]string
	}
	v, w := func(p string) Read { return Read{p, ReadValue} }, func(p string) Read { return Read{p, ReadWhole} }
	lbl, kids := func(p string) Read { return Read{p, ReadLabel} }, func(p string) Read { return Read{p, ReadChildren} }
	custom := map[string]Func{"touch": func(*Env, []any) (any, error) { return nil, nil }}
	cases := []struct {
		name  string
		src   string
		funcs map[string]Func
		want  sets
	}{
		{"a plain path is a value", `m5.Msg.q = m1.Msg.text`,
			nil, sets{map[string][]Read{"m1": {v("text")}}, map[string][]string{"m5": {"q"}}}},
		{"the message name and an index name no field", `m5.Msg.x[] = m4.SearchReply.entry[2].id`,
			nil, sets{map[string][]Read{"m4": {v("entry.id")}}, map[string][]string{"m5": {"x"}}}},
		{"a builtin's argument is a value", `sethost(concat(m1.Msg.host, "/", m4.Msg.entry.id))`,
			nil, sets{map[string][]Read{"m1": {v("host")}, "m4": {v("entry.id")}}, nil}},
		{"a foreach reads its source's labels and its item's paths", `
foreach e in m4.Msg.entry {
  p = newstruct("item")
  p.id = e.id
  try p.owner = e.author
  m5.Msg.photos.item[] = p
}`, nil, sets{map[string][]Read{"m4": {lbl("entry"), v("entry.author"), v("entry.id")}}, map[string][]string{"m5": {"photos.item"}}}},
		{"a nested foreach goes on from its item", `
foreach e in m4.Msg.entry {
  foreach a in e.author {
    m5.Msg.n[] = a.name
  }
}`, nil, sets{map[string][]Read{"m4": {lbl("entry"), lbl("entry.author"), v("entry.author.name")}}, map[string][]string{"m5": {"n"}}}},
		{"an inner foreach item shadows an outer one", `
foreach e in m4.Msg.entry {
  foreach e in x.list {
    m5.Msg.q = e.id
  }
}`, nil, sets{map[string][]Read{"m4": {lbl("entry")}}, map[string][]string{"m5": {"q"}}}},
		{"count reads a child list", `m5.Msg.total = count(m4.Msg)`,
			nil, sets{map[string][]Read{"m4": {kids("")}}, map[string][]string{"m5": {"total"}}}},
		{"label reads only the label", `m5.Msg.l = label(m4.Msg.entry)`,
			nil, sets{map[string][]Read{"m4": {lbl("entry")}}, map[string][]string{"m5": {"l"}}}},
		{"of two reads of a path the larger counts", `
m5.Msg.n = count(m4.Msg.entry)
m5.Msg.e = m4.Msg.entry`, nil, sets{map[string][]Read{"m4": {v("entry")}}, map[string][]string{"m5": {"e", "n"}}}},
		{"a whole-message assignment is whole", `m5.Msg = m4.Msg`,
			nil, sets{map[string][]Read{"m4": {w("")}}, map[string][]string{"m5": {""}}}},
		{"what cache stores is whole, its key a value", `
foreach e in m4.Msg.entry {
  cache(e.id, e)
}`, nil, sets{map[string][]Read{"m4": {w("entry"), v("entry.id")}}, nil}},
		{"child reads its tree whole", `m5.Msg.c = child(m4.Msg.entry, m1.Msg.which)`,
			nil, sets{map[string][]Read{"m1": {v("which")}, "m4": {w("entry")}}, map[string][]string{"m5": {"c"}}}},
		{"a function of the deployment reads its arguments whole", `touch(m4.Msg.entry.id)`,
			custom, sets{map[string][]Read{"m4": {w("entry.id")}}, nil}},
		{"a variable alias is whole, and reading through it reads nothing more", `
x = m4.Msg.entry
m5.Msg.t = x.title`, nil, sets{map[string][]Read{"m4": {w("entry")}}, map[string][]string{"m5": {"t"}}}},
		{"a foreach item bound to a variable is whole", `
foreach e in m4.Msg.entry {
  y = e
}`, nil, sets{map[string][]Read{"m4": {w("entry")}}, nil}},
		{"default returns an argument, read as its result is", `
m5.Msg.a = default(m4.Msg.a, "")
x = default(m4.Msg.b, "")`, nil, sets{map[string][]Read{"m4": {v("a"), w("b")}}, map[string][]string{"m5": {"a"}}}},
		{"a builder's tree is no message's", `
p = newstruct("a")
p.x = m4.Msg.y
m5.Msg.z = p`, nil, sets{map[string][]Read{"m4": {v("y")}}, map[string][]string{"m5": {"z"}}}},
		{"what getcache gives is no message's", `
c = getcache(m1.Msg.k)
m5.Msg.t = c.title`, nil, sets{map[string][]Read{"m1": {v("k")}}, map[string][]string{"m5": {"t"}}}},
		{"a write through a foreach item is the message's", `
foreach e in m4.Msg.entry {
  e.title = m1.Msg.t
}`, nil, sets{map[string][]Read{"m1": {v("t")}, "m4": {lbl("entry")}}, map[string][]string{"m4": {"entry.title"}}}},
	}
	handles := []string{"m1", "m4", "m5"}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := Compile(MustParse(tc.src), CompileOptions{Handles: handles, Funcs: tc.funcs})
			if err != nil {
				t.Fatal(err)
			}
			got := sets{map[string][]Read{}, map[string][]string{}}
			for _, h := range handles {
				if r := prog.Reads(h); len(r) > 0 {
					got.reads[h] = r
				}
				if w := prog.Writes(h); len(w) > 0 {
					got.writes[h] = w
				}
			}
			if tc.want.reads == nil {
				tc.want.reads = map[string][]Read{}
			}
			if tc.want.writes == nil {
				tc.want.writes = map[string][]string{}
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("reads %v, writes %v\nwant reads %v, writes %v", got.reads, got.writes, tc.want.reads, tc.want.writes)
			}
		})
	}
}

// TestWorkBound: a run of a program grafts and visits at most
// MaxExecNodes nodes, and ExecNodesPerInput more for each node of the
// messages bound when it starts (Env.spend). Sources of under 300 bytes
// that would run for hours without it — self-grafts doubling a message at
// each statement, and loops nested over the same list — fail fast with
// ErrWork wrapping ErrExec, the interpreter alike (diffRuns), and under a
// try they end too, for every graft or visit past the bound fails at once.
// The search γ counts 8 for each entry of six nodes — the entry visited,
// three leaves set and a four-node item appended — and two leaves: 402 for
// fifty entries, and past MaxExecNodes from 8 192 on, so twenty thousand
// run only under the bound their feed sets.
func TestWorkBound(t *testing.T) {
	doubling := strings.Repeat("x = out\nout.O.a[] = x\n", 40)
	nested := strings.Repeat("foreach e in m.M.list.item {\n", 40) + strings.Repeat("}\n", 40)
	for _, src := range []string{doubling, nested, "try " + strings.ReplaceAll(doubling, "\nout", "\ntry out")} {
		prog := MustParse(src)
		env := fuzzFixture()
		compiled := diffRuns(t, prog, CompileOptions{Handles: fuzzHandles}, fuzzFixture)
		err := compiled.Exec(env)
		if strings.HasPrefix(src, "try") {
			if err != nil || env.work <= env.maxWork {
				t.Errorf("%.40q…: %v after counting %d", src, err, env.work)
			}
			continue
		}
		if !errors.Is(err, ErrWork) || !errors.Is(err, ErrExec) {
			t.Errorf("%.40q…: err = %v, want ErrWork wrapping ErrExec", src, err)
		}
	}
	compiled, err := Compile(MustParse(searchReply), CompileOptions{Handles: fixtureHandles})
	if err != nil {
		t.Fatal(err)
	}
	for _, entries := range []int{50, 20000} {
		feed := message.New("search.reply")
		for i := 0; i < entries; i++ {
			feed.Add(message.NewStruct("entry", message.NewString("id", "p"), message.NewString("title", "t"),
				message.NewString("summary", "s"), message.NewString("author", "a"), message.NewString("src", "u")))
		}
		env := NewEnv(nil)
		env.Bind("m1", feed)
		env.Bind("m2", message.New(""))
		if err := compiled.Exec(env); err != nil || env.work != 8*entries+2 {
			t.Errorf("the search γ over %d entries: %v after counting %d, want %d", entries, err, env.work, 8*entries+2)
		}
	}
}

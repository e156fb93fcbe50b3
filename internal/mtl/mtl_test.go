package mtl

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"starlink/internal/message"
)

func envWith(t *testing.T, handles map[string]*message.Message) *Env {
	t.Helper()
	env := NewEnv(&Cache{})
	for h, m := range handles {
		env.Bind(h, m)
	}
	return env
}

func run(t *testing.T, src string, env *Env) {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := execDiff(t, p, env); err != nil {
		t.Fatalf("exec: %v", err)
	}
}

// execDiff is how the tests of this file execute a program: the way a
// deployment does — compiled against the handles env binds, run on env — after
// diffRuns has held that compiled form to the interpreter on copies of env as
// it stands. The error is the compiled path's.
func execDiff(t testing.TB, p *Program, env *Env) error {
	t.Helper()
	opts := CompileOptions{Funcs: env.Funcs}
	for h := range env.Messages {
		opts.Handles = append(opts.Handles, h)
	}
	slices.Sort(opts.Handles)
	before := cloneEnv(env)
	return diffRuns(t, p, opts, func() *Env { return cloneEnv(before) }).Exec(env)
}

// cloneEnv copies what a program can see or change of e: the messages, the
// variables and the session cache, a nil map or cache staying nil.
func cloneEnv(e *Env) *Env {
	c := &Env{Host: e.Host, Funcs: e.Funcs}
	if e.Messages != nil {
		c.Messages = make(map[string]*message.Message, len(e.Messages))
		for h, m := range e.Messages {
			c.Messages[h] = m.Clone()
		}
	}
	if e.Vars != nil {
		c.Vars = make(map[string]any, len(e.Vars))
		for name, v := range e.Vars {
			if f, ok := v.(*message.Field); ok {
				v = f.Clone()
			}
			c.Vars[name] = v
		}
	}
	if e.Cache != nil {
		c.Cache = &Cache{Limit: e.Cache.Limit}
		for en := e.Cache.oldest; en != nil; en = en.newer {
			c.Cache.Put(en.key, en.f)
		}
	}
	return c
}

func TestFig8ParameterCopy(t *testing.T) {
	// S22.SOAPRqst.X = S21.GIOPRqst.X — the Add/Plus binding of Fig. 8.
	giop := message.New("GIOPRequest",
		message.NewArray("ParameterArray",
			message.NewPrimitive("Parameter", message.TypeInt64, 20),
			message.NewPrimitive("Parameter", message.TypeInt64, 22),
		),
	)
	soap := message.New("SOAPRequest")
	env := envWith(t, map[string]*message.Message{"s21": giop, "s22": soap})
	run(t, `
s22.SOAPRequest.Body.Plus.x = s21.GIOPRequest.ParameterArray.Parameter[0]
s22.SOAPRequest.Body.Plus.y = s21.GIOPRequest.ParameterArray.Parameter[1]
`, env)
	x, err := soap.GetInt("Body.Plus.x")
	if err != nil {
		t.Fatal(err)
	}
	y, _ := soap.GetInt("Body.Plus.y")
	if x != 20 || y != 22 {
		t.Errorf("x, y = %d, %d", x, y)
	}
}

func TestSetHostAndLiterals(t *testing.T) {
	env := envWith(t, map[string]*message.Message{"s3": message.New("HTTPRequest")})
	run(t, `
sethost("https://picasaweb.google.com")
s3.HTTPRequest.Method = "GET"
s3.HTTPRequest.Query.max-results = 3
`, env)
	if env.Host != "https://picasaweb.google.com" {
		t.Errorf("Host = %q", env.Host)
	}
	m := env.Message("s3")
	if v, _ := m.GetString("Method"); v != "GET" {
		t.Errorf("Method = %q", v)
	}
	if v, _ := m.GetInt("Query.max-results"); v != 3 {
		t.Errorf("max-results = %v", v)
	}
}

func TestForeachCacheAndAppend(t *testing.T) {
	// Fig. 9: for every feed entry, cache it and append a photo id.
	feed := message.New("HTTPOK",
		message.NewStruct("Body",
			message.NewStruct("feed",
				message.NewStruct("entry",
					message.NewPrimitive("id", message.TypeString, "p1"),
					message.NewPrimitive("title", message.TypeString, "tree"),
				),
				message.NewStruct("entry",
					message.NewPrimitive("id", message.TypeString, "p2"),
					message.NewPrimitive("title", message.TypeString, "oak"),
				),
			),
		),
	)
	resp := message.New("MethodResponse")
	env := envWith(t, map[string]*message.Message{"s5": feed, "s6": resp})
	run(t, `
foreach e in s5.HTTPOK.Body.feed.entry {
  cache(e.id, e)
  s6.MethodResponse.photos.photo[] = e.id
}
`, env)
	ph, err := resp.Lookup("photos")
	if err != nil {
		t.Fatal(err)
	}
	if len(ph.Children) != 2 {
		t.Fatalf("photos = %d", len(ph.Children))
	}
	if v, _ := resp.GetString("photos.photo[1]"); v != "p2" {
		t.Errorf("photo[1] = %q", v)
	}
	if env.Cache.Len() != 2 {
		t.Errorf("cache size = %d", env.Cache.Len())
	}
	got, err := env.Cache.Get("p1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Child("title").ValueString() != "tree" {
		t.Errorf("cached entry title = %q", got.Child("title").ValueString())
	}
}

func TestFig10GetCacheMismatch(t *testing.T) {
	// Fig. 10: fill the Flickr <photo> reply from the cached Picasa entry.
	cache := &Cache{}
	cache.Put("p1", message.NewStruct("entry",
		message.NewPrimitive("title", message.TypeString, "tree"),
		message.NewStruct("content",
			message.NewPrimitive("@src", message.TypeString, "http://x/1.jpg"),
		),
	))
	call := message.New("MethodCall",
		message.NewStruct("params",
			message.NewStruct("param",
				message.NewStruct("value",
					message.NewPrimitive("string", message.TypeString, "p1"),
				),
			),
		),
	)
	resp := message.New("MethodResponse")
	env := NewEnv(cache)
	env.Bind("s8in", call)
	env.Bind("s8out", resp)
	run(t, `
entry = getcache(s8in.MethodCall.params.param.value.string)
s8out.MethodResponse.photo.title = entry.title
s8out.MethodResponse.photo.url = entry.content.@src
`, env)
	if v, _ := resp.GetString("photo.title"); v != "tree" {
		t.Errorf("title = %q", v)
	}
	if v, _ := resp.GetString("photo.url"); v != "http://x/1.jpg" {
		t.Errorf("url = %q", v)
	}
}

func TestGetCacheMiss(t *testing.T) {
	env := NewEnv(&Cache{})
	env.Bind("m", message.New("M"))
	err := execDiff(t, MustParse(`x = getcache("absent")`), env)
	if !errors.Is(err, ErrCacheMiss) {
		t.Errorf("err = %v, want ErrCacheMiss", err)
	}
}

func TestStructuredGraftAndRename(t *testing.T) {
	src := message.New("A",
		message.NewStruct("entry",
			message.NewPrimitive("id", message.TypeString, "p1"),
		),
	)
	dst := message.New("B")
	env := envWith(t, map[string]*message.Message{"a": src, "b": dst})
	run(t, `b.B.photo = a.A.entry`, env)
	f, err := dst.Lookup("photo")
	if err != nil {
		t.Fatal(err)
	}
	if f.Child("id").ValueString() != "p1" {
		t.Error("graft lost children")
	}
	// Mutating the destination must not affect the source (deep copy).
	f.Child("id").SetText("zzz")
	if v, _ := src.GetString("entry.id"); v != "p1" {
		t.Error("graft aliases source")
	}
}

func TestWholeMessageAssignment(t *testing.T) {
	src := message.New("A",
		message.NewPrimitive("x", message.TypeInt64, 1),
	)
	dst := message.New("B")
	env := envWith(t, map[string]*message.Message{"a": src, "b": dst})
	run(t, `b.B = a`, env)
	if v, _ := dst.GetInt("x"); v != 1 {
		t.Errorf("whole-message copy: x = %d", v)
	}
}

func TestMessageNameGuard(t *testing.T) {
	env := envWith(t, map[string]*message.Message{"a": message.New("A")})
	if err := execDiff(t, MustParse(`a.WRONG.x = 1`), env); !errors.Is(err, ErrExec) {
		t.Errorf("name mismatch err = %v", err)
	}
	// Unnamed messages adopt the path's name.
	env2 := envWith(t, map[string]*message.Message{"a": message.New("")})
	run(t, `a.Fresh.x = 1`, env2)
	if env2.Message("a").Name != "Fresh" {
		t.Errorf("adopted name = %q", env2.Message("a").Name)
	}
}

func TestLocalVariablesAndFunctions(t *testing.T) {
	m := message.New("M")
	env := envWith(t, map[string]*message.Message{"m": m})
	run(t, `
s = concat("a", "-", "b")
n = add(toint("40"), 2)
m.M.joined = s
m.M.answer = n
m.M.upper = upper(s)
m.M.rep = replace("x.y", ".", "/")
m.M.sub = substr("hello", 1, 3)
m.M.dflt = default("", "fallback")
m.M.enc = urlencode("a b&c")
m.M.dec = urldecode("a+b%26c")
`, env)
	checks := map[string]string{
		"joined": "a-b",
		"answer": "42",
		"upper":  "A-B",
		"rep":    "x/y",
		"sub":    "el",
		"dflt":   "fallback",
		"enc":    "a+b%26c",
		"dec":    "a b&c",
	}
	for path, want := range checks {
		if got, _ := m.GetString(path); got != want {
			t.Errorf("%s = %q, want %q", path, got, want)
		}
	}
}

func TestCountChildLabelNewstruct(t *testing.T) {
	feed := message.New("F",
		message.NewStruct("feed",
			message.NewStruct("entry", message.NewPrimitive("id", message.TypeString, "1")),
			message.NewStruct("entry", message.NewPrimitive("id", message.TypeString, "2")),
		),
	)
	out := message.New("O")
	env := envWith(t, map[string]*message.Message{"f": feed, "o": out})
	run(t, `
o.O.n = count(f.F.feed)
p = newstruct("photo")
o.O.wrap = p
o.O.first = child(child(f.F.feed, "entry"), "id")
o.O.lbl = label(f.F.feed)
`, env)
	if v, _ := out.GetInt("n"); v != 2 {
		t.Errorf("count = %d", v)
	}
	if v, _ := out.GetString("first"); v != "1" {
		t.Errorf("child = %q", v)
	}
	if v, _ := out.GetString("lbl"); v != "feed" {
		t.Errorf("label = %q", v)
	}
	if f, err := out.Lookup("wrap"); err != nil || f.Type.Primitive() {
		t.Errorf("newstruct wrap = %v, %v", f, err)
	}
}

func TestForeachWithIndexAndShadowing(t *testing.T) {
	m := message.New("M",
		message.NewStruct("list",
			message.NewPrimitive("v", message.TypeInt64, 10),
			message.NewPrimitive("v", message.TypeInt64, 20),
		),
	)
	out := message.New("O")
	env := envWith(t, map[string]*message.Message{"m": m, "o": out})
	env.Vars["e"] = "outer"
	run(t, `
foreach e in m.M.list.v[1] {
  o.O.only = e
}
o.O.after = e
`, env)
	if v, _ := out.GetInt("only"); v != 20 {
		t.Errorf("indexed foreach = %d", v)
	}
	if v, _ := out.GetString("after"); v != "outer" {
		t.Errorf("loop variable leaked: %q", v)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`a.b = `,
		`= 3`,
		`a.b.c`,
		`foreach x m.M.f { }`,
		`foreach x in m.M.f { a.b = 1`,
		`f(1,`,
		`a.b = "unterminated`,
		`a.b = $`,
		`a.b[x] = 1`,
		`a.b = c.d[]`,
		`123 = 4`,
	}
	for _, src := range bad {
		if _, err := Parse(src); !errors.Is(err, ErrParse) {
			t.Errorf("Parse(%q) err = %v, want ErrParse", src, err)
		}
	}
}

func TestExecErrors(t *testing.T) {
	env := envWith(t, map[string]*message.Message{"m": message.New("M")})
	cases := []string{
		`m.M.x = nosuch.P.y`,
		`m.M.x = unknownfn(1)`,
		`nosuchmsg.M.x = 1`,
		`m.M.x = toint("abc")`,
		`foreach e in nosuch.M.f { m.M.x = 1 }`,
		`m.M.x = count("notatree")`,
		`m.M.x = child(m, "missing")`,
		`m.M.x = substr("ab", 5, 9)`,
	}
	for _, src := range cases {
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if err := execDiff(t, p, envWith(t, map[string]*message.Message{"m": message.New("M")})); err == nil {
			t.Errorf("Exec(%q) succeeded, want error", src)
		}
	}
	_ = env
}

func TestAssignThroughPrimitiveFails(t *testing.T) {
	m := message.New("M", message.NewPrimitive("leaf", message.TypeString, "x"))
	env := envWith(t, map[string]*message.Message{"m": m})
	if err := execDiff(t, MustParse(`m.M.leaf.sub = 1`), env); !errors.Is(err, ErrExec) {
		t.Errorf("err = %v", err)
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	m := message.New("M")
	env := envWith(t, map[string]*message.Message{"m": m})
	run(t, "# leading comment\n\n  m.M.x = 1 # trailing\n# done\n", env)
	if v, _ := m.GetInt("x"); v != 1 {
		t.Errorf("x = %d", v)
	}
}

func TestNoSessionCache(t *testing.T) {
	env := &Env{Messages: map[string]*message.Message{"m": message.New("M")}, Vars: map[string]any{}}
	if err := execDiff(t, MustParse(`cache("k", "v")`), env); err == nil {
		t.Error("cache without session cache succeeded")
	}
	// The zero Env: Exec makes the maps it needs.
	zero := &Env{}
	if err := execDiff(t, MustParse(`x = concat("a", "b")`), zero); err != nil || zero.Vars["x"] != "ab" {
		t.Errorf("zero Env: x = %v, err = %v", zero.Vars["x"], err)
	}
}

func TestCustomFunctionShadowsBuiltin(t *testing.T) {
	m := message.New("M")
	env := envWith(t, map[string]*message.Message{"m": m})
	env.Funcs = map[string]Func{
		"concat": func(_ *Env, args []any) (any, error) { return "custom", nil },
	}
	run(t, `m.M.x = concat("a")`, env)
	if v, _ := m.GetString("x"); v != "custom" {
		t.Errorf("x = %q", v)
	}
}

func TestProgramAccessors(t *testing.T) {
	src := "m.M.x = 1\nm.M.y = 2"
	p := MustParse(src)
	if p.Len() != 2 || p.Source() != src {
		t.Errorf("Len=%d Source=%q", p.Len(), p.Source())
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic")
		}
	}()
	MustParse("= bad")
}

func TestNegativeNumberLiteral(t *testing.T) {
	m := message.New("M")
	env := envWith(t, map[string]*message.Message{"m": m})
	run(t, `m.M.x = -5
m.M.f = 2.5`, env)
	if v, _ := m.GetInt("x"); v != -5 {
		t.Errorf("x = %d", v)
	}
	if v, _ := m.Get("f"); v != 2.5 {
		t.Errorf("f = %v", v)
	}
}

func TestValueString(t *testing.T) {
	if ValueString(nil) != "" || ValueString("a") != "a" || ValueString([]byte("b")) != "b" {
		t.Error("ValueString scalar handling")
	}
	if ValueString(message.NewPrimitive("x", message.TypeInt64, 7)) != "7" {
		t.Error("ValueString field handling")
	}
	if !strings.Contains(ValueString(int64(42)), "42") {
		t.Error("ValueString int handling")
	}
}

func BenchmarkExecFig9Translation(b *testing.B) {
	prog := MustParse(`
sethost("https://picasaweb.google.com")
foreach e in s5.HTTPOK.Body.feed.entry {
  cache(e.id, e)
  s6.MethodResponse.photos.photo[] = e.id
}
`)
	feed := message.New("HTTPOK",
		message.NewStruct("Body",
			message.NewStruct("feed",
				message.NewStruct("entry", message.NewPrimitive("id", message.TypeString, "p1")),
				message.NewStruct("entry", message.NewPrimitive("id", message.TypeString, "p2")),
				message.NewStruct("entry", message.NewPrimitive("id", message.TypeString, "p3")),
			),
		),
	)
	fixture := func() *Env {
		env := NewEnv(&Cache{})
		env.Bind("s5", feed)
		env.Bind("s6", message.New("MethodResponse"))
		return env
	}
	p := diffRuns(b, prog, CompileOptions{Handles: []string{"s5", "s6"}}, fixture)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Exec(fixture()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	src := `
sethost("https://x")
a.M.p = b.N.q
foreach e in b.N.list.item { a.M.out.v[] = e }
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMsgWildcard(t *testing.T) {
	// The paper's Fig. 8 addresses messages as "S21.Msg.X".
	in := message.New("GIOPRequest", message.NewPrimitive("X", message.TypeInt64, 20))
	out := message.New("SOAPRequest")
	env := envWith(t, map[string]*message.Message{"s21": in, "s22": out})
	run(t, `s22.Msg.X = s21.Msg.X`, env)
	if v, _ := out.GetInt("X"); v != 20 {
		t.Errorf("X = %d", v)
	}
	if out.Name != "SOAPRequest" {
		t.Errorf("wildcard assignment renamed message to %q", out.Name)
	}
}

func TestTryStatement(t *testing.T) {
	m := message.New("M")
	env := envWith(t, map[string]*message.Message{"m": m, "src": message.New("S")})
	run(t, `
try m.M.a = src.S.absent
m.M.b = 1
try m.M.c = getcache("missing")
`, env)
	if m.Field("a") != nil {
		t.Error("failed try created field")
	}
	if v, _ := m.GetInt("b"); v != 1 {
		t.Error("try aborted program")
	}
}

func TestNewArray(t *testing.T) {
	m := message.New("M")
	env := envWith(t, map[string]*message.Message{"m": m})
	run(t, `
m.M.photos = newarray("x")
m.M.photos.item[] = "p1"
`, env)
	f, err := m.Lookup("photos")
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != message.TypeArray || len(f.Children) != 1 {
		t.Errorf("photos = %v (%d children)", f.Type, len(f.Children))
	}
}

func TestCacheEviction(t *testing.T) {
	c := &Cache{Limit: 3}
	for i := 0; i < 5; i++ {
		c.Put("k"+string(rune('0'+i)), message.NewPrimitive("v", message.TypeInt64, int64(i)))
	}
	if c.Len() != 3 {
		t.Errorf("len = %d, want 3", c.Len())
	}
	// Oldest two evicted.
	if _, err := c.Get("k0"); !errors.Is(err, ErrCacheMiss) {
		t.Errorf("k0 err = %v", err)
	}
	if _, err := c.Get("k1"); !errors.Is(err, ErrCacheMiss) {
		t.Errorf("k1 err = %v", err)
	}
	if v, err := c.Get("k4"); err != nil || v.ValueString() != "4" {
		t.Errorf("k4 = %v, %v", v, err)
	}
	// Overwriting does not duplicate order entries.
	c.Put("k4", message.NewPrimitive("v", message.TypeInt64, 99))
	if c.Len() != 3 {
		t.Errorf("len after overwrite = %d", c.Len())
	}
	if v, _ := c.Get("k4"); v.ValueString() != "99" {
		t.Errorf("overwritten k4 = %v", v)
	}
}

func TestTableFunc(t *testing.T) {
	fn := TableFunc(map[string]string{"a": "b"})
	v, err := fn(nil, []any{"a"})
	if err != nil || v != "b" {
		t.Errorf("TableFunc(a) = %v, %v", v, err)
	}
	if _, err := fn(nil, []any{"zz"}); err == nil {
		t.Error("unmapped key accepted")
	}
	if _, err := fn(nil, nil); err == nil {
		t.Error("wrong arity accepted")
	}
}

func TestMoreBuiltins(t *testing.T) {
	m := message.New("M")
	env := envWith(t, map[string]*message.Message{"m": m})
	run(t, `
m.M.s = tostring(7)
m.M.d = sub(10, 4)
m.M.p = mul(6, 7)
m.M.dflt2 = default("keep", "no")
m.M.low = lower("ABC")
m.M.tr = trim("  x  ")
`, env)
	for path, want := range map[string]string{
		"s": "7", "d": "6", "p": "42", "dflt2": "keep", "low": "abc", "tr": "x",
	} {
		if got, _ := m.GetString(path); got != want {
			t.Errorf("%s = %q, want %q", path, got, want)
		}
	}
}

func TestBuiltinArityErrors(t *testing.T) {
	for _, src := range []string{
		`x = tostring()`,
		`x = newstruct()`,
		`x = newarray("a", "b")`,
		`x = label()`,
		`x = urlencode()`,
		`x = urldecode("%zz")`,
		`x = default(1)`,
		`x = add(1)`,
		`x = sub("a", 1)`,
		`x = count()`,
		`x = child(1, 2, 3)`,
		`sethost()`,
		`cache("k")`,
		`x = getcache()`,
		`x = substr("a", 0)`,
		`x = replace("a", "b")`,
		`x = trim()`,
		`x = lower()`,
		`x = upper()`,
		`x = toint()`,
	} {
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if err := execDiff(t, p, NewEnv(&Cache{})); err == nil {
			t.Errorf("Exec(%q) succeeded", src)
		}
	}
}

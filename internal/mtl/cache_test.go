package mtl

import (
	"fmt"
	"slices"
	"strconv"
	"testing"

	"starlink/internal/message"
	"starlink/internal/testutil"
)

// TestCompiledCachePutAllocs: a compiled cache(e.id, e) that puts a key the
// session cache holds again, with a tree of the same shape, reads the key
// from the leaf it is in and copies the tree into the slab of the value it
// replaces, so it allocates nothing, where a heap copy of the tree (its
// nodes and its child lists) and the boxed key made it 3 a put.
func TestCompiledCachePutAllocs(t *testing.T) {
	compiled, err := Compile(MustParse(`foreach e in m1.Msg.Body.feed.entry { cache(e.id, e) }`), CompileOptions{Handles: fixtureHandles})
	if err != nil {
		t.Fatal(err)
	}
	env := fixtureEnv()
	run := func() {
		if err := compiled.Exec(env); err != nil {
			t.Fatal(err)
		}
	}
	run()
	allocs := testing.AllocsPerRun(100, run)
	if testutil.RaceEnabled {
		t.Skipf("race detector enabled; measured %.1f allocs per two puts unasserted", allocs)
	}
	if allocs != 0 {
		t.Errorf("two re-puts of same-shaped trees allocated %.1f times, want 0", allocs)
	}
	got, err := env.Cache.Get("p2")
	if err != nil || got.Label != "cached" || got.Child("title").Text() != "second" {
		t.Fatalf("p2 = %v, %v", got, err)
	}
}

// TestWorkCountsOnlyWhatChanged: the work bound counts a bound message when
// the first run after its Bind starts, and again only after a run that
// writes it or another Bind, so a run walks only the messages bound or
// written since the run before it.
func TestWorkCountsOnlyWhatChanged(t *testing.T) {
	compiled, err := Compile(MustParse(`out.O.n[] = b.Msg.y`), CompileOptions{Handles: fuzzHandles})
	if err != nil {
		t.Fatal(err)
	}
	env := fuzzFixture()
	bound := func() int {
		t.Helper()
		if err := compiled.Exec(env); err != nil {
			t.Fatal(err)
		}
		return (env.maxWork - MaxExecNodes) / ExecNodesPerInput
	}
	all := func() int {
		n := 0
		for _, m := range env.Messages {
			n += nodes(m.Fields)
		}
		return n
	}
	want := all()
	if got := bound(); got != want {
		t.Fatalf("first run counted %d nodes, want %d", got, want)
	}
	// The run wrote out: the next counts out's new node.
	want = all()
	if got := bound(); got != want {
		t.Errorf("the run after a write counted %d nodes, want %d", got, want)
	}
	// A message changed in place, not bound again, is counted as it was.
	m := env.Message("m")
	want = all()
	m.Add(message.NewString("more", "x"), message.NewString("more", "y"))
	if got := bound(); got != want {
		t.Errorf("after a change without Bind the run counted %d nodes, want %d as before", got, want)
	}
	env.Bind("m", m)
	want = all()
	if got := bound(); got != want {
		t.Errorf("after Bind the run counted %d nodes, want %d", got, want)
	}
	// A handle put in Messages without Bind has every message counted again.
	env.Messages["extra"] = message.New("X", message.NewString("a", "1"))
	want = all()
	if got := bound(); got != want {
		t.Errorf("after a handle added without Bind the run counted %d nodes, want %d", got, want)
	}
}

// BenchmarkSessionCacheRePut is fifty re-puts of five-field entries into a
// full session cache, of 64 and of 1 024 entries: a put costs the same
// whatever the cache holds.
func BenchmarkSessionCacheRePut(b *testing.B) {
	for _, size := range []int{64, 1024} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			c := &Cache{Limit: size}
			keys := make([]string, size)
			entry := message.NewStruct("entry", message.NewString("id", "p"), message.NewString("title", "t"),
				message.NewString("summary", "s"), message.NewString("author", "a"), message.NewString("src", "u"))
			for i := range keys {
				keys[i] = fmt.Sprintf("photo-%04d", i)
				c.Put(keys[i], entry)
			}
			next := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < 50; j++ {
					c.Put(keys[next], entry)
					next = (next + 1) % size
				}
			}
		})
	}
}

// FuzzSessionCache holds the session cache to its model, a map and the keys
// in write order: random puts, getcache loans to two Envs, gets and flow
// ends (an Env's Reset) under limits of 1 to 8 hit, miss and evict as the
// model does, and no tree a loan handed out changes before its Env is
// reset — also when its key is put again, or the tree itself is put, in
// the same flow.
func FuzzSessionCache(f *testing.F) {
	f.Add(uint8(0), []byte{0x00, 0x01, 0x01, 0x01, 0x00, 0x01, 0x03, 0x00, 0x00, 0x01})
	f.Add(uint8(0), []byte{0x00, 0x00, 0x01, 0x00, 0x00, 0x01}) // a lent entry evicted
	f.Add(uint8(1), []byte{0x00, 0x10, 0x00, 0x21, 0x81, 0x00, 0x05, 0x00, 0x00, 0x02, 0x83, 0x00, 0x00, 0x00})
	f.Add(uint8(3), []byte{0x00, 0x00, 0x00, 0x11, 0x00, 0x22, 0x00, 0x33, 0x01, 0x01, 0x04, 0x01, 0x00, 0x04, 0x02, 0x02, 0x03, 0x00})
	f.Add(uint8(7), []byte{0x01, 0x05, 0x00, 0x05, 0x81, 0x05, 0x04, 0x05, 0x84, 0x05, 0x83, 0x00, 0x00, 0x06})
	f.Fuzz(func(t *testing.T, limit uint8, ops []byte) {
		c := &Cache{Limit: int(limit%8) + 1}
		model := map[string]*message.Field{}
		var order []string
		envs := [2]*Env{NewEnv(c), NewEnv(c)}
		type held struct{ got, want *message.Field }
		var loans [2][]held
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			key := strconv.Itoa(int(arg % 12))
			env := int(op >> 7)
			switch op & 7 {
			case 0, 4: // put a tree of 1 to 4 leaves, or a tree a loan handed out
				val := message.NewStruct("v")
				for j := 0; j <= int(arg>>4)%4; j++ {
					val.Add(message.NewString("f"+strconv.Itoa(j), fmt.Sprintf("%d/%d", i, j)))
				}
				if op&4 != 0 && len(loans[env]) > 0 {
					val = loans[env][len(loans[env])-1].got
				}
				want := val.Clone()
				want.Label = "cached"
				c.put(key, val, "cached")
				if at := slices.Index(order, key); at >= 0 {
					order = slices.Delete(order, at, at+1)
				}
				order = append(order, key)
				model[key] = want
				for len(order) > c.Limit {
					delete(model, order[0])
					order = order[1:]
				}
			case 1, 5: // getcache
				got, err := c.lend(key, envs[env])
				if want := model[key]; (err == nil) != (want != nil) || err == nil && !got.Equal(want) {
					t.Fatalf("op %d: lend %q = %v, %v; model %v", i, key, got, err, want)
				}
				if err == nil {
					loans[env] = append(loans[env], held{got, got.Clone()})
				}
			case 2, 6:
				got, err := c.Get(key)
				if want := model[key]; (err == nil) != (want != nil) || err == nil && !got.Equal(want) {
					t.Fatalf("op %d: get %q = %v, %v; model %v", i, key, got, err, want)
				}
			default: // the flow ends
				envs[env].Reset()
				loans[env] = loans[env][:0]
			}
			var keys []string
			for e := c.oldest; e != nil; e = e.newer {
				keys = append(keys, e.key)
			}
			if !slices.Equal(keys, order) || c.Len() != len(order) {
				t.Fatalf("op %d: the cache holds %q (%d), the model %q", i, keys, c.Len(), order)
			}
			for _, l := range loans {
				for _, h := range l {
					if !h.got.Equal(h.want) {
						t.Fatalf("op %d: a lent tree changed before its flow ended: %v, was %v", i, h.got, h.want)
					}
				}
			}
		}
	})
}

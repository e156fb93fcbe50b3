package message

import (
	"reflect"
	"testing"

	"starlink/internal/testutil"
)

// TestStoreHandsOutWhatItTookBack: what a store hands out after Reset is
// what it handed out before, emptied: the same nodes, lists and messages,
// so a flow alike to the one before makes them without allocating. A run
// is cut to its length, so an append to it moves to the heap instead of
// running into the run carved after it; a node from Node keeps its child
// list, emptied.
func TestStoreHandsOutWhatItTookBack(t *testing.T) {
	var st Store
	raw := []byte("raw")
	flow := func() (*Field, []*Field, *Message, *Field) {
		nodes, links := st.Nodes(3), st.Links(3)
		for i := range nodes {
			nodes[i].Label = "n"
			nodes[i].SetText("v")
			links[i] = &nodes[i]
		}
		msg := st.Message("m")
		msg.Fields = links
		st.SetBytes(&nodes[2], raw)
		built := st.Node("b")
		built.Children = append(built.Children, &nodes[0], &nodes[1])
		return &nodes[0], links, msg, built
	}
	node, links, msg, built := flow()
	if cap(links) != 3 {
		t.Fatalf("a run of 3 links has capacity %d, want it cut to its length", cap(links))
	}
	grown := append(links, nil)
	if &grown[0] == &links[0] {
		t.Fatal("an append to a run of links ran into the store")
	}
	st.Reset()
	if node.Label != "" && node.Label != Poisoned {
		t.Fatalf("a node Reset took back reads %q", node.Label)
	}
	node2, links2, msg2, built2 := flow()
	if node2 != node || &links2[0] != &links[0] || msg2 != msg || built2 != built {
		t.Error("the store did not hand out again what it took back")
	}
	if msg2.Name != "m" || len(msg2.Fields) != 3 || msg2.Fields[2].Text() != "raw" || len(built2.Children) != 2 {
		t.Errorf("the second flow built %v and %v", msg2, built2)
	}
	allocs := testing.AllocsPerRun(100, func() {
		st.Reset()
		flow()
	})
	if testutil.RaceEnabled {
		t.Skipf("race detector enabled; measured %.1f allocs per flow unasserted", allocs)
	}
	if allocs != 0 {
		t.Errorf("a flow alike to the one before allocated %.0f times, want 0", allocs)
	}
}

// TestStoreBoundsWhatItKeeps: a store keeps at most maxChunks chunks of
// each kind, chunk i of first<<i elements or one run longer than that; a
// flow that needs more takes the rest from the heap, and the store stays at
// its bound. A run longer than the last chunk could hold is the heap's.
func TestStoreBoundsWhatItKeeps(t *testing.T) {
	var st Store
	held := func() (nodes, slab int) {
		for _, c := range st.nodes.list {
			nodes += len(c)
		}
		for _, c := range st.slab.list {
			slab += len(c)
		}
		return nodes, slab
	}
	for i := 0; i < 3; i++ {
		st.Node("")
	}
	st.Nodes(5)
	if nodes, slab := held(); nodes != firstNode || slab != firstSlab {
		t.Fatalf("a small flow left the store holding %d nodes and %d slab nodes", nodes, slab)
	}
	for run := 0; run < 2; run++ {
		st.Reset()
		for i := 0; i < 2000; i++ {
			st.Node("")
			st.Nodes(3)
		}
		if nodes, slab := held(); nodes != firstNode<<maxChunks-firstNode || slab != firstSlab<<maxChunks-firstSlab {
			t.Errorf("run %d: the store holds %d nodes and %d slab nodes, want its bounds %d and %d",
				run, nodes, slab, firstNode<<maxChunks-firstNode, firstSlab<<maxChunks-firstSlab)
		}
	}
	st.Reset()
	big := st.Nodes(firstSlab<<(maxChunks-1) + 1)
	if len(st.slab.list[0]) == len(big) || cap(big) != len(big) {
		t.Error("a run longer than the last chunk was carved from the store")
	}
}

// TestStoreHeld: Held counts the bytes of the chunks a store keeps and of
// the child lists its nodes keep, across Reset: a list a node grew in
// place of the one it kept counts instead of it, one past maxKeptChildren
// not at all, and one kept by a node no flow since took counts still.
func TestStoreHeld(t *testing.T) {
	var st Store
	if n := st.Held(); n != 0 {
		t.Fatalf("an empty store holds %d bytes", n)
	}
	st.Nodes(2)
	n := st.Node("")
	n.Children = make([]*Field, 0, 10)
	st.Node("").Children = make([]*Field, 0, 4)
	st.Reset()
	field, link := int(reflect.TypeFor[Field]().Size()), int(reflect.TypeFor[*Field]().Size())
	if want := firstSlab*field + firstNode*field + 14*link; st.Held() != want {
		t.Errorf("the store holds %d bytes, want %d", st.Held(), want)
	}
	st.Node("").Children = make([]*Field, 0, 20)
	st.Reset()
	if want := firstSlab*field + firstNode*field + 24*link; st.Held() != want {
		t.Errorf("after a list grew, the store holds %d bytes, want %d", st.Held(), want)
	}
	st.Node("").Children = make([]*Field, 0, maxKeptChildren+1)
	st.Reset()
	if want := firstSlab*field + firstNode*field + 4*link; st.Held() != want {
		t.Errorf("after a list grew past maxKeptChildren, the store holds %d bytes, want %d", st.Held(), want)
	}
}

// TestStoreResetPoisons: under the race detector (here set whatever the
// build) a node, a carved node and a message Reset took back read as
// poisoned until they are handed out again, so a tree kept past its flow
// reads as what it is; a carved list and a held byte slice are forgotten.
func TestStoreResetPoisons(t *testing.T) {
	defer func(was bool) { Poison = was }(Poison)
	Poison = true
	var st Store
	node, carved, msg := st.Node("a"), &st.Nodes(1)[0], st.Message("m")
	node.SetText("x")
	carved.Label = "c"
	st.SetBytes(carved, []byte("held"))
	links := st.Links(1)
	links[0] = node
	raw := carved.raw
	st.Reset()
	for _, f := range []*Field{node, carved} {
		if f.Label != Poisoned || f.Text() != Poisoned {
			t.Errorf("a node kept past Reset reads %q = %q, want the poison", f.Label, f.Text())
		}
	}
	if msg.Name != Poisoned || links[0] != nil || *raw != nil {
		t.Errorf("kept past Reset: message %q, list %v, bytes %q", msg.Name, links, *raw)
	}
	if again := &st.Nodes(1)[0]; again != carved || again.Label != "" || again.Text() != "" {
		t.Errorf("a carved node handed out again reads %q = %q", again.Label, again.Text())
	}
}

// TestNilStoreIsTheHeap: every method of a nil store works, and what it
// makes is the heap's, of exactly its size.
func TestNilStoreIsTheHeap(t *testing.T) {
	var st *Store
	nodes, links := st.Nodes(2), st.Links(2)
	msg := st.Message("m")
	f := st.Node("f")
	st.SetBytes(&nodes[0], []byte("b"))
	if len(nodes) != 2 || cap(nodes) != 2 || len(links) != 2 || cap(links) != 2 || msg.Name != "m" || f.Label != "f" || nodes[0].Text() != "b" {
		t.Errorf("a nil store made %v %v %v %v", nodes, links, msg, f)
	}
	tree := NewStruct("s", NewString("x", "1"))
	if cp := st.Clone(tree); cp == tree || !cp.Equal(tree) {
		t.Errorf("a nil store cloned %v into %v", tree, cp)
	}
}

// TestScratchIsReleasedEmpty: a scratch store comes back from Release
// reset, whatever it handed out, so the next build starts from its first
// chunk.
func TestScratchIsReleasedEmpty(t *testing.T) {
	st := Scratch()
	st.Nodes(4)
	st.Message("m")
	st.Release()
	if st.slab.at != 0 || st.slab.used != 0 || st.msgs.used != 0 {
		t.Errorf("a released scratch store is at chunk %d, %d used", st.slab.at, st.slab.used)
	}
}

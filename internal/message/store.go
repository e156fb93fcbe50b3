package message

import (
	"reflect"
	"sync"
)

// Store is where a flow makes its abstract messages: the messages and
// nodes the binders parse, and the nodes its γ programs build. It hands
// them out of chunks that double in size and stay the store's, and Reset
// takes every one back at once, so a session whose flows are alike makes
// its messages without allocating. What a store handed out is valid until
// its Reset, and must not be kept past it: what outlives a flow — a reply
// the response cache holds, what the session cache keeps — is the heap's.
// Under the race detector Reset leaves what it takes back poisoned, so a
// tree kept past it reads as what it is.
//
// A nil *Store is the heap: every method works, and makes what it is asked
// for with a new allocation of exactly its size.
//
// Two kinds of node come out of a store. Node hands out one node whose
// child list the node keeps across Reset, for a builder that appends into
// it flow after flow; nothing but that node may ever hold such a list.
// Nodes and Links carve runs of nodes and lists of exactly the asked
// length, for a parse that knows its sizes: a carved list is cut to its
// length, so an append to it moves it to the heap instead of running into
// what was carved next, and Reset forgets every carved list. A store keeps
// at most a bounded number of each; past that it is the heap, and what it
// hands out then is not taken back.
type Store struct {
	nodes chunks[Field]   // Node's: each keeps its child list
	slab  chunks[Field]   // Nodes'
	links chunks[*Field]  // Links'
	msgs  chunks[Message] // Message's
	bytes chunks[[]byte]  // SetBytes'
	kids  int             // the capacity of the child lists the nodes keep
}

// The chunk sizes of each kind: chunk i holds first<<i, or a run longer
// than that, and there are at most maxChunks of a kind.
const (
	// firstNode is small: a session that lives one flow makes its few γ
	// nodes in one allocation no larger than theirs on the heap. 3 + 6 +
	// … + 384 nodes, 80 bytes each: a flow that translates a fifty-entry
	// search (a struct of four built and a copy grafted per entry) takes
	// about 410 of them.
	firstNode = 3
	// A GIOP request parses into 14 nodes and a fifty-entry feed into
	// 250: up to 8 + … + 1024 nodes and lists, and the runs longer than
	// 1024 are the heap's.
	firstSlab = 8
	firstMsg  = 2
	maxChunks = 8
	// maxKeptChildren bounds the child list a node keeps across a reset.
	maxKeptChildren = 256
)

// chunks is one kind of a store's memory: chunk at is handed out from,
// used of it are.
type chunks[T any] struct {
	list     [][]T
	at, used int
}

// take returns n elements cut to their length, from the chunk handed out
// of while they fit, else from the next that is large enough, made when
// there is none; nil when the kind has its fill.
func (c *chunks[T]) take(n, first int) []T {
	if n > first<<(maxChunks-1) {
		return nil
	}
	for c.at < len(c.list) && c.used+n > len(c.list[c.at]) {
		c.at, c.used = c.at+1, 0
	}
	if c.at == len(c.list) {
		if c.at == maxChunks {
			return nil
		}
		c.list = append(c.list, make([]T, max(first<<c.at, n)))
	}
	s := c.list[c.at][c.used : c.used+n : c.used+n]
	c.used += n
	return s
}

// rewind passes each run handed out since the last rewind to f, whole
// chunks but the last, and hands out from the first chunk again.
func (c *chunks[T]) rewind(f func([]T)) {
	for i := 0; i < len(c.list) && i <= c.at; i++ {
		s := c.list[i]
		if i == c.at {
			s = s[:c.used]
		}
		f(s)
	}
	c.at, c.used = 0, 0
}

// held is how many bytes the chunks of the kind hold.
func (c *chunks[T]) held() int {
	n := 0
	for _, chunk := range c.list {
		n += len(chunk)
	}
	return n * int(reflect.TypeFor[T]().Size())
}

// Held is how many bytes of memory the store keeps across Reset: its
// chunks and the child lists its nodes keep.
func (s *Store) Held() int {
	return s.nodes.held() + s.slab.held() + s.links.held() + s.msgs.held() + s.bytes.held() +
		s.kids*int(reflect.TypeFor[*Field]().Size())
}

// Node returns an empty field labelled label, whose child list is the one
// it kept across the last Reset, emptied.
func (s *Store) Node(label string) *Field {
	if s == nil {
		return &Field{Label: label}
	}
	run := s.nodes.take(1, firstNode)
	if run == nil {
		return &Field{Label: label}
	}
	f := &run[0]
	s.kids -= cap(f.Children) // until Reset counts what it keeps
	*f = Field{Label: label, Children: f.Children[:0]}
	return f
}

// Nodes returns n empty fields, one run.
func (s *Store) Nodes(n int) []Field {
	if s != nil {
		if run := s.slab.take(n, firstSlab); run != nil {
			if Poison {
				clear(run)
			}
			return run
		}
	}
	return make([]Field, n)
}

// Links returns a list of n nil fields, cut to its length.
func (s *Store) Links(n int) []*Field {
	if s != nil {
		if run := s.links.take(n, firstSlab); run != nil {
			return run
		}
	}
	return make([]*Field, n)
}

// Message returns an empty message named name.
func (s *Store) Message(name string) *Message {
	if s != nil {
		if run := s.msgs.take(1, firstMsg); run != nil {
			run[0] = Message{Name: name}
			return &run[0]
		}
	}
	return &Message{Name: name}
}

// SetBytes makes f a TypeBytes field that aliases b, as f.SetBytes does,
// with the reference to b held in the store: valid until Reset, which
// forgets it.
func (s *Store) SetBytes(f *Field, b []byte) {
	if s == nil {
		f.SetBytes(b)
		return
	}
	run := s.bytes.take(1, firstMsg)
	if run == nil {
		f.SetBytes(b)
		return
	}
	run[0] = b
	f.Type, f.text, f.num, f.raw = TypeBytes, "", 0, &run[0]
}

// Clone copies f's tree into the store: what Field.Clone makes, in nodes
// of the store's that keep their child lists. A TypeBytes field, whose
// bytes a copy owns, is the heap's (Field.Clone), as is everything without
// a store.
func (s *Store) Clone(f *Field) *Field {
	if s == nil || f == nil || f.Type == TypeBytes {
		return f.Clone()
	}
	cp := s.Node("")
	kids := cp.Children
	*cp = *f
	cp.Children = nil
	if f.Children != nil {
		if kids == nil || cap(kids) < len(f.Children) {
			kids = make([]*Field, 0, len(f.Children))
		}
		for _, c := range f.Children {
			kids = append(kids, s.Clone(c))
		}
		cp.Children = kids
	}
	return cp
}

// Reset takes back everything the store handed out. Under the race
// detector each node and message is left poisoned until it is handed out
// again.
func (s *Store) Reset() {
	s.nodes.rewind(func(nodes []Field) {
		for j := range nodes {
			f := &nodes[j]
			clear(f.Children)
			kids := f.Children[:0]
			if cap(kids) > maxKeptChildren {
				kids = nil
			}
			s.kids += cap(kids)
			*f = Field{Children: kids}
			if Poison {
				f.Label = Poisoned
				f.SetText(Poisoned)
			}
		}
	})
	s.slab.rewind(func(nodes []Field) {
		clear(nodes)
		if Poison {
			for j := range nodes {
				nodes[j].Label = Poisoned
				nodes[j].SetText(Poisoned)
			}
		}
	})
	s.links.rewind(func(links []*Field) { clear(links) })
	s.bytes.rewind(func(bytes [][]byte) { clear(bytes) })
	s.msgs.rewind(func(msgs []Message) {
		clear(msgs)
		if Poison {
			for j := range msgs {
				msgs[j].Name = Poisoned
			}
		}
	})
}

// Poisoned is the label and the text of a node, and the name of a message,
// a Store took back, under the race detector.
const Poisoned = "message: used after its store was reset"

// scratch pools the stores a build makes its scaffold message in.
var scratch = sync.Pool{New: func() any { return new(Store) }}

// Scratch returns a store for a message that lives only while one packet
// is built; Release resets it and gives it back once the packet is done.
func Scratch() *Store { return scratch.Get().(*Store) }

// Release resets a store Scratch returned and gives it back to the pool.
func (s *Store) Release() {
	s.Reset()
	scratch.Put(s)
}

package rest

import "starlink/internal/message"

// The abstract form of an entry, which the binders exchange with MTL: a
// struct field labelled "entry" with a text child per entryLabels, id and
// title always, the others when they are not empty.

// entryLabels are the children of an abstract entry, in their order.
var entryLabels = [...]string{"id", "title", "summary", "author", "src", "type"}

// The index of each child in entryLabels.
const (
	cID = iota
	cTitle
	cSummary
	cAuthor
	cSrc
	cType
)

// Keep is a set of the children of an abstract entry: those a decode into
// fields makes. What it leaves out is skipped, not read: no string is made
// of it and no node.
type Keep uint8

// KeepAll holds every child.
const KeepAll Keep = 1<<len(entryLabels) - 1

// contentKeep are the children <content> is read for: src and type, its
// attributes, and the summary its text stands in for.
const contentKeep Keep = 1<<cSummary | 1<<cSrc | 1<<cType

// KeepLabel returns the Keep that holds the child labelled label, and none
// for a label an entry does not have.
func KeepLabel(label string) Keep {
	for i, l := range entryLabels {
		if l == label {
			return 1 << i
		}
	}
	return 0
}

func (k Keep) has(i int) bool { return k&(1<<i) != 0 }

// ParseFeedFields decodes an Atom feed document, read as ParseFeed reads
// it, straight into its entries' abstract fields, each with the children
// keep holds, made in st. It accepts and refuses what ParseFeed does.
func ParseFeedFields(st *message.Store, data []byte, keep Keep) ([]*message.Field, error) {
	t := tapes.Get().(*tape)
	defer t.release()
	if err := t.collect(data, "feed", keep, false); err != nil {
		return nil, err
	}
	return carve(st, t.entries, string(t.buf), keep), nil
}

// ParseEntryFields decodes a standalone entry document, read as ParseEntry
// reads it, straight into its abstract field, with the children keep
// holds, made in st. It accepts and refuses what ParseEntry does.
func ParseEntryFields(st *message.Store, data []byte, keep Keep) (*message.Field, error) {
	t := tapes.Get().(*tape)
	defer t.release()
	if err := t.collect(data, "entry", keep, false); err != nil {
		return nil, err
	}
	return carve(st, t.entries, string(t.buf), keep)[0], nil
}

// carve makes the fields of entries, with the children keep holds, out of
// one run of st's nodes and one of its lists, of exactly the size they
// need, as message.Field.Clone carves a copy; every node is on exactly one
// list, so the two are equally long. Their texts are pieces of text.
func carve(st *message.Store, entries []entryText, text string, keep Keep) []*message.Field {
	size := len(entries)
	for i := range entries {
		for c, v := range entries[i] {
			if keeps(keep, c, v) {
				size++
			}
		}
	}
	nodes, links := st.Nodes(size), st.Links(size)
	fields, links := links[:len(entries):len(entries)], links[len(entries):]
	for i := range entries {
		f := &nodes[0]
		nodes = nodes[1:]
		f.Label, f.Type = "entry", message.TypeStruct
		n := 0
		for c, v := range entries[i] {
			if keeps(keep, c, v) {
				child := &nodes[0]
				nodes = nodes[1:]
				child.Label = entryLabels[c]
				child.SetText(v.in(text))
				links[n] = child
				n++
			}
		}
		// The list is cut to its length: what is added to it later goes to
		// a list of its own, not over the one carved next.
		if n > 0 {
			f.Children, links = links[:n:n], links[n:]
		}
		fields[i] = f
	}
	return fields
}

// keeps reports whether an entry's field has child c, whose text is at v.
func keeps(keep Keep, c int, v span) bool {
	return keep.has(c) && (c <= cTitle || v.from < v.to)
}

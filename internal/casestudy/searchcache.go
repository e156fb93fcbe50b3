package casestudy

import "starlink/internal/automata"

// The read-only search mediator of the cross-flow response-cache
// experiment (EXPERIMENTS.md E16) and of the benchmark's search
// workloads: the search segment of the case study lifted into a
// standalone merged automaton, so one flow is exactly one cacheable
// service exchange. The full mediator interleaves reads with a write
// (addComment) inside a single linear traversal, which caps the
// service-exchange reduction a response cache can show; this isolates
// the read-mostly workload the cache targets.

// SearchMediator is the Flickr/Picasa search flow on its own: the
// XML-RPC flickr.photos.search request is translated to a Picasa REST
// query and the Atom-style feed shaped back into the Flickr photo list.
func SearchMediator() *automata.Merged {
	b := newMediator("Flickr-Search-to-Picasa-REST", 1, 2)

	req := b.msg(1, automata.Send, FlickrSearch)
	b.bicolor(1, 2)
	picReq := b.next()
	b.gamma(`
sethost("`+PicasaHost+`")
`+picReq+`.Msg.q = `+req+`.Msg.text
try `+picReq+`.Msg.max-results = `+req+`.Msg.per_page
`, 2)
	b.msg(2, automata.Send, PicasaSearch)
	feed := b.msg(2, automata.Receive, PicasaSearchReply)
	b.bicolor(1, 2)
	reply := b.next()
	b.gamma(`
`+reply+`.Msg.photos = newarray("photos")
foreach e in `+feed+`.Msg.entry {
  p = newstruct("item")
  p.id = e.id
  p.title = e.title
  try p.owner = e.author
  `+reply+`.Msg.photos.item[] = p
}
`+reply+`.Msg.total = count(`+feed+`.Msg)
`, 1)
	b.msg(1, automata.Receive, FlickrSearchReply)

	return b.finish(automata.StronglyMerged)
}

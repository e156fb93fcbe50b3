package casestudy

import "starlink/internal/automata"

// The two models of this package that are Go values and have no file
// under models/. The benchmark (bench/workloads.go) builds both inside
// the set-up it times, a cycle of 1.4–2.2 ms: parsing the search
// automaton from XML costs 103 µs where building it here costs 3.3 µs
// (`go test -bench`, PR 19), and a file added to models/ would be parsed
// by every LoadModels of every workload. Neither is a copy: no file holds
// them.

// SearchMediator is the Flickr/Picasa search flow on its own: the
// XML-RPC flickr.photos.search request is translated to a Picasa REST
// query and the Atom-style feed shaped back into the Flickr photo list.
// It is the search segment of the case study lifted into a standalone
// merged automaton, so one flow is exactly one cacheable service
// exchange — the read-mostly workload of the response-cache experiment
// (EXPERIMENTS.md E16) and of the benchmark's search workloads. The full
// mediator interleaves reads with a write (addComment) inside a single
// linear traversal, which caps the service-exchange reduction a response
// cache can show.
func SearchMediator() *automata.Merged {
	msg := func(from, to string, color int, act automata.Action, name string) automata.MergedTransition {
		return automata.MergedTransition{From: from, To: to, Kind: automata.KindMessage,
			Color: color, Action: act, Message: name}
	}
	return &automata.Merged{
		Name: "Flickr-Search-to-Picasa-REST", Color1: 1, Color2: 2,
		Start: "m0", Final: []string{"m6"}, Strength: automata.StronglyMerged,
		States: []automata.MergedState{
			{Name: "m0", Colors: []int{1}},
			{Name: "m1", Colors: []int{1, 2}},
			{Name: "m2", Colors: []int{2}},
			{Name: "m3", Colors: []int{2}},
			{Name: "m4", Colors: []int{1, 2}},
			{Name: "m5", Colors: []int{1}},
			{Name: "m6", Colors: []int{1}},
		},
		Transitions: []automata.MergedTransition{
			msg("m0", "m1", 1, automata.Send, FlickrSearch),
			{From: "m1", To: "m2", Kind: automata.KindGamma, MTL: `
sethost("` + PicasaHost + `")
m2.Msg.q = m1.Msg.text
try m2.Msg.max-results = m1.Msg.per_page
`},
			msg("m2", "m3", 2, automata.Send, PicasaSearch),
			msg("m3", "m4", 2, automata.Receive, PicasaSearchReply),
			{From: "m4", To: "m5", Kind: automata.KindGamma, MTL: `
m5.Msg.photos = newarray("photos")
foreach e in m4.Msg.entry {
  p = newstruct("item")
  p.id = e.id
  p.title = e.title
  try p.owner = e.author
  m5.Msg.photos.item[] = p
}
m5.Msg.total = count(m4.Msg)
`},
			msg("m5", "m6", 1, automata.Receive, FlickrSearchReply),
		},
	}
}

// AddPlusEquivalence maps the field labels of the Fig. 7/8 addition
// example (add-usage and plus-usage.automaton.xml).
func AddPlusEquivalence() *automata.Equivalence {
	return automata.NewEquivalence(
		[2]string{"z", "result"},
	)
}

// Package casestudy names the models of the paper's motivating scenario
// (Section 2) and evaluation (Section 5) for Go callers: the operation
// names of the Flickr and Picasa APIs as constants, and one function or
// variable per file under models/ that returns what the embedded file
// holds. The files are the source; nothing here rebuilds one in Go. The
// two values that are built by hand, and why, are in fixtures.go.
package casestudy

import (
	"starlink/internal/automata"
	"starlink/internal/mtl"
	"starlink/models"
)

// Abstract message names used by the Flickr API usage automaton. The
// ".reply" suffix distinguishes the received message of an invocation.
const (
	FlickrSearch        = "flickr.photos.search"
	FlickrSearchReply   = "flickr.photos.search.reply"
	FlickrGetInfo       = "flickr.photos.getInfo"
	FlickrGetInfoReply  = "flickr.photos.getInfo.reply"
	FlickrGetComments   = "flickr.photos.comments.getList"
	FlickrCommentsReply = "flickr.photos.comments.getList.reply"
	FlickrAddComment    = "flickr.photos.comments.addComment"
	FlickrAddReply      = "flickr.photos.comments.addComment.reply"
)

// Abstract message names used by the Picasa API usage automaton.
const (
	PicasaSearch        = "picasa.photos.search"
	PicasaSearchReply   = "picasa.photos.search.reply"
	PicasaGetComments   = "picasa.getComments"
	PicasaCommentsReply = "picasa.getComments.reply"
	PicasaAddComment    = "picasa.addComment"
	PicasaAddReply      = "picasa.addComment.reply"
)

// PicasaHost is the logical host the Fig. 9 SetHost translation targets;
// deployments map it to the real service address through the engine's
// HostMap.
const PicasaHost = "https://picasaweb.google.com"

// The model files as text, for callers that parse, edit or extend one
// (E9 rewrites a line of the route table; a test appends a directive to
// a deployment spec).
var (
	// PicasaRoutesDoc is the REST binding route table for the Picasa side
	// (the GET/POST syntax column of Fig. 1), in the bind package's route
	// DSL.
	PicasaRoutesDoc = read("picasa.routes")
	// EquivalenceDoc is the Flickr/Picasa semantic equivalence table (the
	// developer-provided ≅ relation).
	EquivalenceDoc = read("flickr-picasa.equiv")
	// DiscoveryTypeMapDoc is the UPnP-to-SLP vocabulary map.
	DiscoveryTypeMapDoc = read("upnp-to-slp.typemap")
	// GIOPMDLDoc and HTTPMDLDoc are the two MDL documents the GIOP codec
	// and the REST binder compile.
	GIOPMDLDoc = read("giop.mdl")
	HTTPMDLDoc = read("http.mdl")
	// XMLRPCMediatorSpecDoc, SOAPMediatorSpecDoc and
	// DiscoveryMediatorSpecDoc deploy the three case-study mediators, and
	// GatewaySpecDoc fronts the two HTTP ones behind one listener. Their
	// addresses are placeholders; tests and examples override them.
	XMLRPCMediatorSpecDoc    = read("flickr-xmlrpc.mediator")
	SOAPMediatorSpecDoc      = read("flickr-soap.mediator")
	DiscoveryMediatorSpecDoc = read("discovery.mediator")
	GatewaySpecDoc           = read("flickr.gateway")
)

// FlickrUsage returns A_Flickr (Fig. 2, restricted to the evaluation's
// search -> getInfo -> getComments -> addComment behaviour): the call
// graph a Flickr client follows.
func FlickrUsage() *automata.Automaton { return usage("flickr-usage.automaton.xml") }

// PicasaUsage returns A_Picasa (Fig. 2): search, list comments, add a
// comment — with the photo URL delivered directly in the search feed.
func PicasaUsage() *automata.Automaton { return usage("picasa-usage.automaton.xml") }

// AddUsage is the IIOP client's API usage automaton of the Fig. 7/8
// addition example: one Add invocation.
func AddUsage() *automata.Automaton { return usage("add-usage.automaton.xml") }

// PlusUsage is the SOAP service's API usage automaton: one Plus
// invocation with the same parameters under a different operation name —
// the Fig. 8 mismatch.
func PlusUsage() *automata.Automaton { return usage("plus-usage.automaton.xml") }

// Equivalence returns the semantic-equivalence table ≅ between Flickr and
// Picasa field labels (the developer-provided stand-in for an ontology).
func Equivalence() *automata.Equivalence {
	return automata.NewEquivalence(pairs(EquivalenceDoc)...)
}

// XMLRPCMediator returns the developer-constructed concrete merged
// automaton for the "Flickr XML-RPC client -> Picasa REST service" case
// (Figs. 3, 9 and 10 made executable). Color 1 is the Flickr side, color
// 2 the Picasa side.
func XMLRPCMediator() *automata.Merged {
	return merged("flickr-xmlrpc-to-picasa-rest.merged.xml")
}

// SOAPMediator returns the concrete merged automaton for the "Flickr SOAP
// client -> Picasa REST service" case. The application merge is the same
// as XMLRPCMediator; only the reply shaping differs because the SOAP
// Flickr API returns flat repeated parameters instead of nested structs —
// exactly the point of Section 4.4: one application model, two concrete
// bindings.
func SOAPMediator() *automata.Merged {
	return merged("flickr-soap-to-picasa-rest.merged.xml")
}

// ReverseMediator returns the merged automaton for the opposite direction
// of the case study: a Picasa REST client (color 1) served by the Flickr
// XML-RPC service (color 2). It demonstrates that the binding layer is
// symmetric — the REST binder acts as the *server* side here, matching
// incoming requests against the route table, while XML-RPC plays the
// client-role service side. Each Picasa operation intertwines one-to-one
// with a Flickr operation (Flickr's extra getInfo is simply never
// invoked — an extra-message mismatch in the other direction, resolved by
// omission).
func ReverseMediator() *automata.Merged { return merged("picasa-to-flickr.merged.xml") }

// DiscoveryMediator returns the merged automaton of the discovery case: a
// UPnP/SSDP client (color 1) multicasts M-SEARCH for
// "urn:schemas-upnp-org:service:Printer:1" while the only registry on the
// network is an SLP Directory Agent (color 2) advertising
// "service:printer:lpr". The heterogeneity is combined, exactly as in the
// photo case: different middleware (SSDP's HTTP-over-UDP vs SLP's binary
// format) AND different application vocabulary (UPnP URNs vs SLP service:
// types) — so a protocol-level discovery bridge alone cannot connect them.
func DiscoveryMediator() *automata.Merged { return merged("ssdp-to-slp.merged.xml") }

// DiscoveryFuncs returns the custom MTL functions the discovery mediator
// needs: maptype(), the vocabulary translation of upnp-to-slp.typemap — a
// developer-provided semantic table, like the field-equivalence tables.
func DiscoveryFuncs() map[string]mtl.Func {
	table := map[string]string{}
	for _, p := range pairs(DiscoveryTypeMapDoc) {
		table[p[0]] = p[1]
	}
	return map[string]mtl.Func{"maptype": mtl.TableFunc(table)}
}

// The files are compiled into the binary and a test loads every one of
// them (core.TestShippedModelsLoadAndBuild), so a file that is missing or
// does not parse is a bug: the helpers below panic instead of returning an
// error no caller could act on. Each call parses afresh, so no two callers
// share a value.

func read(file string) string { return string(contents(file)) }

func contents(file string) []byte {
	data, err := models.FS.ReadFile(file)
	if err != nil {
		panic(err)
	}
	return data
}

func usage(file string) *automata.Automaton {
	a, err := automata.UnmarshalAutomaton(contents(file))
	if err != nil {
		panic("casestudy: " + file + ": " + err.Error())
	}
	return a
}

func merged(file string) *automata.Merged {
	m, err := automata.UnmarshalMerged(contents(file))
	if err != nil {
		panic("casestudy: " + file + ": " + err.Error())
	}
	return m
}

func pairs(doc string) [][2]string {
	p, err := automata.ParsePairs(doc, "left = right")
	if err != nil {
		panic("casestudy: " + err.Error())
	}
	return p
}

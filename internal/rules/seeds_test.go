package rules

import (
	"slices"
	"strings"
	"testing"
)

// A seed edits one file of the module's tree into a violation, and names
// the rules that must refuse the tree then: every rule but those passes.
type seed struct {
	name string
	path string
	edit func(old string) string
	want []string
}

// file is an edit that writes src in place of what was there.
func file(src string) func(string) string { return func(string) string { return src } }

// appended is an edit that writes src after what was there.
func appended(src string) func(string) string { return func(old string) string { return old + src } }

// seeds holds at least one seed that one rule alone refuses for every
// rule, then the three things text matching gets wrong.
var seeds = []seed{
	{"a quoted test that does not exist", "EXPERIMENTS.md",
		appended("\n`engine.TestNoSuchExperiment` checks nothing.\n"), []string{"quoted-tests-exist"}},
	{"an experiment row that names no test", "DESIGN.md",
		func(old string) string {
			return strings.Replace(old, "`core.TestE9Evolution`", "the evolution test", 1)
		},
		[]string{"experiments-name-tests"}},
	{"a quote of the replaced harness", "docs/SEED.md",
		file("Regenerate the figures with `make " + "experiments`.\n"), []string{"replaced-harness-unquoted"}},
	{"a cited rule that is no row", "DESIGN.md",
		appended("\nThe tree holds (rule `no-such-rule`).\n"), []string{"rules-cited-exist"}},
	{"encoding/xml in a protocol layer", "internal/protocol/soap/seed.go",
		file("package soap\n\nimport _ \"encoding/xml\"\n"), []string{"no-encoding-xml-on-message-path"}},
	{"a model decoded by reflection", "internal/core/seed.go",
		file("package core\n\nimport \"encoding/xml\"\n\nvar _ = xml.Unmarshal(nil, nil)\n"), []string{"models-decode-with-reader"}},
	{"a query map in textenc", "internal/mdl/textenc/seed.go",
		file("package textenc\n\nimport \"net/url\"\n\nvar _ = url.Values{}\n"), []string{"no-query-map"}},
	{"a tree decode of SOAP", "internal/protocol/soap/seed.go",
		file("package soap\n\nimport \"starlink/internal/mdl/xmlenc\"\n\nvar _ = xmlenc.DecodeTree\n"), []string{"no-tree-decode"}},
	{"a Value map in a binder", "internal/bind/seed.go",
		file("package bind\n\nimport \"starlink/internal/protocol/xmlrpc\"\n\nvar _ = map[string]xmlrpc.Value{}\n"),
		[]string{"no-reshaping", "binder-decodes-xmlrpc-into-fields"}},
	{"a reshaping helper in a binder", "internal/bind/seed.go",
		file("package bind\n\nfunc fieldToValue() {}\n"), []string{"no-reshaping"}},
	{"a boxed scalar in a codec", "internal/mdl/binenc/seed.go",
		file("package binenc\n\nimport \"starlink/internal/message\"\n\nfunc seed(f *message.Field) any { return f.Value() }\n"),
		[]string{"no-boxed-scalars"}},
	{"a duration parsed outside spec.go", "internal/core/seed.go",
		file("package core\n\nimport \"time\"\n\nvar _, _ = time.ParseDuration(\"1s\")\n"), []string{"spec-values-in-spec-go"}},
	{"a word cut at = outside spec.go", "internal/core/seed.go",
		file("package core\n\nimport \"strings\"\n\nvar _, _, _ = strings.Cut(\"a=b\", \"=\")\n"), []string{"spec-values-in-spec-go"}},
	{"an accept loop in the gateway", "internal/gateway/seed.go",
		file("package gateway\n\nimport \"net\"\n\nfunc seed(l net.Listener) { l.Accept() }\n"), []string{"one-accept-loop"}},
	{"a read buffer of a command's own", "cmd/starlink/seed.go",
		file("package main\n\nimport (\n\t\"bufio\"\n\t\"os\"\n)\n\nvar _ = bufio.NewReader(os.Stdin)\n"),
		[]string{"pooled-read-buffers"}},
	{"an append form in the gateway", "internal/gateway/seed.go",
		file("package gateway\n\nimport \"starlink/internal/bind\"\n\nfunc seed(b bind.Binder) { b.AppendReply(nil, \"\", nil) }\n"),
		[]string{"engine-lends-packets"}},
	{"a second reply compose in the engine", "internal/engine/seed.go",
		file("package engine\n\nimport \"starlink/internal/bind\"\n\nfunc seed(b bind.Binder) { b.AppendReply(nil, \"\", nil) }\n"),
		[]string{"one-reply-compose"}},
	{"the response cache's tests import the engine", "internal/rcache/seed_test.go",
		file("package rcache\n\nimport _ \"starlink/internal/engine\"\n"), []string{"cache-imports-no-engine"}},
	{"the response cache copies a reply", "internal/rcache/seed.go",
		file("package rcache\n\nimport \"starlink/internal/message\"\n\nfunc seed(m *message.Message) *message.Message { return m.Clone() }\n"),
		[]string{"cache-copies-nothing"}},
	{"a lock in the flow step", "internal/engine/flow.go",
		file("package engine\n\nimport \"sync\"\n\nvar _ sync.Mutex\n"), []string{"steps-without-io"}},
	{"time in the flow step", "internal/engine/flow.go",
		file("package engine\n\nimport \"time\"\n\nvar _ time.Duration\n"), []string{"flow-without-time"}},
	{"a clock read in the link", "internal/engine/link.go",
		appended("\nvar _ = time.Now()\n"), []string{"steps-without-clock"}},
	{"a clock read in the session outside tick", "internal/engine/engine.go",
		appended("\nfunc (s *flowState) seed() time.Duration { return time.Since(s.flowT0) }\n"), []string{"session-clock-in-tick"}},
	{"a protocol field among the application fields", "internal/bind/seed.go",
		file("package bind\n\nvar _ = \"_giop_request_id\"\n"), []string{"request-id-is-header"}},
	{"a look for a \"_\" label", "internal/engine/seed.go",
		file("package engine\n\nimport (\n\t\"strings\"\n\n\t\"starlink/internal/message\"\n)\n\n" +
			"func seed(f *message.Field) bool { return strings.HasPrefix(f.Label, \"_\") }\n"),
		[]string{"request-id-is-header"}},
	{"an MTL interpreter outside the tests", "internal/mtl/seed.go",
		file("package mtl\n\ntype seedStmt struct{}\n\nfunc (seedStmt) exec(env *Env) error { return nil }\n"),
		[]string{"one-mtl-executor"}},
	{"a facade func no program uses", "starlink/seed.go",
		file("package starlink\n\nfunc Unused() {}\n"), []string{"facade-exports-used"}},
	{"Values in the XML-RPC binder", "internal/bind/seed.go",
		file("package bind\n\nimport \"starlink/internal/protocol/xmlrpc\"\n\nvar _ = xmlrpc.ParseCall\n"),
		[]string{"binder-decodes-xmlrpc-into-fields"}},
	{"Entry structs in the REST binder", "internal/bind/seed.go",
		file("package bind\n\nimport \"starlink/internal/protocol/rest\"\n\nvar _ = rest.ParseFeed\n"),
		[]string{"binder-decodes-atom-into-fields"}},
	{"a binder copies a field tree", "internal/bind/seed.go",
		file("package bind\n\nimport \"starlink/internal/message\"\n\nfunc seed(m *message.Message) *message.Message { return m.Clone() }\n"),
		[]string{"binder-copies-nothing"}},
	{"a transport written in core", "internal/core/seed.go",
		file("package core\n\nimport \"starlink/internal/network\"\n\nvar _ = network.Semantics{}\n"), []string{"transport-from-framer"}},
	{"a colour's transport written in the engine", "internal/engine/seed.go",
		file("package engine\n\nvar _ = struct{ Transport int }{Transport: 1}\n"), []string{"transport-from-framer"}},
	{"a codec in the gateway", "internal/gateway/seed.go",
		file("package gateway\n\nimport _ \"starlink/internal/protocol/giop\"\n"), []string{"gateway-sheds-with-binder"}},
	{"a node made outside a store", "internal/protocol/giop/seed.go",
		file("package giop\n\nimport \"starlink/internal/message\"\n\nvar _ = &message.Field{}\n"), []string{"nodes-from-store"}},
	{"an unsafe import", "internal/network/seed.go",
		file("package network\n\nimport _ \"unsafe\"\n"), []string{"no-unsafe"}},

	// What text matching got wrong: a name reached through an alias, a
	// selector split over a line, and a mention in a comment.
	{"a query map through an aliased import", "internal/bind/seed.go",
		file("package bind\n\nimport u \"net/url\"\n\nvar _ = u.Values{}\n"), []string{"no-query-map"}},
	{"a clock read split over a line", "internal/engine/flow.go",
		file("package engine\n\nimport \"time\"\n\nvar _ = time.\n\tNow()\n"), []string{"flow-without-time", "steps-without-clock"}},
	{"a clock read named in a comment", "internal/engine/link.go",
		appended("\n// The shell, not the link, calls time.Now().\n"), nil},
}

// TestSeedsAreRefused holds each rule to refusing its seeds, and no rule
// to refusing another's.
func TestSeedsAreRefused(t *testing.T) {
	tr := moduleTree(t)
	for _, r := range table {
		if !slices.ContainsFunc(seeds, func(s seed) bool { return slices.Equal(s.want, []string{r.name}) }) {
			t.Errorf("rule %s has no seed it alone refuses", r.name)
		}
	}
	for _, s := range seeds {
		seeded, err := tr.with(s.path, s.edit)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		var got []string
		for _, r := range table {
			if len(r.refusals(seeded)) > 0 {
				got = append(got, r.name)
			}
		}
		if !slices.Equal(got, s.want) {
			t.Errorf("%s (%s): refused by %q, want %q", s.name, s.path, got, s.want)
		}
	}
}

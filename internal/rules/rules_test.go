// Package rules holds the module to the design rules DESIGN.md states, as
// one table: each row names what it covers, what it refuses, the section
// of DESIGN.md it enforces and, as its message, the rule. It has no
// non-test code; `go test ./...` runs it.
package rules

import (
	"fmt"
	"go/ast"
	"path"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// A rule refuses uses of the Go files it covers, or lines of the text
// files it covers, or findings of a check over the whole tree.
type rule struct {
	name   string
	design string   // the DESIGN.md section it enforces
	paths  []string // files and directories it covers; none is the module
	except []string // files and directories taken out of paths
	tests  bool     // it covers _test.go files too

	refuse []string         // keys of the uses it refuses (see use)
	match  func(u use) bool // refuses a use whose key refuse does not hold
	inside []string         // functions a refused use is allowed in
	count  int              // if set, the covered files hold exactly this many refused uses
	text   []*regexp.Regexp // refuses a line of a covered file one of them matches
	check  func(tr *tree) []string

	msg string
}

// The experiments of DESIGN.md §4 that are tests; E8, E13 and E15 are
// benchmark rows.
var experimentTests = []int{1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 14, 16, 17, 18, 19}

// The packages and layers the message path runs through.
var (
	codecs    = []string{"internal/mdl", "internal/protocol", "internal/bind"}
	xmlLayers = []string{"internal/protocol/xmlrpc", "internal/protocol/rest", "internal/protocol/soap", "internal/bind"}
	carvers   = []string{"internal/bind", "internal/mdl/binenc", "internal/mdl/textenc", "internal/protocol/giop",
		"internal/protocol/soap", "internal/protocol/rest", "internal/protocol/xmlrpc", "internal/protocol/jsonrpc"}
	steps = []string{"internal/engine/flow.go", "internal/engine/link.go"}
)

const (
	message = "starlink/internal/message."
	xmlrpc  = "starlink/internal/protocol/xmlrpc."
	rest    = "starlink/internal/protocol/rest."
)

// table is the rules. It is filled by init, for rules-cited-exist reads it.
var table []rule

func init() {
	table = []rule{{
		name:   "quoted-tests-exist",
		design: "§4",
		check:  quotedTestsExist,
		msg:    "every Test or Fuzz name DESIGN.md and EXPERIMENTS.md quote in full is one a _test.go file declares, in the package the quote names if it names one",
	}, {
		name:   "experiments-name-tests",
		design: "§4",
		check:  experimentsNameTests,
		msg:    "the DESIGN.md §4 row of every experiment that is a test quotes at least one test, package and all",
	}, {
		name:   "replaced-harness-unquoted",
		design: "§4",
		except: []string{"CHANGES.md", "ROADMAP.md", "bench/README.md"},
		tests:  true,
		text: []*regexp.Regexp{regexp.MustCompile(`BENCH_[a-z]+\.json`), regexp.MustCompile(`Measure[A-Za-z]+Overhead`),
			regexp.MustCompile(`benchharness -[a-z]`), regexp.MustCompile(`cmd/bench[h]arness`),
			regexp.MustCompile(`make exp[e]riments`), regexp.MustCompile(`harness\.E[0-9]`)},
		msg: "nothing but the three files that record the removal quotes what bench/ and the package tests replaced: the old JSON baselines, overhead functions and flags, the experiment binary, its make target or one of its functions (bench/README.md)",
	}, {
		name:   "rules-cited-exist",
		design: "§4",
		check:  citedRulesExist,
		msg:    "a rule DESIGN.md, README.md or docs/ cite by name is a row of this table",
	}, {
		name:   "no-encoding-xml-on-message-path",
		design: "§17",
		paths:  codecs,
		refuse: []string{"import encoding/xml"},
		msg:    "encoding/xml is test-only under the MDL engines, the protocol layers and the binders, the oracle the xmlenc Reader and Writer are checked against; xmlenc has the Reader and the Writer",
	}, {
		name:   "models-decode-with-reader",
		design: "§17",
		paths:  []string{"internal/automata", "internal/core"},
		refuse: []string{"encoding/xml.NewDecoder", "encoding/xml.Unmarshal"},
		msg:    "a model is decoded with xmlenc.Reader straight into its structs, as UnmarshalAutomaton and UnmarshalMerged do; the reflection decode is the oracle of internal/automata/oracle_test.go",
	}, {
		name:   "no-query-map",
		design: `§17, "The text engine's plan"`,
		paths:  []string{"internal/mdl", "internal/bind"},
		refuse: []string{"net/url.Values", "net/url.ParseQuery"},
		msg:    "textenc reads a query and writes a target without url.Values or url.ParseQuery; the map is the oracle of internal/mdl/textenc/oracle_test.go only",
	}, {
		name:   "no-tree-decode",
		design: `§17, "The reader and its consumers"`,
		paths:  xmlLayers,
		refuse: []string{"starlink/internal/mdl/xmlenc.DecodeTree"},
		msg:    "XML-RPC, Atom and SOAP are decoded from the tokens of xmlenc.Reader; only their tests build a field tree with xmlenc.DecodeTree, as the oracle",
	}, {
		name:   "no-reshaping",
		design: `§17, "The field tree's memory shape"`,
		paths:  []string{"internal/bind"},
		refuse: []string{"fieldToValue", "abstractFromEntry", "map[string]" + xmlrpc + "Value{}"},
		msg:    "a binder writes XML-RPC from the fields (xmlrpc.AppendFieldCall and its like) and carves a reply's fields at once; the Value tree and per-entry fields between are internal/bind/oracle_test.go's",
	}, {
		name:   "no-boxed-scalars",
		design: `§17, "The field tree's memory shape"`,
		paths:  append(slices.Clone(codecs), "internal/mtl/compile.go"),
		refuse: []string{".Value()"},
		msg:    "the codecs, the protocol layers, the binders and compiled MTL read a field through Type and its typed accessors and move it with CopyScalar; Field.Value() boxes it, for tests, tools and mtl.fieldValue",
	}, {
		name:   "spec-values-in-spec-go",
		design: `§3, "From a spec to a mediator"`,
		paths:  []string{"internal/core"},
		except: []string{"internal/core/spec.go"},
		refuse: []string{"time.ParseDuration", "strconv.Atoi", "strconv.ParseFloat"},
		match:  func(u use) bool { return u.key == "strings.Cut" && callArg(u, 1, `"="`) },
		msg:    "a spec value is read in internal/core/spec.go alone: a directive is a row of mediatorDirectives or gatewayDirectives, an option an entry of its list, read by the value readers beside them",
	}, {
		name:   "knobs-lowered-once",
		design: `§3, "From a spec to a mediator"`,
		paths:  []string{"internal/core"},
		except: []string{"internal/core/spec.go"},
		refuse: []string{"starlink/internal/engine.Config{}", "starlink/internal/engine.RetryPolicy{}", "starlink/internal/engine.CachePolicy{}",
			"starlink/internal/backend.Options{}", "starlink/internal/discovery.Options{}", "starlink/internal/discovery.SSDPOptions{}",
			"starlink/internal/gateway.AdmissionPolicy{}", "starlink/internal/gateway.Config{}"},
		msg: "a tuning knob is declared once, in the option struct of the package that applies it: a spec type holds that struct, spec.go's rows fill it, and the rest of internal/core passes it on and writes no literal of engine.Config, RetryPolicy or CachePolicy, backend.Options, discovery.Options or SSDPOptions, gateway.AdmissionPolicy or gateway.Config",
	}, {
		name:   "one-accept-loop",
		design: "§9",
		paths:  []string{"internal", "cmd", "examples"},
		except: []string{"internal/network"},
		refuse: []string{".Accept()"},
		msg:    "internal/network runs the one accept loop: hand a listener to network.Serve, or Accept to network.AcceptLoop, which survive EMFILE and ECONNABORTED",
	}, {
		name:   "pooled-read-buffers",
		design: "§9",
		paths:  []string{"internal", "cmd", "examples", "starlink"},
		except: []string{"internal/network"},
		refuse: []string{"bufio.NewReader", "bufio.NewReaderSize"},
		msg:    "a connection's read buffer comes from internal/network's pool (network.NewStreamConn, NewPeekConn) and goes back on Close; nothing else makes a bufio.Reader",
	}, {
		name:   "engine-lends-packets",
		design: `§9, "Wire buffers"`,
		except: []string{"internal/engine", "internal/network", "internal/bind"},
		refuse: []string{".RecvAppend()", ".AppendRequest()", ".AppendReply()"},
		msg:    "only the engine lends a flow's packet buffers, so only it, the network layer and the binders call RecvAppend, AppendRequest and AppendReply; everything else calls Recv, BuildRequest or BuildReply, whose packet is the caller's",
	}, {
		name:   "one-reply-compose",
		design: "§13",
		paths:  []string{"internal/engine"},
		refuse: []string{".AppendReply()"},
		count:  1,
		msg:    "internal/engine composes a client reply in one place, the AppendReply of flowState.runFlow, which keeps what a hit rendered for the hits after it",
	}, {
		name:   "cache-imports-no-engine",
		design: "§13",
		paths:  []string{"internal/rcache"},
		tests:  true,
		refuse: []string{"import starlink/internal/engine", "import starlink/internal/mtl", "import starlink/internal/bind"},
		msg:    "the response cache stores replies and keeps the engine's rendering beside one without reading it: it imports none of engine, mtl and bind",
	}, {
		name:   "cache-copies-nothing",
		design: "§13",
		paths:  []string{"internal/rcache"},
		refuse: []string{".Clone()"},
		msg:    "the response cache stores and serves the reply it is given, read-only; the engine copies one where a γ program can write into it",
	}, {
		name:   "steps-without-io",
		design: `§8, "Step and shell"`,
		paths:  steps,
		refuse: []string{"import sync", "import sync/atomic", "import math/rand", "import math/rand/v2",
			"import starlink/internal/network", "import starlink/internal/network/pool", "import starlink/internal/rcache",
			"import starlink/internal/bind", "import starlink/internal/backend", "import starlink/internal/discovery"},
		msg: "flow.go and link.go decide without a lock, a random draw or I/O: they import no sync package, no math/rand, and none of network, network/pool, rcache, bind, backend or discovery; the session performs what they ask",
	}, {
		name:   "flow-without-time",
		design: `§8, "Step and shell"`,
		paths:  []string{"internal/engine/flow.go"},
		refuse: []string{"import time"},
		msg:    "flow.go walks the automaton without a clock: it does not import time",
	}, {
		name:   "steps-without-clock",
		design: `§8, "The link is a step too"`,
		paths:  steps,
		refuse: []string{"time.Now", "time.Since", "time.Until", "time.Sleep", "time.After", "time.AfterFunc"},
		msg:    "flow.go and link.go neither read the clock nor wait: the shell stamps each event with the budget left and performs the sleeps",
	}, {
		name:   "session-clock-in-tick",
		design: `§8, "Step and shell"`,
		paths:  []string{"internal/engine/engine.go"},
		refuse: []string{"time.Now", "time.Since"},
		inside: []string{"tick", "clock"},
		msg:    "engine.go reads the clock in flowState.tick and session.clock only; every other time a flow takes is read off the last tick (s.now), or a tick after a blocking action",
	}, {
		name:   "request-id-is-header",
		design: `§3, "Abstract messages"`,
		match: func(u use) bool {
			return strings.HasPrefix(u.key, `"_giop_`) || strings.HasPrefix(u.key, `"_jsonrpc_`) || strings.HasPrefix(u.key, `"_slp_`) ||
				(strings.HasSuffix(u.key, ".HasPrefix") || u.key == ".HasPrefix()") && callArg(u, 0, ".Label") && callArg(u, 1, `"_"`)
		},
		msg: "a request id is Message.ID, set by ParseRequest and read by AppendReply: no code looks for a \"_\" label or names a field that used to carry the id",
	}, {
		name:   "one-mtl-executor",
		design: "§12",
		paths:  []string{"internal/mtl"},
		match: func(u use) bool {
			d, ok := u.node.(*ast.FuncDecl)
			return ok && d.Recv != nil && (u.key == "func exec" || u.key == "func eval") && slices.ContainsFunc(d.Type.Params.List, func(p *ast.Field) bool {
				star, ok := p.Type.(*ast.StarExpr)
				return ok && fmt.Sprint(star.X) == "Env"
			})
		},
		msg: "MTL runs compiled: compiled forms take a *cframe (compile.go), and the interpreter over an *Env is the reference of internal/mtl/oracle_test.go",
	}, {
		name:   "facade-exports-used",
		design: "§3",
		check:  facadeExportsUsed,
		msg:    "every func, const and var package starlink exports is used under cmd/, examples/ or bench/, or documented by starlink/example_test.go; call the internal package from tests, or delete it",
	}, {
		name:   "binder-decodes-xmlrpc-into-fields",
		design: "§17",
		paths:  []string{"internal/bind"},
		refuse: []string{xmlrpc + "Value", xmlrpc + "ParseCall", xmlrpc + "ParseResponse"},
		msg:    "the XML-RPC binder reads a call or a response straight into the fields (xmlrpc.ParseCallFields, ParseResponseFields); the Value tree is the protocol's clients' and servers'",
	}, {
		name:   "binder-decodes-atom-into-fields",
		design: "§17",
		paths:  []string{"internal/bind"},
		refuse: []string{rest + "ParseFeed", rest + "ParseEntry", "fieldsFromEntries"},
		msg:    "the REST binder reads Atom straight into the fields (rest.ParseFeedFields, ParseEntryFields), a reply only into those its flow reads; the Entry structs are the protocol's clients' and servers'",
	}, {
		name:   "binder-copies-nothing",
		design: "§17",
		paths:  []string{"internal/bind"},
		refuse: []string{".Clone()"},
		msg:    "a binder relabels and does not copy: what a parse returns is freshly made and the binder's to give away, and the composer is lent shallow copies",
	}, {
		name:   "transport-from-framer",
		design: "§11",
		paths:  []string{"internal/engine", "internal/core"},
		refuse: []string{"starlink/internal/network.Semantics{}"},
		match:  func(u use) bool { return strings.HasSuffix(u.key, "Transport:") },
		msg:    "a colour travels as its binder frames it: its transport is network.SemanticsOf the binder's Framer(), and neither the engine nor internal/core writes one of its own",
	}, {
		name:   "gateway-sheds-with-binder",
		design: "§11",
		paths:  []string{"internal/gateway"},
		refuse: []string{"import starlink/internal/protocol/giop"},
		msg:    "a shed client gets the fault the route's binder builds (BuildErrorReply), so the gateway imports no protocol codec of its own",
	}, {
		name:   "nodes-from-store",
		design: `§12, "The flow's store"`,
		paths:  carvers,
		refuse: []string{"make([]" + message + "Field)", "new(" + message + "Field)", message + "Field{}", "[]" + message + "Field{}"},
		msg:    "the binders, the binary and text engines and the GIOP, SOAP, REST, XML-RPC and JSON-RPC layers carve every node from a message.Store: the flow's when parsing, message.Scratch() for a build's scaffold",
	}, {
		name:   "no-unsafe",
		design: "§12",
		refuse: []string{"import unsafe"},
		msg:    "no non-test file imports unsafe: a string a parse keeps is a copy, or a piece of one, never a view of a pooled or borrowed buffer",
	}}
}

// callArg reports whether the i-th argument of u's call is a string
// literal (quoted, as want) or a selector of want's name (".Label").
func callArg(u use, i int, want string) bool {
	call, ok := u.node.(*ast.CallExpr)
	if !ok || i >= len(call.Args) {
		return false
	}
	switch a := call.Args[i].(type) {
	case *ast.BasicLit:
		return a.Value == want
	case *ast.SelectorExpr:
		return "."+a.Sel.Name == want
	}
	return false
}

// covers reports whether the rule covers a file.
func (r *rule) covers(rel string) bool {
	under := func(dirs []string) bool {
		return slices.ContainsFunc(dirs, func(d string) bool { return rel == d || strings.HasPrefix(rel, d+"/") })
	}
	return (len(r.paths) == 0 || under(r.paths)) && !under(r.except) && (r.tests || !strings.HasSuffix(rel, "_test.go"))
}

// refusals is what the rule refuses in a tree, one finding a line.
func (r *rule) refusals(tr *tree) []string {
	if r.check != nil {
		return r.check(tr)
	}
	var found []string
	if r.text != nil {
		for rel, src := range tr.text {
			if !r.covers(rel) || !slices.Contains(tr.hits[rel], r.name) {
				continue
			}
			for i, line := range strings.Split(src, "\n") {
				if slices.ContainsFunc(r.text, func(re *regexp.Regexp) bool { return re.MatchString(line) }) {
					found = append(found, fmt.Sprintf("%s:%d: %s", rel, i+1, strings.TrimSpace(line)))
				}
			}
		}
		return found
	}
	for _, f := range tr.files {
		if !r.covers(f.path) {
			continue
		}
		for _, u := range f.uses {
			if (slices.Contains(r.refuse, u.key) || r.match != nil && r.match(u)) && !slices.Contains(r.inside, u.fn) {
				found = append(found, fmt.Sprintf("%s:%d: %s", f.path, u.line, u.key))
			}
		}
	}
	if r.count > 0 {
		if len(found) == r.count {
			return nil
		}
		return append(found, fmt.Sprintf("%d found, want %d", len(found), r.count))
	}
	return found
}

var quotedTest = regexp.MustCompile("`((?:[a-z]+\\.)?(?:Test|Fuzz)[A-Za-z0-9_]+)`")

// quotedTestsExist finds the test names the documents quote that no
// _test.go file declares. A name may be qualified by the base name of its
// package's directory.
func quotedTestsExist(tr *tree) []string {
	have := map[string]bool{}
	for _, f := range tr.files {
		for _, name := range f.tests {
			have[name] = true
			have[path.Base(path.Dir(f.path))+"."+name] = true
		}
	}
	var found []string
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md"} {
		for _, m := range quotedTest.FindAllStringSubmatch(tr.text[doc], -1) {
			if !have[m[1]] {
				found = append(found, fmt.Sprintf("%s quotes %s, which no _test.go file declares", doc, m[1]))
			}
		}
	}
	return found
}

var qualifiedTest = regexp.MustCompile("`[a-z]+\\.(?:Test|Fuzz)[A-Za-z0-9_]+`")

// experimentsNameTests finds the experiments of experimentTests whose
// DESIGN.md §4 row quotes no test with its package.
func experimentsNameTests(tr *tree) []string {
	var found []string
	for _, e := range experimentTests {
		row := fmt.Sprintf("| E%d |", e)
		if !slices.ContainsFunc(strings.Split(tr.text["DESIGN.md"], "\n"), func(line string) bool {
			return strings.HasPrefix(line, row) && qualifiedTest.MatchString(line)
		}) {
			found = append(found, fmt.Sprintf("DESIGN.md: the row of E%d names no test in full", e))
		}
	}
	return found
}

// facadeExportsUsed finds what package starlink exports that no program
// under cmd/, examples/ or bench/ and no example of it uses.
func facadeExportsUsed(tr *tree) []string {
	used := map[string]bool{}
	for _, f := range tr.files {
		if f.path == "starlink/example_test.go" || slices.Contains([]string{"cmd", "examples", "bench"}, strings.Split(f.path, "/")[0]) {
			for _, u := range f.uses {
				if name, ok := strings.CutPrefix(u.key, "starlink/starlink."); ok {
					used[name] = true
				}
			}
		}
	}
	var found []string
	for _, f := range tr.files {
		if path.Dir(f.path) != "starlink" {
			continue
		}
		for _, name := range f.exported {
			if !used[name] {
				found = append(found, fmt.Sprintf("%s: starlink.%s has no user", f.path, name))
			}
		}
	}
	return found
}

var citedRule = regexp.MustCompile("[Rr]ule `([a-z0-9-]+)`")

// citedRulesExist finds rule names the documents cite that are no row.
func citedRulesExist(tr *tree) []string {
	var found []string
	for rel, src := range tr.text {
		if rel != "DESIGN.md" && rel != "README.md" && !strings.HasPrefix(rel, "docs/") {
			continue
		}
		for _, m := range citedRule.FindAllStringSubmatch(src, -1) {
			if !slices.ContainsFunc(table, func(r rule) bool { return r.name == m[1] }) {
				found = append(found, fmt.Sprintf("%s cites rule %s, which is no row", rel, m[1]))
			}
		}
	}
	return found
}

// TestRules holds the module to every rule.
func TestRules(t *testing.T) {
	tr := moduleTree(t)
	for _, r := range table {
		if found := r.refusals(tr); len(found) > 0 {
			t.Errorf("rule %s (DESIGN.md %s): %s\n\t%s", r.name, r.design, r.msg, strings.Join(found, "\n\t"))
		}
	}
}

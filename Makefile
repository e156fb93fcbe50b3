GO ?= go

.PHONY: all build test check race race-alloc bench fuzz fmt

all: check

build:
	$(GO) build ./...

# Tier-1: everything must build and every test pass.
test: build
	$(GO) test ./...

# Race-enabled pass over the whole module, so a package with real
# concurrency cannot be left off a hand-kept list (internal/core's gateway
# reload, internal/protocol/* and starlink once were). The one exclusion
# is starlink/bench: its test asserts flows per 10 ms slice and fails on
# the race build's slowdown, not on a race.
race:
	$(GO) test -race $$($(GO) list ./... | grep -v '^starlink/bench$$')

# The allocation-budget tests under the race detector: AllocsPerRun is
# meaningless with -race instrumentation, so the numeric budgets skip
# themselves (internal/testutil.RaceEnabled), but the pooled buffers,
# recycled environments and in-place path walks they drive still run
# with full race checking — that is the point of this pass.
# Every alternative of the pattern must match a test of those packages, or
# a rename would leave this pass running nothing of it; `make check` says so.
RACE_ALLOC_RUN = AllocBudget|TestParsedRequestPoisonedPastItsFlow|TestOneFlowSessionReusesTheStore|TestStoreResetPoisons
RACE_ALLOC_PKGS = ./internal/message ./internal/mtl ./internal/mdl/... ./internal/network ./internal/protocol/... ./internal/bind ./internal/rcache ./internal/engine
race-alloc:
	$(GO) test -race -run '$(RACE_ALLOC_RUN)' $(RACE_ALLOC_PKGS)

# The full gate: tier-1, gofmt, vet, the race passes, then checks of its own. The
# engine's tests run fifty times in shuffled order, so a counter or trace
# published after the reply it belongs to shows up as a flake here and not
# in tier-1. The experiment index cannot cite a test that was renamed away:
# every Test or Fuzz name DESIGN.md and EXPERIMENTS.md quote in full must be
# one `go test -list` finds, in the package the quote names if it names one,
# as must every alternative of race-alloc's -run pattern among that pass's
# packages, and the DESIGN.md §4 row of every experiment of the suite must quote at
# least one, package and all. What bench/ and the package tests replaced
# must not be quoted again: no file outside the four that record the
# removal may name one of the old JSON baselines, functions or flags, the
# experiment binary, its make target or one of its functions.
# encoding/xml stays off the message path: under the MDL engines, the
# protocol layers and the binders only test files may import it, as the
# oracle the xmlenc Reader and Writer are checked against. So does the query
# map: textenc reads a query and writes a target itself, and under the MDL
# engines and the binders only test files may use url.Values or
# url.ParseQuery, as the oracle textenc is checked against. Models are read
# through the Reader too: no non-test file under internal/automata or
# internal/core calls xml.NewDecoder or xml.Unmarshal, for the automata
# decode their XML with xmlenc.Reader straight into their structs, and the
# reflection decode, which was most of a model load's time and
# allocations, lives on in internal/automata/oracle_test.go as the oracle
# the decoders are held to (EncodeXML still marshals with encoding/xml,
# whose bytes cmd/starlink's merge golden test holds). And the field
# tree stays out of the XML-RPC, Atom and SOAP decode: those packages and the
# binders read the Reader's tokens, and only their tests may build a tree
# with xmlenc.DecodeTree, as the oracle the token decoders are checked
# against. The other way it is the same rule: the binders write XML-RPC
# and carve a reply's fields straight from what they are given, and the
# Value tree and the per-entry fields they used to build in between live on
# in internal/bind/oracle_test.go only. And a scalar stays where it is: the
# codecs, the protocol layers, the binders and compiled MTL read a field
# through its typed accessors and move it node to node; Field.Value(), which
# boxes it into an `any`, is for tests, tools and the one place a scalar
# becomes an MTL function's argument (mtl.fieldValue).
# And a spec value is read in one place: outside spec.go nothing in
# internal/core parses a duration or a number or cuts a word at "=" — a new
# directive is a row of the tables there, a new option an entry of a row's
# list, read through the value readers beside them.
# And there is one of each: one accept loop (nothing outside internal/network
# calls a listener's Accept), one executor of MTL (no exec or eval over an
# *Env outside the tests of internal/mtl, where the reference interpreter
# lives), and a facade that exports what programs use (every func, const and
# var of package starlink is named under cmd/, examples/ or bench/, or
# documented by starlink/example_test.go). One more of that kind: a
# connection's read buffer comes from the pool internal/network keeps, and
# goes back when the connection closes, so nothing outside it makes a
# bufio.Reader of its own. Another: only the engine lends a flow's packet
# buffers, so only it, the network layer and the binders, where the
# lifetime rule of a borrowed packet is written, call the append forms
# RecvAppend, AppendRequest and AppendReply; everything else reads and
# builds packets of its own (DESIGN.md §9). And the response cache copies
# nothing: it stores the reply it is given and serves that one, read-only,
# and a flow whose γ programs can write into a reply copies it itself (the
# engine). Nor does it look into what the engine keeps beside a reply: the
# client reply a hit rendered, which later hits are sent as it is, is a value
# of the engine's on the entry, so internal/rcache imports none of engine,
# mtl and bind; and a client reply is composed in one place, for
# internal/engine's non-test code calls AppendReply once (DESIGN.md §13).
# And a request id is a header, not a field: a binder keeps the
# GIOP RequestID, the JSON-RPC id or the SLP XID in Message.ID, so an
# abstract message holds application data only and no code outside the
# tests looks for a "_" label or names one of the fields that used to
# carry the id. And the engine's steps stand alone: internal/engine/flow.go
# walks the automaton and internal/engine/link.go decides a service
# exchange without a clock, a lock, a random draw or a socket, so their
# imports name no sync package, no math/rand and none of network,
# network/pool, rcache, bind, backend or discovery, flow.go's no time
# package either, and neither calls time.Now, Since, Until, Sleep or After:
# link.go holds only the time.Duration values the shell hands it, so it
# decides alike for alike events, which is what lets TestLinkMatchesModel
# hold it to its model without a socket. The session, the shell around
# both, does the I/O and reads the clock.
# And a binder decodes into fields, once: no code of internal/bind but its
# tests names xmlrpc.Value, xmlrpc.ParseCall or xmlrpc.ParseResponse, for
# the XML-RPC binder reads a call or a response straight into the abstract
# fields (xmlrpc.ParseCallFields, ParseResponseFields) and the Value tree is
# the protocol's clients' and servers'. The REST binder decodes Atom into
# fields, once, too: no code of internal/bind but its tests names
# rest.ParseFeed, rest.ParseEntry or the fieldsFromEntries mapping, for a
# reply and a ParseRequest body entry are read straight into the abstract
# fields (rest.ParseFeedFields, ParseEntryFields), and a reply only into
# the ones its flow reads (bind.Projector); the Entry structs are the
# protocol's clients' and servers'. And a binder relabels; it does not
# copy: no code of internal/bind but its tests calls .Clone(), for what a
# parse returns is freshly made and the binder's to give away, so it names
# the parameters it parsed where they stand and lends the composer shallow
# copies (DESIGN.md §17).
# And a colour travels the way its binder frames it: its transport is
# network.SemanticsOf the binder's Framer(), so neither the engine nor
# internal/core writes a network.Semantics or a Transport: of its own, and
# a shed client gets the fault the route's binder builds (BuildErrorReply),
# so the gateway imports no protocol codec of its own.
# And a flow's messages are made in its store: the binders, the binary and
# text engines and the GIOP, SOAP, REST, XML-RPC and JSON-RPC layers carve
# every node they parse or build a scaffold from out of a message.Store —
# the session's, whose Reset takes the flow's messages back whole, or a
# scratch one a build gives back before it returns — so no non-test file
# there makes a []message.Field, new(message.Field) or &message.Field{ of
# its own: the one heap fallback is the store's (a nil *Store), in
# internal/message, and a node made beside it would be an allocation per
# flow the store exists to save (DESIGN.md §12, "The flow's store").
# And the session reads the clock in two places: internal/engine/engine.go
# calls time.Now or time.Since only in session.tick, once per step of a
# flow and once per blocking action of a link, and in session.clock, which
# stamps a stage only while a trace hook is set; every other time a flow
# takes — the budget left on a link event, a request's send time, a round
# trip, a deadline — is read off the last tick. A read per machine event
# was ten an exchange at 46–94 ns each (DESIGN.md §8, "Step and shell").
# And text is a string's: no non-test Go file imports unsafe, so every
# string a parse keeps is immutable memory of its own or a piece of one —
# an Atom decode's one string of what it kept (DESIGN.md §12) — and never a
# view of a pooled buffer or of a borrowed packet, which the next flow
# writes over.
# Last, the shipped models pass `starlink check`: every file under models/
# is the source of a mediator, written by hand, so each one loads and every
# deployment spec builds the way `starlink run` and `starlink gateway` build
# it. (The one derived file is held to what `starlink merge` makes of the
# three it derives from by cmd/starlink's TestMergeCommand, in tier-1.)
check: test
	@if [ -n "$$(gofmt -l .)" ]; then gofmt -l .; echo 'check: the files above are not gofmt-formatted; run make fmt'; exit 1; fi
	$(GO) vet ./...
	$(MAKE) race
	$(MAKE) race-alloc
	$(GO) test -count=50 -shuffle=on -timeout 30m ./internal/engine
	@have=$$($(GO) test -list '^(Test|Fuzz)' ./... | \
		awk '/^(Test|Fuzz)/ { names[++n] = $$1 } /^ok/ { k = split($$2, p, "/"); for (i = 1; i <= n; i++) { print names[i]; print p[k] "." names[i] }; n = 0 }'); \
	bad=0; \
	for name in $$(grep -ohE '`([a-z]+\.)?(Test|Fuzz)[A-Za-z0-9_]+`' DESIGN.md EXPERIMENTS.md | tr -d '`' | sort -u); do \
		echo "$$have" | grep -qxF "$$name" || { echo "check: DESIGN.md or EXPERIMENTS.md quotes $$name, which go test -list does not find"; bad=1; }; \
	done; \
	for alt in $$(echo '$(RACE_ALLOC_RUN)' | tr '|' ' '); do \
		$(GO) test -list "$$alt" $(RACE_ALLOC_PKGS) | grep -q '^Test' || \
			{ echo "check: make race-alloc runs $$alt, which go test -list does not find in its packages"; bad=1; }; \
	done; \
	for e in 1 2 3 4 5 6 7 9 10 11 12 14 16 17 18 19; do \
		grep -E "^\| E$$e \|" DESIGN.md | grep -qE '`[a-z]+\.(Test|Fuzz)[A-Za-z0-9_]+`' || \
			{ echo "check: the DESIGN.md §4 row of E$$e names no test in full"; bad=1; }; \
	done; \
	exit $$bad
	@if git grep -nE 'BENCH_[a-z]+\.json|Measure[A-Za-z]+Overhead|benchharness -[a-z]|cmd/bench[h]arness|make exp[e]riments|harness\.E[0-9]' -- . \
		':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' ':!bench/README.md'; then \
		echo 'check: the lines above quote what bench/ and the package tests replaced (see bench/README.md and DESIGN.md §4)'; exit 1; fi
	@if git grep -n '"encoding/xml"' -- internal/mdl internal/protocol internal/bind ':!*_test.go'; then \
		echo 'check: the files above import encoding/xml on the message path; xmlenc has the Reader and the Writer (DESIGN.md, "XML codec")'; exit 1; fi
	@if git grep -nE 'xml\.(NewDecoder|Unmarshal)\(' -- internal/automata internal/core ':!*_test.go'; then \
		echo 'check: the lines above decode a model with encoding/xml; read it through xmlenc.Reader as UnmarshalAutomaton and UnmarshalMerged do (DESIGN.md §17), and keep the reflection decode in internal/automata/oracle_test.go'; exit 1; fi
	@if git grep -nE 'url\.(Values|ParseQuery)' -- internal/mdl internal/bind ':!*_test.go' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then \
		echo 'check: the lines above use url.Values or url.ParseQuery on the message path; textenc reads a query and writes a target without one (DESIGN.md §17, "The text engine'"'"'s plan"), and the map lives on in internal/mdl/textenc/oracle_test.go only'; exit 1; fi
	@if git grep -n 'xmlenc\.DecodeTree' -- internal/protocol/xmlrpc internal/protocol/rest internal/protocol/soap internal/bind ':!*_test.go'; then \
		echo 'check: the files above build a field tree to decode XML-RPC, Atom or SOAP; read the tokens of xmlenc.Reader (DESIGN.md, "The reader and its consumers")'; exit 1; fi
	@if git grep -nE 'fieldToValue\(|abstractFromEntry\(|map\[string\]xmlrpc\.Value\{' -- internal/bind ':!*_test.go'; then \
		echo "check: the files above shape a message once more between decode and encode; write from the fields (xmlrpc.AppendFieldCall and its like) and carve them at once (DESIGN.md, \"The field tree's memory shape\")"; exit 1; fi
	@if git grep -nE '\.Value\(\)' -- internal/mdl internal/protocol internal/bind internal/mtl/compile.go ':!*_test.go'; then \
		echo "check: the files above box a field's value on the message path; switch on Type and read it through Text, Int64 and their like, or move it with CopyScalar (DESIGN.md, \"The field tree's memory shape\")"; exit 1; fi
	@if git grep -nE 'time\.ParseDuration|strconv\.(Atoi|ParseFloat)|strings\.Cut\([^)]*"="\)' -- internal/core ':!*_test.go' ':!internal/core/spec.go'; then \
		echo 'check: the files above read a spec value outside internal/core/spec.go; a directive is a row of mediatorDirectives or gatewayDirectives there, an option an entry of its list, and count, duration and their like read the words (DESIGN.md §3, "From a spec to a mediator")'; exit 1; fi
	@if git grep -n '\.Accept()' -- internal cmd examples ':!*_test.go' ':!internal/network'; then \
		echo 'check: the files above run an accept loop of their own; hand the listener to network.Serve, or Accept to network.AcceptLoop, which survive EMFILE and ECONNABORTED (internal/network/accept.go)'; exit 1; fi
	@if git grep -nE 'bufio\.NewReader(Size)?\(' -- internal cmd examples starlink ':!*_test.go' ':!internal/network'; then \
		echo 'check: the files above make a read buffer of their own; a stream connection takes one from the pool in internal/network (network.NewStreamConn, network.NewPeekConn) and returns it on Close (DESIGN.md §9)'; exit 1; fi
	@if git grep -nE '\.(RecvAppend|AppendRequest|AppendReply)\(' -- '*.go' ':!*_test.go' ':!internal/engine' ':!internal/network' ':!internal/bind'; then \
		echo 'check: the lines above read or build a packet into borrowed storage outside the engine, the network layer and the binders; call Recv, BuildRequest or BuildReply, whose packet is the caller'"'"'s (DESIGN.md §9, "Wire buffers")'; exit 1; fi
	@if [ "$$(git grep -hE '\.AppendReply\(' -- internal/engine ':!*_test.go' | wc -l)" -ne 1 ]; then \
		git grep -nE '\.AppendReply\(' -- internal/engine ':!*_test.go'; \
		echo 'check: internal/engine composes a client reply in other than one place (above); render it in session.buildClientReply, which keeps what a hit rendered for the hits after it (DESIGN.md §13)'; exit 1; fi
	@if git grep -nE '"starlink/internal/(engine|mtl|bind)"' -- internal/rcache; then \
		echo 'check: the lines above make the response cache import the engine, MTL or a binder; it stores replies and keeps the engine'"'"'s rendering beside one without reading it (DESIGN.md §13)'; exit 1; fi
	@for f in internal/engine/flow.go internal/engine/link.go; do \
		if sed -n '/^import (/,/^)/p; /^import "/p' $$f | \
			grep -E '"(sync(/atomic)?|math/rand(/v2)?|starlink/internal/(network(/pool)?|rcache|bind|backend|discovery))"'; then \
			echo "check: $$f imports the above; the steps decide without I/O, and the session performs what they ask (DESIGN.md §8, Step and shell)"; exit 1; fi; \
	done
	@if sed -n '/^import (/,/^)/p; /^import "/p' internal/engine/flow.go | grep -E '"time"'; then \
		echo 'check: internal/engine/flow.go imports time; the step walks the automaton without a clock (DESIGN.md §8, "Step and shell")'; exit 1; fi
	@if grep -nE 'time\.(Now|Since|Until|Sleep|After)' internal/engine/flow.go internal/engine/link.go; then \
		echo 'check: the lines above read the clock or wait in a step; the shell stamps each event with the budget left and performs the sleeps (DESIGN.md §8, "The link is a step too")'; exit 1; fi
	@if git grep -nE 'HasPrefix\([A-Za-z0-9_.]*\.Label, "_"\)|"_(giop|jsonrpc|slp)_' -- '*.go' ':!*_test.go'; then \
		echo 'check: the lines above keep a protocol field among the application fields; a request id is Message.ID, set by ParseRequest and read by AppendReply (DESIGN.md §3, "Abstract messages")'; exit 1; fi
	@if git grep -n '\.Clone()' -- internal/rcache ':!*_test.go'; then \
		echo 'check: the lines above copy a reply inside the response cache; it stores and serves the message it is given, read-only, and the engine copies one where a γ program can write into it (DESIGN.md §13)'; exit 1; fi
	@if git grep -nE '\) (exec|eval)\((env )?\*Env' -- internal/mtl ':!*_test.go'; then \
		echo 'check: the lines above execute MTL over an *Env outside the tests; compiled forms take a *cframe (compile.go), and the reference interpreter belongs in internal/mtl/oracle_test.go'; exit 1; fi
	@bad=0; \
	for name in $$($(GO) doc -short ./starlink | sed -nE 's/^ *(func|const|var) ([A-Za-z0-9_]+).*/\2/p'); do \
		git grep -qE "starlink\.$$name([^A-Za-z0-9_]|$$)" -- cmd examples bench starlink/example_test.go || \
			{ echo "check: no program under cmd/, examples/ or bench/ uses starlink.$$name and starlink/example_test.go does not document it; call the internal package from tests, or delete it from starlink/starlink.go"; bad=1; }; \
	done; \
	exit $$bad
	@if git grep -nE 'xmlrpc\.(Value|ParseCall|ParseResponse)([^A-Za-z0-9_]|$$)' -- internal/bind ':!*_test.go'; then \
		echo 'check: the lines above decode XML-RPC into Values in a binder; decode straight into fields with xmlrpc.ParseCallFields or ParseResponseFields (DESIGN.md §17)'; exit 1; fi
	@if git grep -n '\.Clone()' -- internal/bind ':!*_test.go'; then \
		echo 'check: the lines above copy a field tree in a binder; relabel what the parse made, or lend the composer a shallow copy (DESIGN.md §17)'; exit 1; fi
	@if git grep -nE 'rest\.Parse(Feed|Entry)([^A-Za-z0-9_]|$$)|fieldsFromEntries' -- internal/bind ':!*_test.go'; then \
		echo 'check: the lines above decode Atom into Entry structs in a binder; decode straight into fields with rest.ParseFeedFields or ParseEntryFields, keeping what the flow reads (DESIGN.md §17)'; exit 1; fi
	@if git grep -nE 'network\.Semantics\{|Transport:' -- internal/engine internal/core ':!*_test.go' || \
		git grep -n '"starlink/internal/protocol/giop"' -- internal/gateway ':!*_test.go'; then \
		echo "check: the lines above restate how a colour travels or what a shed client is told; a colour's transport is network.SemanticsOf its binder's Framer(), and a shed connection gets the route binder's BuildErrorReply (DESIGN.md §11)"; exit 1; fi
	@if git grep -nE 'make\(\[\]message\.Field|new\(message\.Field\)|&message\.Field\{' -- internal/bind internal/mdl/binenc internal/mdl/textenc \
		internal/protocol/giop internal/protocol/soap internal/protocol/rest internal/protocol/xmlrpc internal/protocol/jsonrpc ':!*_test.go'; then \
		echo 'check: the lines above make message nodes of their own on the message path; carve them from a message.Store (Nodes, Links, Message) — the flow'"'"'s store when parsing, message.Scratch() for a build'"'"'s scaffold (DESIGN.md §12)'; exit 1; fi
	@if awk '/^func / { fn = $$0 } /time\.(Now|Since)\(/ && fn !~ /\) (tick|clock)\(\)/ { print FILENAME ":" FNR ":" $$0; bad = 1 } END { exit !bad }' internal/engine/engine.go; then \
		echo 'check: the lines above read the clock in the session outside session.tick and session.clock; read s.now, which the last tick set, or tick after a blocking action (DESIGN.md §8, "Step and shell")'; exit 1; fi
	@if git grep -n '"unsafe"' -- '*.go' ':!*_test.go'; then \
		echo 'check: the lines above import unsafe; a string a parse keeps is a copy, or a piece of one, never a view of a pooled or borrowed buffer (DESIGN.md §12)'; exit 1; fi
	$(GO) run ./cmd/starlink check -models models >/dev/null

# The one benchmark: what a mediated flow costs beside the native call,
# end to end and layer by layer. This is the command in BENCHMARK.json;
# bench/README.md has the workloads, metrics, options and noise floor.
bench:
	$(GO) run ./bench

# Short coverage-guided fuzz passes over everything that parses
# untrusted bytes. The target list is whatever `go test -list` finds, one
# -fuzz run per target, so a Fuzz function cannot exist without running
# here. FUZZTIME can be raised for a longer local soak. Minimizing a new
# input tries removing every pair of byte ranges, so a multi-kilobyte model
# file as seed would spend the whole pass minimizing its first find; 1000
# runs bound it.
FUZZTIME ?= 10s
fuzz:
	@$(GO) test -list '^Fuzz' ./... | \
	awk '/^Fuzz/ { names[++n] = $$1 } /^ok/ { for (i = 1; i <= n; i++) print $$2, names[i]; n = 0 }' | \
	while read pkg name; do \
		echo "fuzz $$pkg $$name"; \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 1000x || exit 1; \
	done

fmt:
	gofmt -l -w .

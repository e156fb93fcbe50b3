package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// specVerdict is one document with what the two hand-written parsers
// this package had before the directive tables made of it: accepted
// (line -1), or refused with that SpecError.Line and .Directive. why marks
// one of the refusals the tables added on purpose, with the verdict now.
type specVerdict struct {
	kind, doc    string // "mediator" or "gateway"
	line         int
	directive    string
	nowLine      int
	nowDirective string
	why          string
}

// parseKind parses doc as the kind of spec named, returning the spec as
// an any so the two kinds can share their checks.
func parseKind(kind, doc string) (any, error) {
	if kind == "gateway" {
		return ParseGatewaySpec(doc)
	}
	return ParseMediatorSpec(doc)
}

// TestSpecVerdictsUnchanged holds the table-driven reader to the parsers
// it replaced: every spec string the core, starlink, cmd and bench tests
// parse, every fenced spec in docs/ and README.md, every file under
// models/ and the seeds of the differential fuzz that compared the two,
// each with the verdict recorded before the change.
func TestSpecVerdictsUnchanged(t *testing.T) {
	rows := specVerdicts
	for _, pattern := range []string{"*.mediator", "*.gateway"} {
		files, err := filepath.Glob(filepath.Join("..", "..", "models", pattern))
		if err != nil || len(files) == 0 {
			t.Fatalf("no models/%s: %v", pattern, err)
		}
		for _, f := range files {
			doc, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, specVerdict{kind: strings.TrimPrefix(filepath.Ext(f), "."), doc: string(doc), line: -1})
		}
	}
	if len(rows) < 80 {
		t.Fatalf("only %d documents", len(rows))
	}
	for _, row := range rows {
		wantLine, wantDirective := row.line, row.directive
		if row.why != "" {
			wantLine, wantDirective = row.nowLine, row.nowDirective
		}
		_, err := parseKind(row.kind, row.doc)
		var se *SpecError
		switch {
		case err == nil && wantLine >= 0:
			t.Errorf("%s %q: accepted, want it refused at line %d, directive %q", row.kind, row.doc, wantLine, wantDirective)
		case err != nil && !errors.As(err, &se):
			t.Errorf("%s %q: err %v is not a *SpecError", row.kind, row.doc, err)
		case err != nil && (se.Line != wantLine || se.Directive != wantDirective):
			t.Errorf("%s %q: %v, want line %d, directive %q", row.kind, row.doc, err, wantLine, wantDirective)
		}
	}
}

// fuzzSpec is the property both parsers are fuzzed for: no panic; a
// refusal is a *SpecError of the right sentinels whose Line is in the
// document and whose Directive is that line's first word; an accepted
// document is accepted again, to an equal spec, with a comment and a blank
// line spliced in anywhere.
func fuzzSpec(t *testing.T, kind, doc string, sentinels ...error) {
	spec, err := parseKind(kind, doc)
	lines := strings.Split(doc, "\n")
	if err != nil {
		var se *SpecError
		if !errors.As(err, &se) {
			t.Fatalf("%q: err %v is not a *SpecError", doc, err)
		}
		for _, sentinel := range sentinels {
			if !errors.Is(err, sentinel) {
				t.Fatalf("%q: err %v does not wrap %v", doc, err, sentinel)
			}
		}
		if se.Line < 0 || se.Line > len(lines) {
			t.Fatalf("%q: line %d is outside the document", doc, se.Line)
		}
		if se.Line > 0 {
			if words := strings.Fields(lines[se.Line-1]); len(words) == 0 || words[0] != se.Directive {
				t.Fatalf("%q: %v blames a directive line %d does not start with", doc, err, se.Line)
			}
		}
		return
	}
	if len(lines) > 64 {
		return
	}
	for at := 0; at <= len(lines); at++ {
		spliced := append(append(append([]string{}, lines[:at]...), " # spliced", ""), lines[at:]...)
		again, err := parseKind(kind, strings.Join(spliced, "\n"))
		if err != nil || !reflect.DeepEqual(spec, again) {
			t.Fatalf("%q: with a comment and a blank line before line %d: %+v, %v; want %+v", doc, at+1, again, err, spec)
		}
	}
}

func FuzzParseMediatorSpec(f *testing.F) {
	for _, row := range specVerdicts {
		if row.kind == "mediator" {
			f.Add(row.doc)
		}
	}
	f.Fuzz(func(t *testing.T, doc string) { fuzzSpec(t, "mediator", doc, ErrSpec) })
}

func FuzzParseGatewaySpec(f *testing.F) {
	for _, row := range specVerdicts {
		if row.kind == "gateway" {
			f.Add(row.doc)
		}
	}
	f.Fuzz(func(t *testing.T, doc string) { fuzzSpec(t, "gateway", doc, ErrGateway, ErrSpec) })
}

// reference renders a grammar as the table its document carries between
// the markers "<!-- directives:NAME -->" and "<!-- /directives -->".
func reference[S any](table []directive[S]) string {
	cell := func(s string) string {
		if s == "" {
			return "—"
		}
		return strings.ReplaceAll(s, "|", `\|`)
	}
	var b strings.Builder
	b.WriteString("| Directive | Lines | Default | Meaning |\n|---|---|---|---|\n")
	for _, d := range table {
		lines := "any number"
		if d.once {
			lines = "one"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", cell(d.name+" "+d.usage), lines, cell(d.def), cell(d.doc))
	}
	return b.String()
}

// TestDirectiveReference holds the directive reference of docs/MODELS.md
// and docs/GATEWAY.md to the tables the parsers read: usage, once-only,
// default and meaning of every row, byte for byte. There is nothing to
// regenerate — on a mismatch the failure prints the block to paste.
func TestDirectiveReference(t *testing.T) {
	for _, ref := range []struct{ file, name, want string }{
		{"MODELS.md", "mediator", reference(mediatorDirectives)},
		{"GATEWAY.md", "gateway", reference(gatewayDirectives)},
	} {
		doc, err := os.ReadFile(filepath.Join("..", "..", "docs", ref.file))
		if err != nil {
			t.Fatal(err)
		}
		open, end := "<!-- directives:"+ref.name+" -->\n", "<!-- /directives -->"
		_, rest, _ := strings.Cut(string(doc), open)
		got, _, _ := strings.Cut(rest, end)
		if got != ref.want {
			t.Errorf("docs/%s: the block between %q and %q is not what the %s table in spec.go says.\ngot:\n%s\nwant (paste this between the markers):\n%s",
				ref.file, strings.TrimSpace(open), end, ref.name, got, ref.want)
		}
	}
}

// specVerdicts: see specVerdict and TestSpecVerdictsUnchanged.
var specVerdicts = []specVerdict{
	{kind: "mediator", doc: "\n# UPnP/SSDP control point -> SLP Directory Agent\nmerged SSDP-to-SLP-discovery\nlisten 127.0.0.1:9001\ntypemap upnp-to-slp\nside 1 ssdp server\nside 2 slp target=127.0.0.1:9002\n", line: -1, directive: ""},
	{kind: "mediator", doc: "\n# Flickr SOAP client -> Picasa REST service\nmerged Flickr-SOAP-to-Picasa-REST\nlisten 127.0.0.1:9001\nside 1 soap path=/services/soap server\nside 2 rest routes=picasa target=127.0.0.1:9002\nhostmap https://picasaweb.google.com = 127.0.0.1:9002\n", line: -1, directive: ""},
	{kind: "mediator", doc: "\n# Flickr XML-RPC client -> Picasa REST service\nmerged Flickr-XMLRPC-to-Picasa-REST\nlisten 127.0.0.1:9001\nside 1 xmlrpc path=/services/xmlrpc defs=AFlickr server\nside 2 rest routes=picasa target=127.0.0.1:9002\nhostmap https://picasaweb.google.com = 127.0.0.1:9002\n", line: -1, directive: ""},
	{kind: "gateway", doc: "\n# One front door for the Flickr mediators\nlisten 127.0.0.1:9001\nroute xmlrpc flickr-xmlrpc path=/services/xmlrpc maxflows=64\nroute soap flickr-soap path=/services/soap maxflows=64\ndefault xmlrpc\n", line: -1, directive: ""},
	{kind: "mediator", doc: "merged Add+Plus\nside 1 giop objectkey=calc defs=AAdd server\nside 2 soap path=/soap target=127.0.0.1:9001\n", line: -1, directive: ""},
	{kind: "gateway", doc: "route add add match=giop\n", line: -1, directive: ""},
	{kind: "mediator", doc: "merged Flickr-Search-to-Picasa-REST\nside 1 xmlrpc path=/services/xmlrpc defs=AFlickr server\nside 2 rest routes=picasa target=127.0.0.1:9001\nhostmap https://picasaweb.google.com = 127.0.0.1:9001\n", line: -1, directive: ""},
	{kind: "mediator", doc: "merged Flickr-Search-to-Picasa-REST\nside 1 xmlrpc path=/services/xmlrpc defs=AFlickr server\nside 2 rest routes=picasa target=127.0.0.1:9001\nhostmap https://picasaweb.google.com = 127.0.0.1:9001\ncacheable picasa.photos.search ttl=60s\ncache_size 256\n", line: -1, directive: ""},
	{kind: "mediator", doc: "merged Flickr-Search-to-Picasa-REST\nside 1 xmlrpc path=/services/xmlrpc defs=AFlickr server\nside 2 rest routes=picasa target=127.0.0.1:9001\nhostmap https://picasaweb.google.com = 127.0.0.1:9001\ncacheable picasa.photos.search ttl=60s\ncache_size 65536\n", line: -1, directive: ""},
	{kind: "mediator", doc: "zap", line: 1, directive: "zap"},
	{kind: "mediator", doc: "", line: 0, directive: ""},
	{kind: "mediator", doc: "merged x", line: 0, directive: ""},
	{kind: "mediator", doc: "side 1 xmlrpc server", line: 0, directive: ""},
	{kind: "mediator", doc: "merged x\nside one xmlrpc", line: 2, directive: "side"},
	{kind: "mediator", doc: "merged x\nside 1x xmlrpc", line: 2, directive: "side"},
	{kind: "mediator", doc: "merged x\nside 2.5 soap", line: 2, directive: "side"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc foo", line: 2, directive: "side"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc a=b", line: 2, directive: "side"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\nwat 1", line: 3, directive: "wat"},
	{kind: "mediator", doc: "merged x\nmerged", line: 2, directive: "merged"},
	{kind: "mediator", doc: "merged x\nlisten", line: 2, directive: "listen"},
	{kind: "mediator", doc: "merged x\nside 1", line: 2, directive: "side"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\nhostmap nope", line: 3, directive: "hostmap"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\nretries", line: 3, directive: "retries"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\nretries -1", line: 3, directive: "retries"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\nretries two", line: 3, directive: "retries"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\nbackoff", line: 3, directive: "backoff"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\nbackoff -5ms", line: 3, directive: "backoff"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\nbackoff fast", line: 3, directive: "backoff"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\ndialtimeout", line: 3, directive: "dialtimeout"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\ndialtimeout 0s", line: 3, directive: "dialtimeout"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\nmax_backoff", line: 3, directive: "max_backoff"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\nmax_backoff 0s", line: 3, directive: "max_backoff"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\nmax_backoff -1s", line: 3, directive: "max_backoff"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\nflow_deadline", line: 3, directive: "flow_deadline"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\nflow_deadline 0s", line: 3, directive: "flow_deadline"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\nflow_deadline -200ms", line: 3, directive: "flow_deadline"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\nflow_deadline soonish", line: 3, directive: "flow_deadline"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc server\nside 1 soap target=a:1", line: 3, directive: "side"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc server\nside 2 soap server", line: 3, directive: "side"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\nhostmap a = b\nhostmap a = c", line: 4, directive: "hostmap"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc path=/a path=/b", line: 2, directive: "side"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\ncacheable op ttl=1s ttl=2s", line: 3, directive: "cacheable"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\nbackend b :1\nprobe b 1s timeout=1s timeout=2s", line: 4, directive: "probe"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\nbackend b :1\neject b fails=1 fails=2", line: 4, directive: "eject"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\nbackend b :1\ndiscover b via=file path=/x path=/y", line: 4, directive: "discover"},
	{kind: "mediator", doc: "\nmerged Add+Plus\nside 1 giop defs=AAdd server\nside 2 soap path=/soap target=127.0.0.1:9001\nretries 4\nbackoff 25ms\nmax_backoff 800ms\ndialtimeout 3s\nflow_deadline 1500ms\n", line: -1, directive: ""},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc path=/x server\nflow_deadline off", line: -1, directive: "", nowLine: 3, nowDirective: "flow_deadline", why: "flow_deadline off removed: every flow has a budget"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc path=/x server\nretries 0", line: -1, directive: ""},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc path=/x server", line: -1, directive: ""},
	{kind: "mediator", doc: "merged m\ntypemap v\nside 1 ssdp server\nside 2 slp target=x", line: -1, directive: ""},
	{kind: "mediator", doc: "merged m\nside 1 ssdp server udp", line: 2, directive: "side"},
	{kind: "mediator", doc: "merged m\ntypemap", line: 2, directive: "typemap"},
	{kind: "mediator", doc: "\nmerged Add+Plus\nside 1 giop defs=AAdd server\nside 2 soap path=/soap target=127.0.0.1:9001\npool_size 16\npool_idle 30s\n", line: -1, directive: ""},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc path=/x server\npool_idle off", line: -1, directive: ""},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\npool_size", line: 3, directive: "pool_size"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\npool_size 0", line: 3, directive: "pool_size"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\npool_size -2", line: 3, directive: "pool_size"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\npool_size big", line: 3, directive: "pool_size"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\npool_idle", line: 3, directive: "pool_idle"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\npool_idle 0s", line: 3, directive: "pool_idle"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\npool_idle slow", line: 3, directive: "pool_idle"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\npool_size zero", line: 3, directive: "pool_size"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\npool_idle never", line: 3, directive: "pool_idle"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\nlisten", line: 3, directive: "listen"},
	{kind: "mediator", doc: "merged x\nbackend b :1\ndiscover b via=file path=/x path=/y\nside 1 xmlrpc", line: 3, directive: "discover"},
	{kind: "mediator", doc: "side 1 xmlrpc\nhostmap a = b\nhostmap a = c\nmerged x", line: 3, directive: "hostmap"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc path=/x server\nadmin 127.0.0.1:9001", line: -1, directive: ""},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\nadmin", line: 3, directive: "admin"},
	{kind: "mediator", doc: "\nmerged Add+Plus\nside 1 giop defs=AAdd server\nside 2 soap path=/soap target=photos\n# tuning may precede the declaration it refers to\nbalance photos p2c\nbackend photos 10.0.0.1:80 10.0.0.2:80 10.0.0.3:80\nprobe photos 250ms timeout=1s\neject photos fails=2 cooloff=500ms max_cooloff=10s min_live=2\nbackend orders 10.0.1.1:80\n", line: -1, directive: ""},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc path=/x server\nbackend b 1.1.1.1:1\nbackend b 2.2.2.2:2", line: 4, directive: "backend"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc path=/x server\nbackend lonely", line: 3, directive: "backend"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc path=/x server\nbackend b 1.1.1.1:1 1.1.1.1:1", line: 3, directive: "backend"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc path=/x server\nbalance b p2c", line: 3, directive: "balance"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc path=/x server\nprobe b 1s", line: 3, directive: "probe"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc path=/x server\neject b fails=1", line: 3, directive: "eject"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc path=/x server\nbackend b 1.1.1.1:1\nbalance b lifo", line: 4, directive: "balance"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc path=/x server\nbackend b 1.1.1.1:1\nbalance b", line: 4, directive: "balance"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc path=/x server\nbackend b 1.1.1.1:1\nprobe b fast", line: 4, directive: "probe"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc path=/x server\nbackend b 1.1.1.1:1\nprobe b 1s t=2", line: 4, directive: "probe"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc path=/x server\nbackend b 1.1.1.1:1\neject b", line: 4, directive: "eject"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc path=/x server\nbackend b 1.1.1.1:1\neject b fails=0", line: 4, directive: "eject"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc path=/x server\nbackend b 1.1.1.1:1\neject b cooloff=-1s", line: 4, directive: "eject"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc path=/x server\nbackend b 1.1.1.1:1\neject b wat=1", line: 4, directive: "eject"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc path=/x server\nbackend b 1.1.1.1:1\nbalance b p2c\nbalance b roundrobin", line: 5, directive: "balance"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc path=/x server\nbackend b 1.1.1.1:1\nprobe b 1s\nprobe b 2s", line: 5, directive: "probe"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc path=/x server\nbackend b 1.1.1.1:1\neject b fails=1\neject b fails=2", line: 5, directive: "eject"},
	{kind: "mediator", doc: "\nmerged Add+Plus\nside 1 giop defs=AAdd server\nside 2 soap path=/soap target=photos\n# discovery may precede the backend it drives\ndiscover photos via=slp agent=127.0.0.1:9001 type=service:photos scope=CAMPUS refresh=2s debounce=5s min_ttl=1m max_churn=2\nbackend photos 10.0.0.1:80 10.0.0.2:80\nbackend orders 10.0.1.1:80\ndiscover orders via=file path=/etc/starlink/orders.hosts\n", line: -1, directive: ""},
	{kind: "mediator", doc: "\nmerged Add+Plus\nside 1 giop defs=AAdd server\nside 2 soap path=/soap target=a\nbackend a 10.0.0.1:80\nbackend b 10.0.0.2:80\ndiscover a via=ssdp search=239.255.255.250:1900 st=urn:photos listen=0.0.0.0:1900 mx=2\ndiscover b via=dns name=_photos._tcp.example.org\n", line: -1, directive: ""},
	{kind: "mediator", doc: "merged m\nside 1 giop server\nside 2 soap path=/s target=b\nbackend b 1.1.1.1:1\ndiscover b", line: 5, directive: "discover"},
	{kind: "mediator", doc: "merged m\nside 1 giop server\nside 2 soap path=/s target=b\nbackend b 1.1.1.1:1\ndiscover b agent=x", line: 5, directive: "discover"},
	{kind: "mediator", doc: "merged m\nside 1 giop server\nside 2 soap path=/s target=b\nbackend b 1.1.1.1:1\ndiscover b via=carrier-pigeon path=x", line: 5, directive: "discover"},
	{kind: "mediator", doc: "merged m\nside 1 giop server\nside 2 soap path=/s target=b\nbackend b 1.1.1.1:1\ndiscover b via=slp type=service:x", line: 5, directive: "discover"},
	{kind: "mediator", doc: "merged m\nside 1 giop server\nside 2 soap path=/s target=b\nbackend b 1.1.1.1:1\ndiscover b via=slp agent=1.1.1.1:427", line: 5, directive: "discover"},
	{kind: "mediator", doc: "merged m\nside 1 giop server\nside 2 soap path=/s target=b\nbackend b 1.1.1.1:1\ndiscover b via=ssdp st=urn:x", line: 5, directive: "discover"},
	{kind: "mediator", doc: "merged m\nside 1 giop server\nside 2 soap path=/s target=b\nbackend b 1.1.1.1:1\ndiscover b via=ssdp search=1.1.1.1:1900", line: 5, directive: "discover"},
	{kind: "mediator", doc: "merged m\nside 1 giop server\nside 2 soap path=/s target=b\nbackend b 1.1.1.1:1\ndiscover b via=dns", line: 5, directive: "discover"},
	{kind: "mediator", doc: "merged m\nside 1 giop server\nside 2 soap path=/s target=b\nbackend b 1.1.1.1:1\ndiscover b via=file", line: 5, directive: "discover"},
	{kind: "mediator", doc: "merged m\nside 1 giop server\nside 2 soap path=/s target=b\nbackend b 1.1.1.1:1\ndiscover b via=file path=x refresh=fast", line: 5, directive: "discover"},
	{kind: "mediator", doc: "merged m\nside 1 giop server\nside 2 soap path=/s target=b\nbackend b 1.1.1.1:1\ndiscover b via=file path=x debounce=-1s", line: 5, directive: "discover"},
	{kind: "mediator", doc: "merged m\nside 1 giop server\nside 2 soap path=/s target=b\nbackend b 1.1.1.1:1\ndiscover b via=file path=x min_ttl=0s", line: 5, directive: "discover"},
	{kind: "mediator", doc: "merged m\nside 1 giop server\nside 2 soap path=/s target=b\nbackend b 1.1.1.1:1\ndiscover b via=file path=x max_churn=none", line: 5, directive: "discover"},
	{kind: "mediator", doc: "merged m\nside 1 giop server\nside 2 soap path=/s target=b\nbackend b 1.1.1.1:1\ndiscover b via=file path=x mx=0", line: 5, directive: "discover"},
	{kind: "mediator", doc: "merged m\nside 1 giop server\nside 2 soap path=/s target=b\nbackend b 1.1.1.1:1\ndiscover b via=file path=x bogus=1", line: 5, directive: "discover"},
	{kind: "mediator", doc: "merged m\nside 1 giop server\nside 2 soap path=/s target=b\nbackend b 1.1.1.1:1\ndiscover b via=file path=x\ndiscover b via=file path=y", line: 6, directive: "discover"},
	{kind: "mediator", doc: "merged m\nside 1 giop server\nside 2 soap path=/s target=b\nbackend b 1.1.1.1:1\ndiscover ghost via=file path=x", line: 5, directive: "discover"},
	{kind: "mediator", doc: "\n# Flickr XML-RPC client -> Picasa REST service\nmerged Flickr-XMLRPC-to-Picasa-REST\nlisten 127.0.0.1:9001\nside 1 xmlrpc path=/services/xmlrpc defs=AFlickr server\nside 2 rest routes=picasa target=127.0.0.1:9002\nhostmap https://picasaweb.google.com = 127.0.0.1:9002\n\nbackend photos 127.0.0.1:9003\ndiscover photos via=file path=/tmp/hosts refresh=10ms debounce=20ms min_ttl=30ms\n", line: -1, directive: ""},
	{kind: "mediator", doc: "\n# Flickr XML-RPC client -> Picasa REST service\nmerged Flickr-XMLRPC-to-Picasa-REST\nlisten 127.0.0.1:9001\nside 1 xmlrpc path=/services/xmlrpc defs=AFlickr server\nside 2 rest routes=picasa target=127.0.0.1:9002\nhostmap https://picasaweb.google.com = 127.0.0.1:9002\n\nbackend photos 127.0.0.1:9003\ndiscover photos via=file path=/tmp/hosts\n", line: -1, directive: ""},
	{kind: "gateway", doc: "\n# front door\nlisten 127.0.0.1:9001\nadmin 127.0.0.1:9002\nsniff_bytes 128\nsniff_timeout 250ms\nroute xmlrpc flickr-xmlrpc path=/services/xmlrpc payload=xml rate=100 burst=10 maxflows=32 deadline=750ms\nroute soap flickr-soap match=http path=/services/soap\nroute iiop add-giop match=giop\ndefault soap\n", line: -1, directive: ""},
	{kind: "gateway", doc: "route a b rate=NaN\n", line: 1, directive: "route"},
	{kind: "gateway", doc: "route a b burst=zero\n", line: 1, directive: "route"},
	{kind: "gateway", doc: "route a b deadline=0s\n", line: 1, directive: "route"},
	{kind: "gateway", doc: "route a b\nroute a c\n", line: 2, directive: "route"},
	{kind: "gateway", doc: "route a b rate=+Inf\n", line: 1, directive: "route"},
	{kind: "gateway", doc: "route a b maxflows=0\n", line: 1, directive: "route"},
	{kind: "gateway", doc: "route a b deadline=whenever\n", line: 1, directive: "route"},
	{kind: "gateway", doc: "route a b color=7\n", line: 1, directive: "route"},
	{kind: "gateway", doc: "listen 127.0.0.1:9001\n", line: 0, directive: ""},
	{kind: "gateway", doc: "zap\n", line: 1, directive: "zap"},
	{kind: "gateway", doc: "listen :1\nlisten :2\nroute a b\n", line: 2, directive: "listen"},
	{kind: "gateway", doc: "admin :1\nadmin :2\nroute a b\n", line: 2, directive: "admin"},
	{kind: "gateway", doc: "route a m rate=1 rate=2 path=/x path=/y\n", line: 1, directive: "route"},
	{kind: "gateway", doc: "sniff_bytes 8\nsniff_bytes 9\nroute a b\n", line: 2, directive: "sniff_bytes"},
	{kind: "gateway", doc: "route a\n", line: 1, directive: "route"},
	{kind: "gateway", doc: "route a b rate=-1\n", line: 1, directive: "route"},
	{kind: "gateway", doc: "sniff_timeout soon\nroute a b\n", line: 1, directive: "sniff_timeout"},
	{kind: "gateway", doc: "route a b\ndefault c\n", line: 0, directive: "default"},
	{kind: "gateway", doc: "listen\nroute a b\n", line: 1, directive: "listen"},
	{kind: "gateway", doc: "route a b\ndefault a\ndefault a\n", line: 3, directive: "default"},
	{kind: "gateway", doc: "route a b match=ftp\n", line: 1, directive: "route"},
	{kind: "gateway", doc: "route a b payload=yaml\n", line: 1, directive: "route"},
	{kind: "gateway", doc: "listen :1\nroute a b\nlisten :2\n", line: 3, directive: "listen"},
	{kind: "gateway", doc: "listen :1\nroute a b rate=NaN\n", line: 2, directive: "route"},
	{kind: "gateway", doc: "listen :1\nroute a m path=/x path=/y\n", line: 2, directive: "route"},
	{kind: "mediator", doc: "merged M\nside 1 soap path=/x server\nlisten :1\nlisten :2\n", line: 4, directive: "listen"},
	{kind: "mediator", doc: "merged M\nside 1 soap path=/x server\nmerged Again\n", line: 3, directive: "merged"},
	{kind: "mediator", doc: "merged M\nside 1 soap path=/x server\ntypemap a\ntypemap b\n", line: 4, directive: "typemap"},
	{kind: "mediator", doc: "merged M\nside 1 soap path=/x server\nretries 1\nretries 2\n", line: 4, directive: "retries"},
	{kind: "mediator", doc: "merged M\nside 1 soap path=/x server\nbackoff 1ms\nbackoff 2ms\n", line: 4, directive: "backoff"},
	{kind: "mediator", doc: "merged M\nside 1 soap path=/x server\nmax_backoff 1s\nmax_backoff 2s\n", line: 4, directive: "max_backoff"},
	{kind: "mediator", doc: "merged M\nside 1 soap path=/x server\nflow_deadline 1s\nflow_deadline off\n", line: 4, directive: "flow_deadline"},
	{kind: "mediator", doc: "merged M\nside 1 soap path=/x server\ndialtimeout 1s\ndialtimeout 2s\n", line: 4, directive: "dialtimeout"},
	{kind: "mediator", doc: "merged M\nside 1 soap path=/x server\npool_size 1\npool_size 2\n", line: 4, directive: "pool_size"},
	{kind: "mediator", doc: "merged M\nside 1 soap path=/x server\npool_idle 1s\npool_idle off\n", line: 4, directive: "pool_idle"},
	{kind: "mediator", doc: "merged M\nside 1 soap path=/x server\nadmin :1\nadmin :2\n", line: 4, directive: "admin"},
	{kind: "mediator", doc: "merged M\nlisten :1\nside 1 soap server\nlisten :2\n", line: 4, directive: "listen"},
	{kind: "mediator", doc: "merged M\nside 1 soap path=/x server\nside 2 rest routes=r target=:1\nhostmap a = :1\nhostmap b = :2\n", line: -1, directive: ""},
	{kind: "gateway", doc: "route a no-such-mediator\n", line: -1, directive: ""},
	{kind: "gateway", doc: "route calc calc maxflows=8\nroute xmlrpc flickr-xmlrpc\nroute soap flickr-soap\n", line: -1, directive: ""},
	{kind: "mediator", doc: "merged Add+Plus\nside 1 giop objectkey=calc defs=AAdd server\nside 2 soap path=/soap target=plus\nbackend plus 127.0.0.1:9001 127.0.0.1:9002 127.0.0.1:9003\nbalance plus roundrobin\nretries 3\nbackoff 1ms\nprobe plus 25ms timeout=500ms\neject plus fails=2 cooloff=100ms max_cooloff=1s min_live=1\n", line: -1, directive: ""},
	{kind: "mediator", doc: "merged Add+Plus\nside 1 giop objectkey=calc defs=AAdd server\nside 2 soap path=/soap target=plus\nbackend plus 127.0.0.1:9001\nbalance plus roundrobin\nretries 3\nbackoff 1ms\nprobe plus 10ms timeout=500ms\neject plus fails=2 cooloff=100ms min_live=1\ndiscover plus via=file path=/tmp/hosts refresh=15ms debounce=250ms min_ttl=50ms\n", line: -1, directive: ""},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc path=/x server\npool_size 4\npool_idle off\n", line: -1, directive: ""},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc\npool_size nope", line: 3, directive: "pool_size"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc path=/x server\nadmin 127.0.0.1:9001\n", line: -1, directive: ""},
	{kind: "mediator", doc: "\nmerged x\nside 1 xmlrpc path=/x server\ncacheable catalog.search ttl=30s vary=query,limit\ncacheable catalog.get ttl=1m\ninvalidates orders.create catalog.search,catalog.get\ncache_size 4096\ncache_shards 16\n", line: -1, directive: ""},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc server\ncacheable op ttl=0s", line: 3, directive: "cacheable"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc server\ninvalidates w missing.op", line: 0, directive: "invalidates"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc server\ncache_size -3", line: 3, directive: "cache_size"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc server\ncacheable op vary=a", line: 3, directive: "cacheable"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc server\ncacheable op ttl=soon", line: 3, directive: "cacheable"},
	{kind: "mediator", doc: "merged x\nside 1 xmlrpc server\nbogus y\n", line: 3, directive: "bogus"},
	{kind: "gateway", doc: "listen :0\nroute x path=/x\ndefault y\n", line: 0, directive: "default"},
	{kind: "mediator", doc: "side 1 xmlrpc server\n", line: 0, directive: ""},
	{kind: "mediator", doc: "\nmerged Add+Plus\nside 1 giop objectkey=calc defs=AAdd server\nside 2 soap path=/soap target=127.0.0.1:9001\ncacheable Plus ttl=1m\n", line: -1, directive: ""},
	{kind: "mediator", doc: "\nmerged Add+Plus\nside 1 giop objectkey=calc defs=AAdd server\nside 2 soap path=/soap target=plus\nbackend plus 127.0.0.1:9001 127.0.0.1:9002\nbalance plus roundrobin\neject plus fails=2 cooloff=500ms min_live=1\n", line: -1, directive: ""},
	{kind: "mediator", doc: "\nmerged Add+Plus\nside 1 giop objectkey=calc defs=AAdd server\nside 2 soap path=/soap target=plus\nbackend plus 127.0.0.1:9001 127.0.0.1:9001\n", line: 5, directive: "backend"},
	{kind: "mediator", doc: "merged Add+Plus\nside 1 giop defs=AAdd objectkey=calc server\nside 2 soap path=/soap target=plus\n\nbackend plus 10.0.0.1:8080 10.0.0.2:8080 10.0.0.3:8080\nbalance plus p2c\nprobe plus 2s timeout=500ms\neject plus fails=3 cooloff=1s max_cooloff=30s min_live=1\n", line: -1, directive: ""},
	{kind: "mediator", doc: "merged Shop-Search-to-Catalog-JSONRPC\nside 1 xmlrpc path=/shop server\nside 2 jsonrpc path=/rpc target=127.0.0.1:9001\n\ncacheable catalog.search ttl=60s\ncacheable catalog.get ttl=5m vary=sku\ninvalidates catalog.update catalog.search,catalog.get\ncache_size 65536\ncache_shards 16\n", line: -1, directive: ""},
	{kind: "mediator", doc: "flow_deadline 750ms      # per-flow budget\nflow_deadline off        # disable budgets entirely\n", line: 1, directive: "flow_deadline"},
	{kind: "gateway", doc: "route soap flickr-soap path=/services/soap maxflows=64 deadline=500ms\n", line: -1, directive: ""},
	{kind: "mediator", doc: "merged Add+Plus\nside 1 giop defs=AAdd objectkey=calc server\nside 2 soap path=/soap target=plus\n\nbackend plus 10.0.0.1:8080\nprobe plus 2s timeout=500ms\ndiscover plus via=slp agent=10.0.0.9:427 type=service:plus scope=DEFAULT refresh=5s debounce=10s min_ttl=30s\n", line: -1, directive: ""},
	{kind: "gateway", doc: "# One front door for the Flickr mediators\nlisten 127.0.0.1:9001\nroute xmlrpc flickr-xmlrpc path=/services/xmlrpc maxflows=64\nroute soap flickr-soap path=/services/soap maxflows=64\ndefault xmlrpc\n", line: -1, directive: ""},
	{kind: "mediator", doc: "merged Flickr-XMLRPC-to-Picasa-REST\nlisten 127.0.0.1:9001\nside 1 xmlrpc path=/services/xmlrpc defs=AFlickr server\nside 2 rest routes=picasa target=127.0.0.1:9002\nhostmap https://picasaweb.google.com = 127.0.0.1:9002\n", line: -1, directive: ""},
	{kind: "gateway", doc: "listen 127.0.0.1:9001\nroute xmlrpc flickr-xmlrpc path=/services/xmlrpc maxflows=64\nroute soap flickr-soap path=/services/soap maxflows=64\ndefault xmlrpc\n", line: -1, directive: ""},
	{kind: "mediator", doc: "merged Add+Plus\nside 1 giop defs=AAdd objectkey=calc server\nside 2 soap path=/soap target=plus\n\nbackend plus 127.0.0.1:9001 127.0.0.1:9002\nbalance plus p2c\nprobe plus 2s timeout=500ms\neject plus fails=3 cooloff=1s min_live=1\n", line: -1, directive: ""},
	{kind: "mediator", doc: "backend plus 127.0.0.1:9001\ndiscover plus via=slp agent=127.0.0.1:9002 type=service:plus refresh=5s debounce=10s min_ttl=30s\n", line: 0, directive: ""},
	{kind: "mediator", doc: "side 2 rest routes=picasa target=picasa\nhostmap https://picasaweb.google.com = picasa\nbackend picasa 127.0.0.1:9001 127.0.0.1:9002\nbalance picasa p2c\nprobe picasa 500ms timeout=300ms\neject picasa fails=2 cooloff=1s min_live=1\n", line: 0, directive: ""},
	{kind: "mediator", doc: "merged x\nside 00 soap\nside 0 xmlrpc", line: 3, directive: "side"},
	{kind: "mediator", doc: "merged x\nside 1 xmlprc server", line: -1, directive: "", nowLine: 2, nowDirective: "side", why: "unknown protocol"},
	{kind: "mediator", doc: "merged x\nside 1 soap\nhostmap  = c", line: -1, directive: "", nowLine: 3, nowDirective: "hostmap", why: "empty hostmap host or address"},
	{kind: "mediator", doc: "merged x\nside 1 soap\nhostmap a = ", line: -1, directive: "", nowLine: 3, nowDirective: "hostmap", why: "empty hostmap host or address"},
	{kind: "mediator", doc: "merged x\nside 1 soap\nhostmap = =", line: -1, directive: "", nowLine: 3, nowDirective: "hostmap", why: "empty option key given twice"},
	{kind: "mediator", doc: "merged x\nside 1 soap\nhostmap a = b = c", line: -1, directive: "", nowLine: 3, nowDirective: "hostmap", why: "empty option key given twice"},
	{kind: "mediator", doc: "merged x\nside 1 soap\nhostmap a=b", line: -1, directive: ""},
	{kind: "mediator", doc: "merged x\nside 1 soap\nhostmap a b = c d", line: -1, directive: ""},
	{kind: "mediator", doc: "merged x\nside 1 soap\nbackend b :1\ndiscover b via=file path=/x agent=foo", line: -1, directive: "", nowLine: 4, nowDirective: "discover", why: "option of another discovery source"},
	{kind: "mediator", doc: "merged x\nside 1 soap\nbackend b :1\ndiscover b path=/x via=file refresh=1s", line: -1, directive: ""},
	{kind: "mediator", doc: "merged x\nside 1 soap\nbackend b :1\ndiscover b via=file path=", line: 4, directive: "discover"},
	{kind: "mediator", doc: "merged x\nside 1 soap path= server", line: -1, directive: ""},
	{kind: "mediator", doc: "merged x\nside 1 soap server=1", line: 2, directive: "side"},
	{kind: "mediator", doc: "merged x\nside 1 soap path", line: 2, directive: "side"},
	{kind: "mediator", doc: "merged x\nside -1 soap\nside +1 soap", line: -1, directive: ""},
	{kind: "mediator", doc: "balance ghost p2c", line: 0, directive: ""},
	{kind: "mediator", doc: "discover ghost via=file path=x\nbalance ghost2 p2c\nmerged x\nside 1 soap", line: 2, directive: "balance"},
	{kind: "mediator", doc: "merged x\nside 1 soap\nbackend b a=1 a=2", line: 3, directive: "backend"},
	{kind: "mediator", doc: "merged x\nside 1 soap\ninvalidates w a,,b", line: 3, directive: "invalidates"},
	{kind: "mediator", doc: "merged x\nside 1 soap\ncacheable a ttl=1s vary=x,,y", line: 3, directive: "cacheable"},
	{kind: "mediator", doc: "merged x\nside 1 soap\ncacheable a ttl=1s\ncacheable a ttl=2s", line: 4, directive: "cacheable"},
	{kind: "mediator", doc: "merged x\nside 1 soap\ncacheable a ttl=1s\ninvalidates w a b,a", line: 0, directive: "invalidates"},
	{kind: "mediator", doc: "merged x\nside 1 soap\neject b fails=1\nbackend b :1 :2\nprobe b 1s timeout=5ms\nbalance b p2c", line: -1, directive: ""},
	{kind: "mediator", doc: "merged x\nside 1 soap\nbackoff 0s\nretries 0\nflow_deadline off\npool_idle off", line: -1, directive: "", nowLine: 5, nowDirective: "flow_deadline", why: "flow_deadline off removed: every flow has a budget"},
	{kind: "mediator", doc: "zap a=1 a=2", line: 1, directive: "zap"},
	{kind: "mediator", doc: "merged x y", line: 1, directive: "merged"},
	{kind: "mediator", doc: "merged x\nside 1 soap\nbackend b :1\neject b", line: 4, directive: "eject"},
	{kind: "mediator", doc: "\tmerged x \r\n side 1 soap server\r\n# c\n\n", line: -1, directive: ""},
	{kind: "gateway", doc: "route = =", line: -1, directive: "", nowLine: 1, nowDirective: "route", why: "empty option key given twice"},
	{kind: "gateway", doc: "route a b = =", line: 1, directive: "route"},
	{kind: "gateway", doc: "route a b\nsniff_bytes 8192", line: -1, directive: "", nowLine: 2, nowDirective: "sniff_bytes", why: "sniff_bytes above network.PeekSize"},
	{kind: "gateway", doc: "route a b\nsniff_bytes 4096", line: -1, directive: ""},
	{kind: "gateway", doc: "route a b\nsniff_bytes 4097", line: -1, directive: "", nowLine: 2, nowDirective: "sniff_bytes", why: "sniff_bytes above network.PeekSize"},
	{kind: "gateway", doc: "route a b match= path= payload=xml", line: 1, directive: "route"},
	{kind: "gateway", doc: "route a b path=", line: -1, directive: ""},
	{kind: "gateway", doc: "route a b match=http payload=json rate=1.5 burst=2 maxflows=3 deadline=1s path=/x", line: -1, directive: ""},
	{kind: "gateway", doc: "route a b rate=1e400", line: 1, directive: "route"},
	{kind: "gateway", doc: "route a b rate=0x1p-2", line: -1, directive: ""},
	{kind: "gateway", doc: "default a\nroute a b", line: -1, directive: ""},
	{kind: "gateway", doc: "route a b c", line: 1, directive: "route"},
	{kind: "gateway", doc: "listen a b\nroute a b", line: 1, directive: "listen"},
}

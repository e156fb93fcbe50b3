package core_test

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/fstest"
	"time"

	"starlink/internal/automata"
	"starlink/internal/bind"
	"starlink/internal/casestudy"
	"starlink/internal/core"
	"starlink/internal/protocol/httpwire"
	"starlink/internal/protocol/slp"
	"starlink/internal/protocol/ssdp"
	"starlink/internal/protocol/xmlrpc"
	"starlink/internal/services/photostore"
	"starlink/internal/services/picasa"
	"starlink/internal/testutil"
	"starlink/models"
)

// shippedModels loads the model files of models/ as the binaries carry
// them.
func shippedModels(t *testing.T) *core.Models {
	t.Helper()
	m, err := core.LoadModelsFS(models.FS)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// caseStudyModels is shippedModels with the placeholder Picasa address of
// both Flickr deployment specs replaced by a live one.
func caseStudyModels(t *testing.T, picasaAddr string) *core.Models {
	t.Helper()
	m := shippedModels(t)
	for _, name := range []string{"flickr-xmlrpc", "flickr-soap"} {
		spec := m.Mediators[name]
		spec.Sides[1].Target = picasaAddr
		spec.HostMap[casestudy.PicasaHost] = picasaAddr
	}
	return m
}

func TestLoadModels(t *testing.T) {
	// The directory also holds a README and a Go file, which are skipped.
	m, err := core.LoadModels("../../models")
	if err != nil {
		t.Fatal(err)
	}
	if m.Automata["AFlickr"] == nil || m.Automata["APicasa"] == nil {
		t.Error("usage automata not loaded")
	}
	if m.Merged["Flickr-XMLRPC-to-Picasa-REST"] == nil {
		t.Error("merged automaton not loaded")
	}
	if m.MDL["GIOP"] == nil {
		t.Error("MDL not loaded")
	}
	if len(m.Routes["picasa"]) != 3 {
		t.Errorf("routes = %d", len(m.Routes["picasa"]))
	}
	eq := m.Equivalences["flickr-picasa"]
	if eq == nil || !eq.Equivalent("text", "q") {
		t.Error("equivalence table not loaded")
	}
	spec := m.Mediators["flickr-xmlrpc"]
	if spec == nil || spec.MergedName != "Flickr-XMLRPC-to-Picasa-REST" {
		t.Errorf("mediator spec = %+v", spec)
	}
}

// TestLoadModelsAllocBudget: loading models/ allocates what the model set
// is made of and the file system costs, and no more: the automata are read
// through the one XML reader straight into their structs, with no
// reflection and no copy of a file (8 255 allocations when encoding/xml
// decoded them).
func TestLoadModelsAllocBudget(t *testing.T) {
	const budget = 1960
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := core.LoadModels("../../models"); err != nil {
			t.Fatal(err)
		}
	})
	if testutil.RaceEnabled {
		return
	}
	if allocs > budget {
		t.Errorf("LoadModels allocated %.0f times, budget %d", allocs, budget)
	}
}

// BenchmarkLoadModels is one load of models/ from the directory, as
// starlink run and starlink gateway do at start, and the gateway again on
// SIGHUP.
func BenchmarkLoadModels(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.LoadModels("../../models"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestShippedModelsLoadAndBuild holds the files under models/ to what the
// binaries do with them: the embedded set is the directory (so a file with
// an extension the embed pattern misses is caught), and Check finds nothing
// in it — every deployment spec, each gateway and its routes too, names
// models that are there and builds.
func TestShippedModelsLoadAndBuild(t *testing.T) {
	m := shippedModels(t)
	fromDir, err := core.LoadModels("../../models")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, fromDir) {
		t.Error("models.FS and the models directory load to different sets")
	}
	if err := m.Check(); err != nil {
		t.Error(err)
	}
	if len(m.Mediators) != 3 || len(m.Gateways) != 1 {
		t.Errorf("shipped %d mediator and %d gateway specs, want 3 and 1", len(m.Mediators), len(m.Gateways))
	}
}

// editedModels is a copy of models.FS with the first old in file replaced
// by new.
func editedModels(t *testing.T, file, old, new string) fstest.MapFS {
	t.Helper()
	fsys := fstest.MapFS{}
	entries, err := fs.ReadDir(models.FS, ".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := fs.ReadFile(models.FS, e.Name())
		if err != nil {
			t.Fatal(err)
		}
		fsys[e.Name()] = &fstest.MapFile{Data: data}
	}
	f, ok := fsys[file]
	if !ok || !strings.Contains(string(f.Data), old) {
		t.Fatalf("models/%s does not hold %q", file, old)
	}
	f.Data = []byte(strings.Replace(string(f.Data), old, new, 1))
	return fsys
}

// TestCheckFindsSeededDefects: each row seeds one defect into a copy of the
// shipped models, and loading and checking the copy — what `starlink check`
// does — reports exactly one finding, naming the file and the defect. A
// defect of one file is a load finding; one that shows only when a spec is
// built is the spec's, once, though a gateway hosts it too.
func TestCheckFindsSeededDefects(t *testing.T) {
	const ssdp, flickr = "ssdp-to-slp.merged.xml", "flickr-xmlrpc-to-picasa-rest.merged.xml"
	for _, tt := range []struct {
		name, file, old, new string
		where, defect        string // the file the finding names, and what it says
	}{
		{"a γ-only cycle never ends", ssdp, `<transition kind="gamma" from="m1" to="m2">`,
			`<state name="m7"></state><transition kind="gamma" from="m7" to="m1"></transition><transition kind="gamma" from="m1" to="m7">`,
			ssdp, `state "m7" has no path to a final state`},
		{"no traversal enters a state", ssdp, `<final name="m6">`, `<state name="m7"></state><final name="m6">`,
			ssdp, `state "m7" unreachable`},
		{"an arc leaves the final state", ssdp, `<final name="m6">`,
			`<transition kind="message" from="m6" to="m2" color="2" action="send" message="discovery.search"></transition><final name="m6">`,
			ssdp, `leaves final state "m6"`},
		{"a transition names an undeclared state", ssdp, `from="m5" to="m6"`, `from="m5" to="m9"`,
			ssdp, "names an undeclared state"},
		{"a REST send has no route", flickr, `message="picasa.addComment"`, `message="picasa.addComments"`,
			"flickr-xmlrpc.mediator", `operation "picasa.addComments" has no route in table "picasa"`},
		{"an MDL document does not compile", "giop.mdl", "<MessageSize:32>", "<Repeat:Items:Count><Item:8><End:Repeat><Count:8>\n<MessageSize:32>",
			"giop.mdl", `repeat count "Count" not declared earlier`},
		{"a spec names an unloaded merged automaton", "discovery.mediator", "merged SSDP-to-SLP-discovery", "merged SSDP-to-SLP",
			"discovery.mediator", `merged automaton "SSDP-to-SLP" not loaded`},
		{"a side names an unloaded defs= automaton", "flickr-xmlrpc.mediator", "defs=AFlickr", "defs=AFlicker",
			"flickr-xmlrpc.mediator", `defs automaton "AFlicker" not loaded`},
		{"a side names an unloaded route table", "flickr-soap.mediator", "routes=picasa", "routes=picassa",
			"flickr-soap.mediator", `route table "picassa" not loaded`},
		{"a spec names an unloaded vocabulary map", "discovery.mediator", "typemap upnp-to-slp", "typemap upnp",
			"discovery.mediator", `vocabulary map "upnp" not loaded`},
		{"a cacheable operation is not a service invocation", "flickr-xmlrpc.mediator", "hostmap ", "cacheable flickr.photos.search ttl=30s\nhostmap ",
			"flickr-xmlrpc.mediator", `cacheable operation "flickr.photos.search" is not a service-side invocation`},
		{"a γ does not compile", ssdp, `m2.Msg.scope = "DEFAULT"`, `m2.Msg.scope = = "DEFAULT"`,
			"discovery.mediator", "γ m1->m2: mtl: parse error: line 3:"},
		{"a branch offers an action twice", flickr, `<final name="m21">`,
			`<transition kind="message" from="m0" to="m1" color="1" action="send" message="flickr.photos.search"></transition><final name="m21">`,
			"flickr-xmlrpc.mediator", `offers "flickr.photos.search" twice`},
		{"a gateway route hosts a UDP protocol", "flickr.gateway", "default xmlrpc", "route disco discovery\ndefault xmlrpc",
			"flickr.gateway", `protocol "ssdp" cannot be gateway-hosted`},
	} {
		t.Run(tt.name, func(t *testing.T) {
			m, err := core.LoadModelsFS(editedModels(t, tt.file, tt.old, tt.new))
			if err == nil {
				err = m.Check()
			}
			var findings []error
			if j, ok := err.(interface{ Unwrap() []error }); ok {
				findings = j.Unwrap()
			}
			if len(findings) != 1 || !strings.Contains(findings[0].Error(), tt.where+": ") || !strings.Contains(findings[0].Error(), tt.defect) {
				t.Errorf("got %d findings, want one naming %s and saying %s: %v", len(findings), tt.where, tt.defect, err)
			}
		})
	}
}

// TestBuildRefusesAnUnroutedRESTSend: a REST side's route table must route
// every operation the automaton sends on it, or a flow would fail at that
// operation after the service calls before it.
func TestBuildRefusesAnUnroutedRESTSend(t *testing.T) {
	m, err := core.LoadModelsFS(editedModels(t, "picasa.routes", "route picasa.addComment ", "# route picasa.addComment "))
	if err == nil {
		_, err = m.BuildMediator(m.Mediators["flickr-xmlrpc"])
	}
	if !errors.Is(err, core.ErrSpec) || !strings.Contains(err.Error(), `"picasa.addComment" has no route`) {
		t.Errorf("err = %v, want ErrSpec: picasa.addComment has no route", err)
	}
}

func TestLoadModelsErrors(t *testing.T) {
	if _, err := core.LoadModels("/no/such/dir"); err == nil {
		t.Error("missing dir accepted")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.automaton.xml"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := core.LoadModels(dir); !errors.Is(err, core.ErrModel) {
		t.Errorf("bad automaton err = %v", err)
	}
	for name, content := range map[string]string{
		"bad.merged.xml": "junk",
		"bad.mdl":        "junk",
		"bad.routes":     "junk",
		"bad.equiv":      "no pairs here",
		"bad.mediator":   "zap",
		// Parses, but a repeated group cannot count by a field declared after it.
		"uncompilable.mdl": "<MDL:X:binary>\n<Message:M>\n<Repeat:Items:Count><Item:8><End:Repeat>\n<Count:8>\n<End:Message>",
	} {
		d := t.TempDir()
		if err := os.WriteFile(filepath.Join(d, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := core.LoadModels(d); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestParseEquivalence(t *testing.T) {
	eq, err := core.ParseEquivalence("# c\n a = b \nx=y\n")
	if err != nil {
		t.Fatal(err)
	}
	if !eq.Equivalent("a", "b") || !eq.Equivalent("y", "x") {
		t.Error("pairs not loaded")
	}
	if _, err := core.ParseEquivalence("nonsense line"); err == nil {
		t.Error("bad line accepted")
	}
	if _, err := core.ParseEquivalence("# nothing"); err == nil {
		t.Error("empty table accepted")
	}
}

func TestParseMediatorSpecErrors(t *testing.T) {
	cases := []string{
		"",
		"merged x",                                       // no sides
		"side 1 xmlrpc server",                           // no merged
		"merged x\nside one xmlrpc",                      // bad color
		"merged x\nside 1x xmlrpc",                       // color with a trailing letter
		"merged x\nside 2.5 soap",                        // fractional color
		"merged x\nside 1 xmlrpc foo",                    // bad option
		"merged x\nside 1 xmlrpc a=b",                    // unknown option
		"merged x\nside 1 xmlrpc\nwat 1",                 // unknown directive
		"merged x\nmerged",                               // malformed merged
		"merged x\nlisten",                               // malformed listen
		"merged x\nside 1",                               // short side
		"merged x\nside 1 xmlrpc\nhostmap nope",          // malformed hostmap
		"merged x\nside 1 xmlrpc\nretries",               // malformed retries
		"merged x\nside 1 xmlrpc\nretries -1",            // negative retries
		"merged x\nside 1 xmlrpc\nretries two",           // non-numeric retries
		"merged x\nside 1 xmlrpc\nbackoff",               // malformed backoff
		"merged x\nside 1 xmlrpc\nbackoff -5ms",          // negative backoff
		"merged x\nside 1 xmlrpc\nbackoff fast",          // unparseable backoff
		"merged x\nside 1 xmlrpc\ndialtimeout",           // malformed dialtimeout
		"merged x\nside 1 xmlrpc\ndialtimeout 0s",        // zero dialtimeout
		"merged x\nside 1 xmlrpc\nmax_backoff",           // malformed max_backoff
		"merged x\nside 1 xmlrpc\nmax_backoff 0s",        // zero max_backoff
		"merged x\nside 1 xmlrpc\nmax_backoff -1s",       // negative max_backoff
		"merged x\nside 1 xmlrpc\nflow_deadline",         // malformed flow_deadline
		"merged x\nside 1 xmlrpc\nflow_deadline 0s",      // zero flow_deadline
		"merged x\nside 1 xmlrpc\nflow_deadline -200ms",  // negative flow_deadline
		"merged x\nside 1 xmlrpc\nflow_deadline soonish", // unparseable flow_deadline
		// The last one used to win without a word:
		"merged x\nside 1 xmlrpc server\nside 1 soap target=a:1",                     // two sides of one color
		"merged x\nside 1 xmlrpc server\nside 2 soap server",                         // two server sides
		"merged x\nside 1 xmlrpc\nhostmap a = b\nhostmap a = c",                      // one host mapped twice
		"merged x\nside 1 xmlrpc path=/a path=/b",                                    // option twice: side
		"merged x\nside 1 xmlrpc\ncacheable op ttl=1s ttl=2s",                        // option twice: cacheable
		"merged x\nside 1 xmlrpc\nbackend b :1\nprobe b 1s timeout=1s timeout=2s",    // option twice: probe
		"merged x\nside 1 xmlrpc\nbackend b :1\neject b fails=1 fails=2",             // option twice: eject
		"merged x\nside 1 xmlrpc\nbackend b :1\ndiscover b via=file path=/x path=/y", // option twice: discover
	}
	for _, doc := range cases {
		if _, err := core.ParseMediatorSpec(doc); !errors.Is(err, core.ErrSpec) {
			t.Errorf("ParseMediatorSpec(%q) err = %v", doc, err)
		}
	}
}

func TestParseMediatorSpecFaultDirectives(t *testing.T) {
	spec, err := core.ParseMediatorSpec(`
merged Add+Plus
side 1 giop defs=AAdd server
side 2 soap path=/soap target=127.0.0.1:9999
retries 4
backoff 25ms
max_backoff 800ms
dialtimeout 3s
flow_deadline 1500ms
`)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Retries == nil || *spec.Retries != 4 {
		t.Errorf("Retries = %v, want 4", spec.Retries)
	}
	if spec.Backoff != 25*time.Millisecond {
		t.Errorf("Backoff = %v", spec.Backoff)
	}
	if spec.DialTimeout != 3*time.Second {
		t.Errorf("DialTimeout = %v", spec.DialTimeout)
	}
	if spec.MaxBackoff != 800*time.Millisecond {
		t.Errorf("MaxBackoff = %v", spec.MaxBackoff)
	}
	if spec.FlowDeadline != 1500*time.Millisecond {
		t.Errorf("FlowDeadline = %v", spec.FlowDeadline)
	}

	// Every flow has a budget: flow_deadline off is refused, naming its line.
	var se *core.SpecError
	if _, err = core.ParseMediatorSpec("merged x\nside 1 xmlrpc path=/x server\nflow_deadline off"); !errors.As(err, &se) || se.Line != 3 || se.Directive != "flow_deadline" {
		t.Errorf("flow_deadline off: err = %v, want a SpecError for line 3, directive flow_deadline", err)
	}

	// retries 0 is valid and means "disable recovery".
	spec, err = core.ParseMediatorSpec("merged x\nside 1 xmlrpc path=/x server\nretries 0")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Retries == nil || *spec.Retries != 0 {
		t.Errorf("Retries = %v, want 0", spec.Retries)
	}

	// Omitted directives leave the engine defaults in charge.
	spec, err = core.ParseMediatorSpec("merged x\nside 1 xmlrpc path=/x server")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Retries != nil || spec.Backoff != 0 || spec.DialTimeout != 0 ||
		spec.MaxBackoff != 0 || spec.FlowDeadline != 0 {
		t.Errorf("defaults polluted: %+v", spec)
	}
}

func TestBuildBinderErrors(t *testing.T) {
	m := core.NewModels()
	cases := []core.SideSpec{
		{Protocol: "warp"},
		{Protocol: "rest", Routes: "missing"},
		{Protocol: "xmlrpc", Defs: "missing"},
	}
	for _, ss := range cases {
		if _, err := m.BuildBinder(ss); err == nil {
			t.Errorf("BuildBinder(%+v) accepted", ss)
		}
	}
}

func TestMergeFromModels(t *testing.T) {
	m := shippedModels(t)
	merged, err := m.Merge("AFlickr", "APicasa", "flickr-picasa", "auto")
	if err != nil {
		t.Fatal(err)
	}
	if merged.Strength != automata.StronglyMerged {
		t.Errorf("strength = %v", merged.Strength)
	}
	if m.Merged["auto"] == nil {
		t.Error("merge result not registered")
	}
	for _, bad := range [][3]string{
		{"nope", "APicasa", "flickr-picasa"},
		{"AFlickr", "nope", "flickr-picasa"},
		{"AFlickr", "APicasa", "nope"},
	} {
		if _, err := m.Merge(bad[0], bad[1], bad[2], "x"); err == nil {
			t.Errorf("Merge(%v) accepted", bad)
		}
	}
}

// TestMediatorFromDiskModels runs the whole case study driven purely by
// the shipped model files (models.FS) — the deployment path of Section
// 5.1: load models, start the mediator, point the unmodified client at it.
func TestMediatorFromDiskModels(t *testing.T) {
	store := photostore.New()
	pic, err := picasa.New(store)
	if err != nil {
		t.Fatal(err)
	}
	defer pic.Close()

	m := caseStudyModels(t, pic.Addr())
	med, err := m.DeployAny("flickr-xmlrpc", core.DeployOptions{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer med.Close()

	c := xmlrpc.NewClient(med.Addr(), "/services/xmlrpc")
	defer c.Close()
	v, err := c.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{
		"text": "tree", "per_page": int64(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	photos := v.(map[string]xmlrpc.Value)["photos"].([]xmlrpc.Value)
	if len(photos) != 2 {
		t.Errorf("photos = %d", len(photos))
	}
	if _, err := m.DeployAny("missing", core.DeployOptions{}); !errors.Is(err, core.ErrSpec) {
		t.Errorf("missing spec err = %v", err)
	}
}

// TestE9Evolution is experiment E9: the Picasa API evolves (v2 renames
// the q and max-results parameters to query and limit). Interoperability
// is restored by editing ONE line of the route model; the merged
// automaton, the binding code and the client are untouched.
func TestE9Evolution(t *testing.T) {
	store := photostore.New()
	picV2, err := picasa.NewWithConfig(store, picasa.Config{
		SearchParam: "query", LimitParam: "limit",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer picV2.Close()

	m := caseStudyModels(t, picV2.Addr())
	// The one-line model edit: remap the search route's query parameters.
	v2Routes := strings.ReplaceAll(casestudy.PicasaRoutesDoc,
		"q=q max-results=max-results", "query=q limit=max-results")
	if m.Routes["picasa"], err = bind.ParseRoutes(v2Routes); err != nil {
		t.Fatal(err)
	}
	med, err := m.DeployAny("flickr-xmlrpc", core.DeployOptions{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer med.Close()

	c := xmlrpc.NewClient(med.Addr(), "/services/xmlrpc")
	defer c.Close()
	v, err := c.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{
		"text": "tree", "per_page": int64(3),
	})
	if err != nil {
		t.Fatalf("v2 search through one-line model edit: %v", err)
	}
	photos := v.(map[string]xmlrpc.Value)["photos"].([]xmlrpc.Value)
	if len(photos) != 3 {
		t.Fatalf("v2 photos = %d", len(photos))
	}
	// The rest of the flow, which v2 left alone, still completes.
	id := photos[0].(map[string]xmlrpc.Value)["id"]
	for _, call := range []struct {
		method string
		params map[string]xmlrpc.Value
	}{
		{casestudy.FlickrGetInfo, map[string]xmlrpc.Value{"photo_id": id}},
		{casestudy.FlickrGetComments, map[string]xmlrpc.Value{"photo_id": id}},
		{casestudy.FlickrAddComment, map[string]xmlrpc.Value{"photo_id": id, "comment_text": "v2 comment"}},
	} {
		if _, err := c.Call(call.method, call.params); err != nil {
			t.Errorf("%s against the v2 API: %v", call.method, err)
		}
	}

	// Control: WITHOUT the model edit, the v1 routes no longer work
	// against the v2 API (the evolution really broke the wire contract).
	m1 := caseStudyModels(t, picV2.Addr())
	medStale, err := m1.DeployAny("flickr-xmlrpc", core.DeployOptions{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer medStale.Close()
	cStale := xmlrpc.NewClient(medStale.Addr(), "/services/xmlrpc")
	defer cStale.Close()
	if _, err := cStale.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{
		"text": "tree",
	}); err == nil {
		t.Error("stale v1 routes unexpectedly worked against the v2 API")
	}
}

// TestDiscoveryMediatorFromDiskModels drives the SSDP->SLP discovery
// mediation entirely from model files, including the vocabulary map
// (.typemap) artifact.
func TestDiscoveryMediatorFromDiskModels(t *testing.T) {
	da, err := slp.NewDirectoryAgent("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer da.Close()
	da.Register("service:printer:lpr", slp.URLEntry{
		URL: "service:printer:lpr://modeled.example", Lifetime: 60,
	})

	m := shippedModels(t)
	m.Mediators["discovery"].Sides[1].Target = da.Addr()
	if len(m.TypeMaps["upnp-to-slp"]) != 3 {
		t.Errorf("typemap = %v", m.TypeMaps["upnp-to-slp"])
	}
	med, err := m.DeployAny("discovery", core.DeployOptions{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer med.Close()

	responses, err := ssdp.Search(med.Addr(), "urn:schemas-upnp-org:service:Printer:1", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if responses[0].Location != "service:printer:lpr://modeled.example" {
		t.Errorf("location = %q", responses[0].Location)
	}
}

// TestDiscoveryMediatorTransportFromProtocol deploys the discovery spec
// with no word about its transport: the SSDP side must still listen on
// UDP, because its binder frames datagrams, and an M-SEARCH sent there
// must be answered from the SLP Directory Agent.
func TestDiscoveryMediatorTransportFromProtocol(t *testing.T) {
	da, err := slp.NewDirectoryAgent("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer da.Close()
	da.Register("service:printer:lpr", slp.URLEntry{URL: "service:printer:lpr://inline.example", Lifetime: 60})

	m := shippedModels(t)
	spec, err := core.ParseMediatorSpec("merged SSDP-to-SLP-discovery\ntypemap upnp-to-slp\nside 1 ssdp server\nside 2 slp target=" + da.Addr())
	if err != nil {
		t.Fatal(err)
	}
	m.Mediators["inline-discovery"] = spec
	med, err := m.DeployAny("inline-discovery", core.DeployOptions{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer med.Close()
	responses, err := ssdp.Search(med.Addr(), "urn:schemas-upnp-org:service:Printer:1", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if responses[0].Location != "service:printer:lpr://inline.example" {
		t.Errorf("location = %q", responses[0].Location)
	}
}

// TestServerSideWithoutServerWord hosts a mediator whose spec marks no side
// `server` behind a gateway. The client-facing side is then the one on the
// merged automaton's first colour, for the gateway route as for a
// standalone deployment, so the models check clean.
func TestServerSideWithoutServerWord(t *testing.T) {
	m := shippedModels(t)
	spec := m.Mediators["flickr-xmlrpc"]
	for i := range spec.Sides {
		spec.Sides[i].Server = false
	}
	if err := m.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	// A spec with no side on that colour has no client-facing side at all.
	spec.Sides = slices.DeleteFunc(spec.Sides, func(s core.SideSpec) bool { return s.Color == m.Merged[spec.MergedName].Color1 })
	if _, err := m.BuildMediator(spec); !errors.Is(err, core.ErrSpec) {
		t.Errorf("BuildMediator with no client-facing side = %v, want ErrSpec", err)
	}
}

func TestParseTypeMapErrors(t *testing.T) {
	if _, err := core.ParseTypeMap("bogus line"); err == nil {
		t.Error("bad line accepted")
	}
	if _, err := core.ParseTypeMap("# only comments"); err == nil {
		t.Error("empty map accepted")
	}
	tm, err := core.ParseTypeMap(" a = b \n# c\nd=e")
	if err != nil || tm["a"] != "b" || tm["d"] != "e" {
		t.Errorf("tm = %v, %v", tm, err)
	}
}

func TestMediatorSpecTypemapAndUDP(t *testing.T) {
	spec, err := core.ParseMediatorSpec("merged m\ntypemap v\nside 1 ssdp server\nside 2 slp target=x")
	if err != nil {
		t.Fatal(err)
	}
	if spec.TypeMap != "v" {
		t.Errorf("typemap = %q", spec.TypeMap)
	}
	if !spec.Sides[0].Server {
		t.Errorf("side0 = %+v", spec.Sides[0])
	}
	// The transport is the protocol's: ssdp and slp travel over UDP, and
	// a side cannot say so again.
	if _, err := core.ParseMediatorSpec("merged m\nside 1 ssdp server udp"); err == nil {
		t.Error("side option udp accepted")
	}
	if _, err := core.ParseMediatorSpec("merged m\ntypemap"); err == nil {
		t.Error("malformed typemap directive accepted")
	}
	// Unknown typemap at build time.
	m := core.NewModels()
	spec.MergedName = "m"
	if _, err := m.BuildMediator(spec); err == nil {
		t.Error("missing merged+typemap accepted")
	}
}

func TestParseMediatorSpecPoolDirectives(t *testing.T) {
	spec, err := core.ParseMediatorSpec(`
merged Add+Plus
side 1 giop defs=AAdd server
side 2 soap path=/soap target=127.0.0.1:9999
pool_size 16
pool_idle 30s
`)
	if err != nil {
		t.Fatal(err)
	}
	if spec.PoolSize != 16 {
		t.Errorf("PoolSize = %d, want 16", spec.PoolSize)
	}
	if spec.PoolIdle != 30*time.Second {
		t.Errorf("PoolIdle = %v, want 30s", spec.PoolIdle)
	}

	// pool_idle off disables idle keep-alive.
	spec, err = core.ParseMediatorSpec("merged x\nside 1 xmlrpc path=/x server\npool_idle off")
	if err != nil {
		t.Fatal(err)
	}
	if spec.PoolIdle >= 0 {
		t.Errorf("PoolIdle = %v, want negative for off", spec.PoolIdle)
	}

	for _, doc := range []string{
		"merged x\nside 1 xmlrpc\npool_size",      // malformed pool_size
		"merged x\nside 1 xmlrpc\npool_size 0",    // zero pool_size
		"merged x\nside 1 xmlrpc\npool_size -2",   // negative pool_size
		"merged x\nside 1 xmlrpc\npool_size big",  // non-numeric pool_size
		"merged x\nside 1 xmlrpc\npool_idle",      // malformed pool_idle
		"merged x\nside 1 xmlrpc\npool_idle 0s",   // zero pool_idle
		"merged x\nside 1 xmlrpc\npool_idle slow", // unparseable pool_idle
	} {
		if _, err := core.ParseMediatorSpec(doc); !errors.Is(err, core.ErrSpec) {
			t.Errorf("ParseMediatorSpec(%q) err = %v", doc, err)
		}
	}
}

// TestSpecErrorsNameDirective: every malformed directive is reported with
// the directive's own name and a line number, so a long spec stays
// debuggable.
func TestSpecErrorsNameDirective(t *testing.T) {
	cases := []struct {
		doc       string
		directive string
	}{
		{"merged x\nside 1 xmlrpc\nretries two", "retries"},
		{"merged x\nside 1 xmlrpc\nbackoff fast", "backoff"},
		{"merged x\nside 1 xmlrpc\ndialtimeout 0s", "dialtimeout"},
		{"merged x\nside 1 xmlrpc\npool_size zero", "pool_size"},
		{"merged x\nside 1 xmlrpc\npool_idle never", "pool_idle"},
		{"merged x\nside one xmlrpc", "side"},
		{"merged x\nside 1x xmlrpc", "side"},
		{"merged x\nside 2.5 soap", "side"},
		{"merged x\nside 1 xmlrpc\nhostmap nope", "hostmap"},
		{"merged x\nside 1 xmlrpc\nlisten", "listen"},
		{"merged x\nside 1 xmlrpc path=/a path=/b", "side"},
		{"merged x\nside 1 xmlrpc\ncacheable op ttl=1s ttl=2s", "cacheable"},
		{"merged x\nbackend b :1\ndiscover b via=file path=/x path=/y\nside 1 xmlrpc", "discover"},
	}
	for _, tt := range cases {
		_, err := core.ParseMediatorSpec(tt.doc)
		if err == nil {
			t.Errorf("ParseMediatorSpec(%q) accepted", tt.doc)
			continue
		}
		if !strings.Contains(err.Error(), "directive \""+tt.directive+"\"") {
			t.Errorf("error %q does not name directive %q", err, tt.directive)
		}
		if !strings.Contains(err.Error(), "line 3") && !strings.Contains(err.Error(), "line 2") {
			t.Errorf("error %q lacks line context", err)
		}
	}
	// A second side of a color, a second server and a second mapping of a
	// host name the line of the first.
	for doc, directive := range map[string]string{
		"merged x\nside 1 xmlrpc server\nside 1 soap target=a:1": "side",
		"merged x\nside 1 xmlrpc server\nside 2 soap server":     "side",
		"side 1 xmlrpc\nhostmap a = b\nhostmap a = c\nmerged x":  "hostmap",
	} {
		var se *core.SpecError
		if _, err := core.ParseMediatorSpec(doc); !errors.As(err, &se) ||
			se.Directive != directive || se.Line != 3 || !strings.Contains(se.Msg, "line 2") {
			t.Errorf("ParseMediatorSpec(%q) err = %v, want a SpecError for %s on line 3 naming line 2", doc, err, directive)
		}
	}
}

func TestMustMerge(t *testing.T) {
	m := shippedModels(t)
	merged := m.MustMerge("AFlickr", "APicasa", "flickr-picasa", "must")
	if merged == nil || m.Merged["must"] == nil {
		t.Fatal("MustMerge result not registered")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustMerge with missing automaton did not panic")
		}
	}()
	m.MustMerge("nope", "APicasa", "flickr-picasa", "x")
}

func TestParseMediatorSpecAdminDirective(t *testing.T) {
	spec, err := core.ParseMediatorSpec("merged x\nside 1 xmlrpc path=/x server\nadmin 127.0.0.1:9090")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Admin != "127.0.0.1:9090" {
		t.Errorf("Admin = %q", spec.Admin)
	}
	if _, err := core.ParseMediatorSpec("merged x\nside 1 xmlrpc\nadmin"); !errors.Is(err, core.ErrSpec) {
		t.Errorf("bare admin err = %v", err)
	}
}

// TestDeployWithAdmin stands up a full observed deployment from the shipped
// models: mediator plus flow tracer plus admin endpoint, with the admin
// address supplied as an override.
func TestDeployWithAdmin(t *testing.T) {
	store := photostore.New()
	pic, err := picasa.New(store)
	if err != nil {
		t.Fatal(err)
	}
	defer pic.Close()

	m := caseStudyModels(t, pic.Addr())
	dep, err := m.Deploy("flickr-xmlrpc", "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if dep.Observer == nil || dep.Admin == nil {
		t.Fatal("deployment missing observability attachments")
	}

	c := xmlrpc.NewClient(dep.Mediator.Addr(), "/services/xmlrpc")
	v, err := c.Call(casestudy.FlickrSearch, map[string]xmlrpc.Value{
		"text": "tree", "per_page": int64(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if photos := v.(map[string]xmlrpc.Value)["photos"].([]xmlrpc.Value); len(photos) != 1 {
		t.Errorf("photos = %d", len(photos))
	}
	c.Close()

	hc := &httpwire.Client{Addr: dep.Admin.Addr()}
	defer hc.Close()
	resp, err := hc.Get("/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || !strings.Contains(string(resp.Body), "\"ok\"") {
		t.Errorf("healthz = %d %s", resp.Status, resp.Body)
	}
	resp, err = hc.Get("/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp.Body), "starlink_sessions_total 1") {
		t.Errorf("metrics missing session count:\n%s", resp.Body)
	}
	resp, err = hc.Get("/automaton.dot")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp.Body), "digraph") {
		t.Errorf("automaton.dot = %s", resp.Body)
	}

	// Without an admin address the deployment is a bare mediator.
	bare, err := m.Deploy("flickr-xmlrpc", "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if bare.Observer != nil || bare.Admin != nil {
		t.Error("bare deployment grew observability attachments")
	}
}

func TestParseMediatorSpecBackendDirectives(t *testing.T) {
	spec, err := core.ParseMediatorSpec(`
merged Add+Plus
side 1 giop defs=AAdd server
side 2 soap path=/soap target=photos
# tuning may precede the declaration it refers to
balance photos p2c
backend photos 10.0.0.1:80 10.0.0.2:80 10.0.0.3:80
probe photos 250ms timeout=1s
eject photos fails=2 cooloff=500ms max_cooloff=10s min_live=2
backend orders 10.0.1.1:80
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Backends) != 2 {
		t.Fatalf("Backends = %+v, want photos and orders", spec.Backends)
	}
	photos := spec.Backends[0]
	if photos.Name != "photos" || len(photos.Addrs) != 3 {
		t.Errorf("photos = %+v", photos)
	}
	if photos.Policy != "p2c" {
		t.Errorf("Policy = %q, want p2c", photos.Policy)
	}
	if photos.ProbeInterval != 250*time.Millisecond || photos.ProbeTimeout != time.Second {
		t.Errorf("probe = %v/%v", photos.ProbeInterval, photos.ProbeTimeout)
	}
	if photos.FailThreshold != 2 || photos.Cooloff != 500*time.Millisecond ||
		photos.MaxCooloff != 10*time.Second || photos.MinLive != 2 {
		t.Errorf("eject = %+v", photos)
	}
	orders := spec.Backends[1]
	if orders.Name != "orders" || orders.Policy != "" || orders.ProbeInterval != 0 {
		t.Errorf("orders = %+v, want untouched defaults", orders)
	}
}

func TestParseMediatorSpecBackendErrors(t *testing.T) {
	const head = "merged x\nside 1 xmlrpc path=/x server\n"

	// A duplicate backend name is rejected naming both lines.
	_, err := core.ParseMediatorSpec(head + "backend b 1.1.1.1:1\nbackend b 2.2.2.2:2")
	if !errors.Is(err, core.ErrSpec) {
		t.Fatalf("duplicate backend err = %v", err)
	}
	var se *core.SpecError
	if !errors.As(err, &se) {
		t.Fatalf("duplicate backend err %T is not a *SpecError", err)
	}
	if se.Line != 4 || se.Directive != "backend" {
		t.Errorf("SpecError = %+v, want line 4 directive backend", se)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %q does not name the first declaration line", err)
	}

	// A backend with zero addresses is rejected.
	_, err = core.ParseMediatorSpec(head + "backend lonely")
	if !errors.As(err, &se) || se.Directive != "backend" {
		t.Fatalf("zero-address backend err = %v", err)
	}
	if !strings.Contains(err.Error(), "no replica addresses") {
		t.Errorf("error %q does not explain the zero-address problem", err)
	}

	for _, doc := range []string{
		head + "backend b 1.1.1.1:1 1.1.1.1:1",                            // replica listed twice
		head + "balance b p2c",                                            // undeclared backend
		head + "probe b 1s",                                               // undeclared backend
		head + "eject b fails=1",                                          // undeclared backend
		head + "backend b 1.1.1.1:1\nbalance b lifo",                      // unknown policy
		head + "backend b 1.1.1.1:1\nbalance b",                           // malformed balance
		head + "backend b 1.1.1.1:1\nprobe b fast",                        // bad interval
		head + "backend b 1.1.1.1:1\nprobe b 1s t=2",                      // unknown probe option
		head + "backend b 1.1.1.1:1\neject b",                             // no options
		head + "backend b 1.1.1.1:1\neject b fails=0",                     // non-positive fails
		head + "backend b 1.1.1.1:1\neject b cooloff=-1s",                 // negative cooloff
		head + "backend b 1.1.1.1:1\neject b wat=1",                       // unknown eject option
		head + "backend b 1.1.1.1:1\nbalance b p2c\nbalance b roundrobin", // duplicate tuning
		head + "backend b 1.1.1.1:1\nprobe b 1s\nprobe b 2s",              // duplicate tuning
		head + "backend b 1.1.1.1:1\neject b fails=1\neject b fails=2",    // duplicate tuning
	} {
		if _, err := core.ParseMediatorSpec(doc); !errors.Is(err, core.ErrSpec) {
			t.Errorf("ParseMediatorSpec(%q) err = %v, want ErrSpec", doc, err)
		}
	}
}

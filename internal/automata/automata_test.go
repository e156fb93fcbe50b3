package automata_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"starlink/internal/automata"
	"starlink/internal/casestudy"
	"starlink/models"
)

func validFlickr(t *testing.T) *automata.Automaton {
	t.Helper()
	a := casestudy.FlickrUsage()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestActionParseAndString(t *testing.T) {
	tests := []struct {
		in   string
		want automata.Action
	}{
		{"send", automata.Send}, {"!", automata.Send},
		{"receive", automata.Receive}, {"recv", automata.Receive}, {"?", automata.Receive},
	}
	for _, tt := range tests {
		got, err := automata.ParseAction(tt.in)
		if err != nil || got != tt.want {
			t.Errorf("ParseAction(%q) = %v, %v", tt.in, got, err)
		}
	}
	if _, err := automata.ParseAction("zap"); err == nil {
		t.Error("bad action accepted")
	}
	if automata.Send.String() != "!" || automata.Receive.String() != "?" {
		t.Error("action notation wrong")
	}
}

// TestE1FlickrPicasaAutomataValid is experiment E1: the Fig. 2 API usage
// automata are structurally valid models.
func TestE1FlickrPicasaAutomataValid(t *testing.T) {
	for _, a := range []*automata.Automaton{casestudy.FlickrUsage(), casestudy.PicasaUsage()} {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
	fl := casestudy.FlickrUsage()
	ops := fl.Operations()
	if len(ops) != 4 {
		t.Fatalf("Flickr operations = %d, want 4", len(ops))
	}
	if ops[0].Request != casestudy.FlickrSearch || ops[0].Reply != casestudy.FlickrSearchReply {
		t.Errorf("op0 = %+v", ops[0])
	}
	if ops[3].Request != casestudy.FlickrAddComment {
		t.Errorf("op3 = %+v", ops[3])
	}
	pi := casestudy.PicasaUsage()
	if got := len(pi.Operations()); got != 3 {
		t.Errorf("Picasa operations = %d, want 3", got)
	}
}

func TestValidateRejections(t *testing.T) {
	base := func() *automata.Automaton { return casestudy.FlickrUsage() }
	tests := []struct {
		name   string
		mutate func(*automata.Automaton)
	}{
		{"no name", func(a *automata.Automaton) { a.Name = "" }},
		{"no start", func(a *automata.Automaton) { a.Start = "" }},
		{"undeclared start", func(a *automata.Automaton) { a.Start = "zz" }},
		{"no finals", func(a *automata.Automaton) { a.Final = nil }},
		{"undeclared final", func(a *automata.Automaton) { a.Final = []string{"zz"} }},
		{"empty state name", func(a *automata.Automaton) { a.States = append(a.States, "") }},
		{"duplicate state", func(a *automata.Automaton) { a.States = append(a.States, "s0") }},
		{"dangling transition", func(a *automata.Automaton) {
			a.Transitions = append(a.Transitions, automata.Transition{From: "s0", To: "zz", Action: automata.Send, Message: "m"})
		}},
		{"no action", func(a *automata.Automaton) {
			a.Transitions = append(a.Transitions, automata.Transition{From: "s0", To: "s1", Message: "m"})
		}},
		{"no message", func(a *automata.Automaton) {
			a.Transitions = append(a.Transitions, automata.Transition{From: "s0", To: "s1", Action: automata.Send})
		}},
		{"unreachable state", func(a *automata.Automaton) { a.States = append(a.States, "island") }},
		{"final unreachable", func(a *automata.Automaton) {
			a.Transitions = a.Transitions[:4]
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := base()
			tt.mutate(a)
			if err := a.Validate(); !errors.Is(err, automata.ErrInvalid) {
				t.Errorf("err = %v, want ErrInvalid", err)
			}
		})
	}
}

func TestMsgDefMandatory(t *testing.T) {
	d := automata.MsgDef{
		Name:     "m",
		Fields:   []string{"b", "a", "c"},
		Optional: []string{"c"},
	}
	got := d.MandatoryFields()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("mandatory = %v", got)
	}
}

func TestEquivalence(t *testing.T) {
	e := casestudy.Equivalence()
	if !e.Equivalent("text", "q") || !e.Equivalent("q", "text") {
		t.Error("equivalence not symmetric")
	}
	if !e.Equivalent("x", "x") {
		t.Error("equivalence not reflexive")
	}
	if e.Equivalent("text", "id") {
		t.Error("spurious equivalence")
	}
	var nilEq *automata.Equivalence
	if !nilEq.Equivalent("a", "a") || nilEq.Equivalent("a", "b") {
		t.Error("nil equivalence misbehaves")
	}
	src, ok := e.FindSource("q", []string{"api_key", "text"})
	if !ok || src != "text" {
		t.Errorf("FindSource = %q, %v", src, ok)
	}
	if _, ok := e.FindSource("q", []string{"api_key"}); ok {
		t.Error("FindSource found phantom source")
	}
}

func TestMessageEquivalentDefinition2(t *testing.T) {
	e := casestudy.Equivalence()
	picasaSearch := casestudy.PicasaUsage().MsgDefOf(casestudy.PicasaSearch)
	// q is derivable from the Flickr search's text field.
	if !e.MessageEquivalent(picasaSearch, []string{"api_key", "text", "per_page"}) {
		t.Error("picasa.search should be ≅ the Flickr search fields")
	}
	if e.MessageEquivalent(picasaSearch, []string{"api_key"}) {
		t.Error("picasa.search ≅ {api_key} should fail")
	}
}

// TestE2AutoMerge is experiment E2: the automatic merge of the Fig. 2
// automata reproduces the structure of Fig. 3 — strongly merged, six
// bicolored states, getInfo resolved from history (the Fig. 10 mismatch).
func TestE2AutoMerge(t *testing.T) {
	m, err := automata.Merge(casestudy.FlickrUsage(), casestudy.PicasaUsage(), automata.MergeOptions{
		Name:  "AFlickr+APicasa",
		Equiv: casestudy.Equivalence(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Strength != automata.StronglyMerged {
		t.Errorf("strength = %v, want strongly merged", m.Strength)
	}
	if got := len(m.BicoloredStates()); got != 6 {
		t.Errorf("bicolored states = %d, want 6 (Fig. 3)", got)
	}
	if len(m.Pairings) != 4 {
		t.Fatalf("pairings = %d", len(m.Pairings))
	}
	wantKinds := []automata.PairKind{
		automata.Intertwined, // search
		automata.FromHistory, // getInfo (Fig. 10)
		automata.Intertwined, // getComments
		automata.Intertwined, // addComment
	}
	for i, p := range m.Pairings {
		if p.Kind != wantKinds[i] {
			t.Errorf("pairing %d (%s) = %v, want %v", i, p.A1Request, p.Kind, wantKinds[i])
		}
	}
	if m.Pairings[0].A2Ops[0].Request != casestudy.PicasaSearch {
		t.Errorf("search intertwined with %q", m.Pairings[0].A2Ops[0].Request)
	}
	// The generated γ MTL for the Picasa search must map text -> q.
	var found bool
	for _, tr := range m.Transitions {
		if tr.Kind == automata.KindGamma && strings.Contains(tr.MTL, ".q = ") && strings.Contains(tr.MTL, ".text") {
			found = true
		}
	}
	if !found {
		t.Error("no γ transition translates text -> q")
	}
	if len(m.Final) != 1 {
		t.Errorf("finals = %v", m.Final)
	}
	// Every state on a path from the start to the end.
	if err := m.Validate(); err != nil {
		t.Error(err)
	}
}

func TestMergeOrderingMismatch(t *testing.T) {
	// A2 exposes the same two operations in the opposite order; the merge
	// must still intertwine both (the ordering mismatch of Section 3.2).
	mk := func(name string, ops [][3]string, color int) *automata.Automaton {
		a := &automata.Automaton{Name: name, Color: color, Start: "s0", Messages: map[string]automata.MsgDef{}}
		state := "s0"
		a.States = []string{state}
		for i, op := range ops {
			mid := state + "x"
			next := "s" + string(rune('1'+i))
			a.States = append(a.States, mid, next)
			a.Transitions = append(a.Transitions,
				automata.Transition{From: state, To: mid, Action: automata.Send, Message: op[0]},
				automata.Transition{From: mid, To: next, Action: automata.Receive, Message: op[0] + ".reply"},
			)
			a.Messages[op[0]] = automata.MsgDef{Name: op[0], Fields: strings.Split(op[1], ",")}
			a.Messages[op[0]+".reply"] = automata.MsgDef{Name: op[0] + ".reply", Fields: strings.Split(op[2], ",")}
			state = next
		}
		a.Final = []string{state}
		return a
	}
	a1 := mk("A1", [][3]string{
		{"one.a", "k1", "r1"},
		{"one.b", "k2", "r2"},
	}, 1)
	a2 := mk("A2", [][3]string{
		{"two.b", "k2", "r2"},
		{"two.a", "k1", "r1"},
	}, 2)
	m, err := automata.Merge(a1, a2, automata.MergeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Strength != automata.StronglyMerged {
		t.Errorf("strength = %v", m.Strength)
	}
	if m.Pairings[0].A2Ops[0].Request != "two.a" || m.Pairings[1].A2Ops[0].Request != "two.b" {
		t.Errorf("ordering mismatch not resolved: %+v", m.Pairings)
	}
}

func TestMergeOneToMany(t *testing.T) {
	// One A1 operation requires two A2 operations (the one-to-many
	// mismatch): search+getInfo vs Picasa-style split.
	a1 := &automata.Automaton{
		Name: "A1", Color: 1, Start: "s0", Final: []string{"s2"},
		States: []string{"s0", "s1", "s2"},
		Transitions: []automata.Transition{
			{From: "s0", To: "s1", Action: automata.Send, Message: "combined"},
			{From: "s1", To: "s2", Action: automata.Receive, Message: "combined.reply"},
		},
		Messages: map[string]automata.MsgDef{
			"combined":       {Name: "combined", Fields: []string{"key"}},
			"combined.reply": {Name: "combined.reply", Fields: []string{"partA", "partB"}},
		},
	}
	a2 := &automata.Automaton{
		Name: "A2", Color: 2, Start: "s0", Final: []string{"s4"},
		States: []string{"s0", "s1", "s2", "s3", "s4"},
		Transitions: []automata.Transition{
			{From: "s0", To: "s1", Action: automata.Send, Message: "first"},
			{From: "s1", To: "s2", Action: automata.Receive, Message: "first.reply"},
			{From: "s2", To: "s3", Action: automata.Send, Message: "second"},
			{From: "s3", To: "s4", Action: automata.Receive, Message: "second.reply"},
		},
		Messages: map[string]automata.MsgDef{
			"first":        {Name: "first", Fields: []string{"key"}},
			"first.reply":  {Name: "first.reply", Fields: []string{"partA"}},
			"second":       {Name: "second", Fields: []string{"key"}},
			"second.reply": {Name: "second.reply", Fields: []string{"partB"}},
		},
	}
	m, err := automata.Merge(a1, a2, automata.MergeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Pairings) != 1 || m.Pairings[0].Kind != automata.Intertwined {
		t.Fatalf("pairings = %+v", m.Pairings)
	}
	if got := len(m.Pairings[0].A2Ops); got != 2 {
		t.Errorf("chain length = %d, want 2 (one-to-many)", got)
	}
}

func TestMergeWeakAndNotMergeable(t *testing.T) {
	a1 := casestudy.FlickrUsage()
	a2 := casestudy.PicasaUsage()
	// Without the equivalence table nothing lines up.
	if _, err := automata.Merge(a1, a2, automata.MergeOptions{}); !errors.Is(err, automata.ErrNotMergeable) {
		t.Errorf("merge without ≅ err = %v, want ErrNotMergeable", err)
	}
	// A partial table: search works, addComment's entry mapping missing ->
	// weakly merged.
	partial := automata.NewEquivalence(
		[2]string{"text", "q"},
		[2]string{"photo_id", "id"},
		[2]string{"url", "src"},
	)
	m, err := automata.Merge(a1, a2, automata.MergeOptions{Equiv: partial})
	if err != nil {
		t.Fatal(err)
	}
	if m.Strength != automata.WeaklyMerged {
		t.Errorf("strength = %v, want weakly merged", m.Strength)
	}
	var unmatched int
	for _, p := range m.Pairings {
		if p.Kind == automata.Unmatched {
			unmatched++
		}
	}
	if unmatched == 0 {
		t.Error("no unmatched pairing recorded")
	}
}

func TestMergeValidatesInputs(t *testing.T) {
	bad := casestudy.FlickrUsage()
	bad.Start = "zz"
	if _, err := automata.Merge(bad, casestudy.PicasaUsage(), automata.MergeOptions{}); !errors.Is(err, automata.ErrInvalid) {
		t.Errorf("err = %v", err)
	}
	if _, err := automata.Merge(casestudy.FlickrUsage(), bad, automata.MergeOptions{}); !errors.Is(err, automata.ErrInvalid) {
		t.Errorf("err = %v", err)
	}
}

func TestXMLRoundTrip(t *testing.T) {
	a := validFlickr(t)
	data, err := a.EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	back, err := automata.UnmarshalAutomaton(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != a.Name || back.Start != a.Start || back.Color != a.Color {
		t.Errorf("header mismatch: %+v", back)
	}
	if len(back.Transitions) != len(a.Transitions) {
		t.Errorf("transitions = %d, want %d", len(back.Transitions), len(a.Transitions))
	}
	d := back.MsgDefOf(casestudy.FlickrSearch)
	if len(d.Fields) != 4 || len(d.Optional) != 3 {
		t.Errorf("search def = %+v", d)
	}
	if !back.IsFinal("s8") {
		t.Error("final state lost")
	}
}

func TestMergedXMLRoundTrip(t *testing.T) {
	m, err := automata.Merge(casestudy.FlickrUsage(), casestudy.PicasaUsage(), automata.MergeOptions{
		Equiv: casestudy.Equivalence(),
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	back, err := automata.UnmarshalMerged(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != m.Name || back.Start != m.Start || back.Strength != m.Strength {
		t.Errorf("header mismatch")
	}
	if len(back.States) != len(m.States) || len(back.Transitions) != len(m.Transitions) {
		t.Errorf("size mismatch: %d/%d states, %d/%d transitions",
			len(back.States), len(m.States), len(back.Transitions), len(m.Transitions))
	}
	if len(back.BicoloredStates()) != len(m.BicoloredStates()) {
		t.Error("bicolored states lost")
	}
	var gammaMTL int
	for _, tr := range back.Transitions {
		if tr.Kind == automata.KindGamma && strings.TrimSpace(tr.MTL) != "" {
			gammaMTL++
		}
	}
	if gammaMTL == 0 {
		t.Error("γ MTL lost in round trip")
	}
}

// TestShippedAutoMergeIsTheMerge: flickr-picasa-auto.merged.xml is the one
// model file that is derived — the merge of the two usage automata under
// the equivalence table, all three files beside it — so it is held to
// what Merge makes of them today.
func TestShippedAutoMergeIsTheMerge(t *testing.T) {
	want, err := automata.Merge(casestudy.FlickrUsage(), casestudy.PicasaUsage(), automata.MergeOptions{
		Name:  "AFlickr+APicasa-auto",
		Equiv: casestudy.Equivalence(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pairings is Merge's record of how it resolved each operation; the
	// XML vocabulary does not carry it.
	want.Pairings = nil
	data, err := models.FS.ReadFile("flickr-picasa-auto.merged.xml")
	if err != nil {
		t.Fatal(err)
	}
	got, err := automata.UnmarshalMerged(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("models/flickr-picasa-auto.merged.xml is not the merge of the usage automata:\n got %+v\nwant %+v", got, want)
	}
}

// TestMergedXMLCarriesMTLVerbatim: a γ program is written as a CDATA
// block, whatever it holds, and the escaped one-line form model files had
// before still loads.
func TestMergedXMLCarriesMTLVerbatim(t *testing.T) {
	src := "\na.Msg.x = \"]]>\"\nb.Msg.y = concat(\"<&>\", a.Msg.x) # ]]> & <\n"
	m := &automata.Merged{
		Name: "M", Color1: 1, Color2: 2, Start: "m0", Final: []string{"m1"}, Strength: automata.StronglyMerged,
		States:      []automata.MergedState{{Name: "m0", Colors: []int{1, 2}}, {Name: "m1", Colors: []int{2}}},
		Transitions: []automata.MergedTransition{{From: "m0", To: "m1", Kind: automata.KindGamma, MTL: src}},
	}
	data, err := m.EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<mtl><![CDATA[\na.Msg.x = \"") {
		t.Errorf("MTL not written as CDATA with real newlines and quotes:\n%s", data)
	}
	back, err := automata.UnmarshalMerged(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, m) {
		t.Errorf("round trip: got %+v, want %+v", back, m)
	}
	old := `<merged name="M" color1="1" color2="2" start="m0" strength="strong">
  <state name="m0" colors="1,2"></state>
  <state name="m1" colors="2"></state>
  <transition kind="gamma" from="m0" to="m1">
    <mtl>&#xA;a.Msg.x = &#34;]]&gt;&#34;&#xA;b.Msg.y = concat(&#34;&lt;&amp;&gt;&#34;, a.Msg.x) # ]]&gt; &amp; &lt;&#xA;</mtl>
  </transition>
  <final name="m1"></final>
</merged>`
	if back, err = automata.UnmarshalMerged([]byte(old)); err != nil || !reflect.DeepEqual(back, m) {
		t.Errorf("escaped form: got %+v, %v, want %+v", back, err, m)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := []string{
		"not xml",
		`<automaton name="A" start="s0"><state name="s0" final="true"/><transition from="s0" to="s0" action="zap" message="m"/></automaton>`,
		`<automaton name="A" start="zz"><state name="s0" final="true"/></automaton>`,
		`<automaton name="A" start="s0"><message name="m"><field name="x"/><field name="x" optional="true"/></message><state name="s0" final="true"/></automaton>`,
	}
	for _, c := range cases {
		if _, err := automata.ParseAutomaton(c); err == nil {
			t.Errorf("ParseAutomaton(%q) accepted", c)
		}
	}
	// A colour's transport is its protocol's, so the automaton cannot say it.
	network := `<automaton name="A" start="s0"><network transport="udp" mode="sync" mdl="ssdp.mdl"/><state name="s0" final="true"/></automaton>`
	if _, err := automata.ParseAutomaton(network); !errors.Is(err, automata.ErrInvalid) || !strings.Contains(err.Error(), "side") {
		t.Errorf("ParseAutomaton(%q) = %v, want ErrInvalid naming the side line", network, err)
	}
	// One name, one definition: the second used to replace the first.
	twice := `<automaton name="A" start="s0"><message name="m"><field name="x"/></message><message name="m"/><state name="s0" final="true"/></automaton>`
	if _, err := automata.ParseAutomaton(twice); !errors.Is(err, automata.ErrInvalid) || !strings.Contains(err.Error(), `"m"`) {
		t.Errorf("ParseAutomaton(%q) = %v, want ErrInvalid naming the message", twice, err)
	}
	for _, c := range []string{
		"nope",
		`<merged name="m" start="m0"><state name="m0" colors="x"/></merged>`,
		// A colour is a whole number, not the number a string starts with.
		`<merged name="m" start="m0"><state name="m0" colors="2junk"/><state name="m1"/><transition kind="gamma" from="m0" to="m1"/><final name="m1"/></merged>`,
		`<merged name="m" start="m0"><state name="m0" colors="0x1"/><state name="m1"/><transition kind="gamma" from="m0" to="m1"/><final name="m1"/></merged>`,
		`<merged name="m" start="m0"><transition kind="zap" from="a" to="b"/></merged>`,
		`<merged name="m" start="m0"><transition kind="message" from="a" to="b" action="zap"/></merged>`,
		// Merged.Validate: each breaks a merge that is m0 -γ-> m1, final.
		`<merged name="m" start="m9"><state name="m0"/><state name="m1"/><transition kind="gamma" from="m0" to="m1"/><final name="m1"/></merged>`,
		`<merged name="m" start="m0"><state name="m0"/><state name="m1"/><transition kind="gamma" from="m0" to="m1"/></merged>`,
		`<merged name="m" start="m0"><state name="m0"/><state name="m1"/><transition kind="gamma" from="m0" to="m1"/><final name="m9"/></merged>`,
		`<merged name="m" start="m0"><state name="m0"/><state name="m1"/><state name="m1"/><transition kind="gamma" from="m0" to="m1"/><final name="m1"/></merged>`,
		`<merged name="m" start="m0"><state name="m0"/><state name="m1"/><transition kind="gamma" from="m0" to="m9"/><final name="m1"/></merged>`,
		`<merged name="m" start="m0"><state name="m0"/><state name="m1"/><transition kind="gamma" from="m0" to="m1"/><transition kind="gamma" from="m1" to="m0"/><final name="m1"/></merged>`,
		`<merged name="m" start="m0"><state name="m0"/><state name="m1"/><state name="m2"/><transition kind="gamma" from="m0" to="m1"/><transition kind="gamma" from="m0" to="m2"/><final name="m1"/></merged>`,
		`<merged name="m" start="m0"><state name="m0"/><state name="m1"/><state name="m2"/><transition kind="gamma" from="m0" to="m2"/><transition kind="gamma" from="m2" to="m0"/><final name="m1"/></merged>`,
		`<merged name="m" start="m0"><state name="m0"/><state name="m1"/><state name="m2"/><transition kind="gamma" from="m0" to="m1"/><transition kind="gamma" from="m2" to="m1"/><final name="m1"/></merged>`,
	} {
		if _, err := automata.UnmarshalMerged([]byte(c)); err == nil {
			t.Errorf("UnmarshalMerged(%q) accepted", c)
		}
	}
}

func TestDOTOutput(t *testing.T) {
	a := validFlickr(t)
	dot := a.DOT()
	for _, want := range []string{"digraph", "doublecircle", "!flickr.photos.search", "rankdir=LR"} {
		if !strings.Contains(dot, want) {
			t.Errorf("automaton DOT missing %q", want)
		}
	}
	m, err := automata.Merge(casestudy.FlickrUsage(), casestudy.PicasaUsage(), automata.MergeOptions{
		Equiv: casestudy.Equivalence(),
	})
	if err != nil {
		t.Fatal(err)
	}
	mdot := m.DOT()
	for _, want := range []string{"γ", "lightblue;0.5:lightsalmon", "style=dashed"} {
		if !strings.Contains(mdot, want) {
			t.Errorf("merged DOT missing %q", want)
		}
	}
}

func TestMergedAccessors(t *testing.T) {
	m, err := automata.Merge(casestudy.FlickrUsage(), casestudy.PicasaUsage(), automata.MergeOptions{
		Equiv: casestudy.Equivalence(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if outs := m.Out(m.Start); len(outs) != 1 {
		t.Errorf("start out-degree = %d", len(outs))
	}
	if !m.IsFinal(m.Final[0]) || m.IsFinal(m.Start) {
		t.Error("IsFinal misbehaves")
	}
	if s := m.Transitions[0].String(); !strings.Contains(s, "-->") {
		t.Errorf("transition string = %q", s)
	}
	for _, tr := range m.Transitions {
		if tr.Kind == automata.KindGamma {
			if s := tr.String(); !strings.Contains(s, "γ") {
				t.Errorf("gamma string = %q", s)
			}
			break
		}
	}
	if automata.StronglyMerged.String() == "" || automata.WeaklyMerged.String() == "" ||
		automata.Intertwined.String() == "" || automata.FromHistory.String() == "" ||
		automata.Unmatched.String() == "" {
		t.Error("stringers empty")
	}
}

func BenchmarkMerge(b *testing.B) {
	a1 := casestudy.FlickrUsage()
	a2 := casestudy.PicasaUsage()
	eq := casestudy.Equivalence()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := automata.Merge(a1, a2, automata.MergeOptions{Equiv: eq}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValidate(b *testing.B) {
	a := casestudy.FlickrUsage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := a.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMergeablePredicate(t *testing.T) {
	if !automata.Mergeable(casestudy.FlickrUsage(), casestudy.PicasaUsage(), casestudy.Equivalence()) {
		t.Error("case-study automata should be mergeable")
	}
	if automata.Mergeable(casestudy.FlickrUsage(), casestudy.PicasaUsage(), nil) {
		t.Error("mergeable without an equivalence relation")
	}
}

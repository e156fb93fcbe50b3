package automata_test

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io/fs"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"starlink/internal/automata"
	"starlink/internal/mdl/xmlenc"
	"starlink/internal/testutil"
	"starlink/models"
)

// The oracle: the encoding/xml reflection decode that UnmarshalAutomaton
// and UnmarshalMerged replaced, its structs as they were, and the mapping
// from them to the result with the rules of the decoder (a message is
// declared once, a colour is a whole number). For every document the
// oracle reads, the decoder reads the same automaton, but for the
// documents DESIGN.md §17 says xmlenc.Reader reads otherwise; the oracle
// recognises those itself.

type oracleAutomaton struct {
	XMLName     xml.Name           `xml:"automaton"`
	Name        string             `xml:"name,attr"`
	Color       int                `xml:"color,attr"`
	Start       string             `xml:"start,attr"`
	Network     *struct{}          `xml:"network"`
	Messages    []oracleMessage    `xml:"message"`
	States      []oracleState      `xml:"state"`
	Transitions []oracleTransition `xml:"transition"`
}

type oracleMessage struct {
	Name   string        `xml:"name,attr"`
	Fields []oracleField `xml:"field"`
}

type oracleField struct {
	Name     string `xml:"name,attr"`
	Optional bool   `xml:"optional,attr"`
}

type oracleState struct {
	Name  string `xml:"name,attr"`
	Final bool   `xml:"final,attr"`
}

type oracleTransition struct {
	From    string `xml:"from,attr"`
	To      string `xml:"to,attr"`
	Action  string `xml:"action,attr"`
	Message string `xml:"message,attr"`
}

type oracleMerged struct {
	XMLName     xml.Name                 `xml:"merged"`
	Name        string                   `xml:"name,attr"`
	Color1      int                      `xml:"color1,attr"`
	Color2      int                      `xml:"color2,attr"`
	Start       string                   `xml:"start,attr"`
	Strength    string                   `xml:"strength,attr"`
	States      []oracleMergedState      `xml:"state"`
	Transitions []oracleMergedTransition `xml:"transition"`
	Finals      []oracleState            `xml:"final"`
}

type oracleMergedState struct {
	Name   string `xml:"name,attr"`
	Colors string `xml:"colors,attr"`
}

type oracleMergedTransition struct {
	Kind    string `xml:"kind,attr"`
	From    string `xml:"from,attr"`
	To      string `xml:"to,attr"`
	Color   int    `xml:"color,attr"`
	Action  string `xml:"action,attr"`
	Message string `xml:"message,attr"`
	MTL     *struct {
		Src string `xml:",cdata"`
	} `xml:"mtl"`
}

func oracleUnmarshalAutomaton(data []byte) (*automata.Automaton, error) {
	var xa oracleAutomaton
	if err := xml.NewDecoder(bytes.NewReader(data)).Decode(&xa); err != nil {
		return nil, err
	}
	if xa.Network != nil {
		return nil, fmt.Errorf("%w: <network>", automata.ErrInvalid)
	}
	a := &automata.Automaton{
		Name:     xa.Name,
		Color:    xa.Color,
		Start:    xa.Start,
		Messages: make(map[string]automata.MsgDef, len(xa.Messages)),
	}
	for _, xm := range xa.Messages {
		if _, dup := a.Messages[xm.Name]; dup {
			return nil, fmt.Errorf("%w: message %q twice", automata.ErrInvalid, xm.Name)
		}
		d := automata.MsgDef{Name: xm.Name}
		for _, f := range xm.Fields {
			if slices.Contains(d.Fields, f.Name) {
				return nil, fmt.Errorf("%w: field %q twice", automata.ErrInvalid, f.Name)
			}
			d.Fields = append(d.Fields, f.Name)
			if f.Optional {
				d.Optional = append(d.Optional, f.Name)
			}
		}
		a.Messages[d.Name] = d
	}
	for _, xs := range xa.States {
		a.States = append(a.States, xs.Name)
		if xs.Final {
			a.Final = append(a.Final, xs.Name)
		}
	}
	for _, xt := range xa.Transitions {
		act, err := automata.ParseAction(xt.Action)
		if err != nil {
			return nil, err
		}
		a.Transitions = append(a.Transitions, automata.Transition{
			From: xt.From, To: xt.To, Action: act, Message: xt.Message,
		})
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

var oracleCRLF = strings.NewReplacer("\r\n", "\n", "\r", "\n")

func oracleUnmarshalMerged(data []byte) (*automata.Merged, error) {
	var xm oracleMerged
	if err := xml.NewDecoder(bytes.NewReader(data)).Decode(&xm); err != nil {
		return nil, err
	}
	m := &automata.Merged{
		Name: xm.Name, Color1: xm.Color1, Color2: xm.Color2, Start: xm.Start,
		Strength: automata.StronglyMerged,
	}
	if xm.Strength == "weak" {
		m.Strength = automata.WeaklyMerged
	}
	for _, xs := range xm.States {
		st := automata.MergedState{Name: xs.Name}
		for _, c := range strings.Split(xs.Colors, ",") {
			if c = strings.TrimSpace(c); c == "" {
				continue
			}
			n, err := strconv.Atoi(c)
			if err != nil {
				return nil, err
			}
			st.Colors = append(st.Colors, n)
		}
		m.States = append(m.States, st)
	}
	for _, xt := range xm.Transitions {
		t := automata.MergedTransition{From: xt.From, To: xt.To}
		switch xt.Kind {
		case "gamma":
			t.Kind = automata.KindGamma
			if xt.MTL != nil {
				t.MTL = oracleCRLF.Replace(xt.MTL.Src)
			}
		case "message":
			act, err := automata.ParseAction(xt.Action)
			if err != nil {
				return nil, err
			}
			t.Kind, t.Color, t.Action, t.Message = automata.KindMessage, xt.Color, act, xt.Message
		default:
			return nil, fmt.Errorf("unknown kind %q", xt.Kind)
		}
		m.Transitions = append(m.Transitions, t)
	}
	for _, f := range xm.Finals {
		m.Final = append(m.Final, f.Name)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// beyondReader reports why xmlenc.Reader refuses a document encoding/xml
// reads, "" when it does not: DESIGN.md §17 names four such documents, and
// one of them, a declared encoding other than UTF-8, encoding/xml refuses
// too. The oracle reads the document's tokens up to the end of its root
// element to see the other three.
func beyondReader(data []byte) string {
	dec := xml.NewDecoder(bytes.NewReader(data))
	depth, deepest := 0, 0
	labels, labelBytes := map[string]bool{}, 0
	for {
		from := dec.InputOffset()
		tok, err := dec.Token()
		if err != nil {
			return ""
		}
		switch t := tok.(type) {
		case xml.StartElement:
			depth++
			deepest = max(deepest, depth)
			for _, a := range t.Attr {
				if a.Name.Space == "" || a.Name.Space == "xmlns" {
					continue
				}
				if l := "@" + a.Name.Space + ":" + a.Name.Local; !labels[l] {
					labels[l] = true
					labelBytes += len(l)
				}
			}
		case xml.EndElement:
			depth--
		case xml.Directive:
			if internalSubset(data[from:dec.InputOffset()]) {
				return "a document type declaration with an internal subset"
			}
		}
		switch {
		case deepest > xmlenc.MaxDepth:
			return "elements nested deeper than xmlenc.MaxDepth"
		case labelBytes > len(data):
			return "namespace-qualified attribute labels longer than the document"
		case depth == 0 && deepest > 0:
			return ""
		}
	}
}

// internalSubset reports whether a <!...> declaration, as written, holds
// markup before it ends: a '[' or a '<' outside quotes.
func internalSubset(decl []byte) bool {
	var quote byte
	for _, c := range decl[2:] {
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
		case c == '>':
			return false
		case c == '[' || c == '<':
			return true
		}
	}
	return false
}

// sameAsOracle holds decode to oracle on one document.
func sameAsOracle[T any](t *testing.T, data []byte, decode, oracle func([]byte) (T, error)) {
	t.Helper()
	want, oracleErr := oracle(data)
	got, err := decode(data)
	switch {
	case err == nil && oracleErr == nil:
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q reads as\n%+v\nthe oracle reads\n%+v", data, got, want)
		}
	case err != nil && oracleErr == nil:
		if why := beyondReader(data); why == "" {
			t.Fatalf("%q is refused: %v; the oracle reads\n%+v", data, err, want)
		}
	case err == nil && oracleErr != nil:
		if !testutil.XMLUnvalidated(data, oracleErr) {
			t.Fatalf("%q reads as\n%+v\nthe oracle refuses it: %v", data, got, oracleErr)
		}
	}
}

func sameAutomaton(t *testing.T, data []byte) {
	t.Helper()
	sameAsOracle(t, data, automata.UnmarshalAutomaton, oracleUnmarshalAutomaton)
}

func sameMerged(t *testing.T, data []byte) {
	t.Helper()
	sameAsOracle(t, data, automata.UnmarshalMerged, oracleUnmarshalMerged)
}

// automatonSeeds and mergedSeeds start FuzzParseAutomaton and
// FuzzUnmarshalMerged beside the models: one document per corner of what
// the decoders read by hand.
var (
	automatonSeeds = []string{
		`<automaton name="a" start="s"><message name="m"><field name="x"/><field name="x" optional="true"/></message><state name="s" final="true"/></automaton>`,
		`<automaton name="a" start="s"><message name="m"/><message name="m"><field name="x"/></message><state name="s" final="true"/></automaton>`,
		// prefixes on elements and attributes, unknown ones skipped with all they hold
		`<p:automaton xmlns:p="urn:p" p:name="A" color=" 2 " start="s" extra="1"><p:state name="s" final=" true"/><other><state name="hidden" final="true"/></other><message name="m" kind="x"><field name="f" optional="1"/><field name="g" optional=""/><note/></message></p:automaton>`,
		`<automaton xmlns:name="A" start="t" q:start="s"><state name="s"/><state name="t" final="T"/><transition from="s" to="t" action="SEND" message="m"><x/></transition></automaton>`,
		// the last of two namesakes counts, and every one must parse
		`<automaton name="A" name="B" start="s"><state name="s" final="false" final="true"/></automaton>`,
		`<automaton name="A" color="x" color="1" start="s"><state name="s" final="true"/></automaton>`,
		`<automaton name="A" color="" start="s"><state name="s" final="true"/></automaton>`,
		`<automaton name="A" color=" " start="s"><state name="s" final="true"/></automaton>`,
		// markup around and inside, references and line ends in values
		"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!-- c --><!DOCTYPE automaton><automaton name=\"A&amp;B&#x41;\" start=\"s\r\n\">text<![CDATA[<x>]]><?pi?><message name=\"m\"><!-- --><field name=\"x\"/></message><state name=\"s\r\n\" final=\"true\"></state></automaton>trailing",
		// what the reader does not read as the oracle does
		`<!DOCTYPE automaton [<!ENTITY e "v">]><automaton name="A" start="s"><state name="s" final="true"/></automaton>`,
		`<?xml version="1.1"?><automaton name="A" start="s"><state name="s" final="true"/></automaton>`,
		`<automaton name="A" start="s" a:b:c="x"><state name="s" final="true"/></automaton>`,
		`<automaton name="A" start="s"><!-- a -- b --><state name="s" final="true"/><![CDATAx]]></automaton>`,
		`&bogus; text<automaton name="A" start="s"><state name="s" final="true"/></automaton>`,
		"<automaton name=\"A\" start=\"s\">" + strings.Repeat("<x>", xmlenc.MaxDepth) + strings.Repeat("</x>", xmlenc.MaxDepth) + "<state name=\"s\" final=\"true\"/></automaton>",
		// refused by both
		`<automaton name="A" start="s"><network transport="udp"/><state name="s" final="true"/></automaton>`,
		`<merged name="A" start="s"><state name="s" final="true"/></merged>`,
		`<automaton name="A" start="s"><state name="s" final="true"/></wrong>`,
		`<automaton name="A" start="s"><state name="s" final="yes"/></automaton>`,
		`<automaton name="A" start="s"><state name="s" final="true"/><transition from="s" to="s" action="zap" message="m"/></automaton>`,
		`<automaton name="A" start="s"><state name="s" final="true"/>&bogus;</automaton>`,
		"",
	}
	mergedSeeds = []string{
		`<merged name="m" start="a"><state name="a" colors="1, 2"/><state name="b"/><transition kind="gamma" from="a" to="b"><mtl>x]]&gt;y&#xD;</mtl></transition><final name="b"/></merged>`,
		// the last <mtl> counts, its own text only; a message's is not read
		`<merged name="m" start="a"><state name="a"/><state name="b"/><transition kind="gamma" from="a" to="b" color="3" action="send" message="x"><mtl>first</mtl><mtl>a<b>skip</b>c<!-- x -->d<![CDATA[<&>]]>` + "\r\n" + `</mtl></transition><final name="b"/></merged>`,
		`<merged name="m" start="a"><state name="a"/><state name="b"/><transition kind="gamma" from="a" to="b"><mtl>first</mtl><mtl/></transition><final name="b"/></merged>`,
		`<merged name="m" start="a" color1=" 1" color2="2 " strength="weak"><state name="a" colors=" 1 ,,2 "/><state name="b" colors=""/><transition kind="message" from="a" to="b" color=" 2 " action="?" message="x"><mtl>ignored</mtl></transition><final name="b" final="true"/></merged>`,
		`<p:merged xmlns:p="urn:p" name="m" start="a" strength="strong" strength="junk"><p:state name="a"/><p:state name="b"/><p:transition kind="gamma" p:from="a" to="b"/><p:final name="b"/><unknown><final name="a"/></unknown></p:merged>`,
		// refused by both
		`<merged name="m" start="a"><state name="a" colors="2junk"/><state name="b"/><transition kind="gamma" from="a" to="b"/><final name="b"/></merged>`,
		`<merged name="m" start="a"><state name="a" colors="0x1"/><state name="b"/><transition kind="gamma" from="a" to="b"/><final name="b"/></merged>`,
		`<merged name="m" start="a"><state name="a"/><state name="b"/><transition kind="gamma" from="a" to="b" color="x"/><final name="b"/></merged>`,
		`<merged name="m" start="a"><state name="a"/><state name="b"/><transition kind="gamma" from="a" to="b"/><final name="b" final="nope"/></merged>`,
		`<merged name="m" start="a"><state name="a"/><state name="b"/><transition kind="zap" from="a" to="b"/><final name="b"/></merged>`,
		`<merged name="m" start="a"><state name="a"/><state name="b"/><transition kind="gamma" from="a" to="b"><mtl>&bogus;</mtl></transition><final name="b"/></merged>`,
		`<automaton name="m" start="a"/>`,
		"nope",
	}
)

// modelFiles returns the files under models/ whose names end in suffix.
func modelFiles(t testing.TB, suffix string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := fs.WalkDir(models.FS, ".", func(name string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(name, suffix) {
			return err
		}
		files[name], err = fs.ReadFile(models.FS, name)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestDecodeMatchesOracleOnModels: every model file and every fuzz seed
// reads as the oracle reads it, and every model file reads.
func TestDecodeMatchesOracleOnModels(t *testing.T) {
	for name, data := range modelFiles(t, ".automaton.xml") {
		if _, err := automata.UnmarshalAutomaton(data); err != nil {
			t.Errorf("models/%s: %v", name, err)
		}
		sameAutomaton(t, data)
	}
	for name, data := range modelFiles(t, ".merged.xml") {
		if _, err := automata.UnmarshalMerged(data); err != nil {
			t.Errorf("models/%s: %v", name, err)
		}
		sameMerged(t, data)
	}
	for _, doc := range automatonSeeds {
		sameAutomaton(t, []byte(doc))
	}
	for _, doc := range mergedSeeds {
		sameMerged(t, []byte(doc))
	}
}

// TestOracleRecognisesReaderLimits: each document the Reader refuses by
// design and encoding/xml reads is one the oracle tells apart, and a
// document that differs only in staying inside the limit is not.
func TestOracleRecognisesReaderLimits(t *testing.T) {
	ns := strings.Repeat("u", 1000)
	var wide strings.Builder
	wide.WriteString(`<automaton xmlns:p="` + ns + `" name="A" start="s">`)
	for i := range 100 {
		fmt.Fprintf(&wide, `<x p:a%d="1"/>`, i)
	}
	wide.WriteString(`<state name="s" final="true"/></automaton>`)
	for doc, want := range map[string]bool{
		`<!DOCTYPE a [<!ENTITY e "v">]><a/>`: true,
		`<!DOCTYPE a SYSTEM "x[y"><a/>`:      false,
		strings.Repeat("<a>", xmlenc.MaxDepth+1) + strings.Repeat("</a>", xmlenc.MaxDepth+1): true,
		strings.Repeat("<a>", xmlenc.MaxDepth) + strings.Repeat("</a>", xmlenc.MaxDepth):     false,
		wide.String(): true,
		strings.Replace(wide.String(), ns, "u", 1): false,
	} {
		if got := beyondReader([]byte(doc)) != ""; got != want {
			t.Errorf("beyondReader(%.60q) = %v, want %v", doc, got, want)
		}
		if want {
			if _, err := automata.UnmarshalAutomaton([]byte(doc)); err == nil || errors.Is(err, automata.ErrInvalid) {
				t.Errorf("UnmarshalAutomaton(%.60q) = %v, want the Reader's refusal", doc, err)
			}
		}
	}
}

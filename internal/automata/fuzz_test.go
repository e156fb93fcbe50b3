package automata_test

import (
	"io/fs"
	"reflect"
	"strings"
	"testing"

	"starlink/internal/automata"
	"starlink/models"
)

// seedModels adds every file under models/ whose name ends in one of
// suffixes to f's corpus: the documents a hot reload reads are where the
// fuzzer starts.
func seedModels(f *testing.F, suffixes ...string) {
	f.Helper()
	names, err := fs.Glob(models.FS, "*")
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range names {
		for _, suffix := range suffixes {
			if strings.HasSuffix(name, suffix) {
				data, err := fs.ReadFile(models.FS, name)
				if err != nil {
					f.Fatal(err)
				}
				f.Add(string(data))
			}
		}
	}
}

// FuzzParseAutomaton: a usage automaton reads as the oracle reads it, and
// one the reader accepts is written back by EncodeXML as a document that
// reads as the same automaton.
func FuzzParseAutomaton(f *testing.F) {
	seedModels(f, ".automaton.xml")
	for _, doc := range automatonSeeds {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		sameAutomaton(t, []byte(doc))
		a, err := automata.ParseAutomaton(doc)
		if err != nil {
			return
		}
		// The reader does not check characters against the XML ranges, and
		// EncodeXML writes U+FFFD for one outside them: only what the
		// oracle reads has to survive the round trip.
		if _, err := oracleUnmarshalAutomaton([]byte(doc)); err != nil {
			return
		}
		out, err := a.EncodeXML()
		if err != nil {
			t.Fatalf("accepted %q, then cannot encode it: %v", doc, err)
		}
		back, err := automata.ParseAutomaton(string(out))
		if err != nil {
			t.Fatalf("%q reads, its encoding %q does not: %v", doc, out, err)
		}
		if !reflect.DeepEqual(a, back) {
			t.Fatalf("%q reads as\n%+v\nits encoding %q as\n%+v", doc, a, out, back)
		}
	})
}

// FuzzUnmarshalMerged: a merged automaton reads as the oracle reads it,
// and one the reader accepts is written back by EncodeXML as a document
// that reads as the same automaton, γ programs included.
func FuzzUnmarshalMerged(f *testing.F) {
	seedModels(f, ".merged.xml")
	for _, doc := range mergedSeeds {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		sameMerged(t, []byte(doc))
		m, err := automata.UnmarshalMerged([]byte(doc))
		if err != nil {
			return
		}
		if _, err := oracleUnmarshalMerged([]byte(doc)); err != nil {
			return
		}
		out, err := m.EncodeXML()
		if err != nil {
			t.Fatalf("accepted %q, then cannot encode it: %v", doc, err)
		}
		back, err := automata.UnmarshalMerged(out)
		if err != nil {
			t.Fatalf("%q reads, its encoding %q does not: %v", doc, out, err)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("%q reads as\n%+v\nits encoding %q as\n%+v", doc, m, out, back)
		}
	})
}

// FuzzParsePairs: the pairs of an accepted .equiv or .typemap document,
// written one "left = right" line each, read as the same pairs.
func FuzzParsePairs(f *testing.F) {
	seedModels(f, ".equiv", ".typemap")
	f.Add("a = b\n# c = d\n\n=e\nf = g = h\n")
	f.Add("no equals sign")
	f.Fuzz(func(t *testing.T, doc string) {
		pairs, err := automata.ParsePairs(doc, "a = b")
		if err != nil {
			return
		}
		var out strings.Builder
		for _, p := range pairs {
			out.WriteString(p[0] + " = " + p[1] + "\n")
		}
		back, err := automata.ParsePairs(out.String(), "a = b")
		if err != nil {
			t.Fatalf("%q reads, its pairs written out %q do not: %v", doc, out.String(), err)
		}
		if len(pairs) != len(back) || (len(pairs) > 0 && !reflect.DeepEqual(pairs, back)) {
			t.Fatalf("%q reads as %q, its pairs written out as %q", doc, pairs, back)
		}
	})
}

package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"starlink/internal/message"
	"starlink/internal/protocol/giop"
)

// The shipped model files the tool commands are run on.
const (
	fl = "../../models/flickr-usage.automaton.xml"
	pi = "../../models/picasa-usage.automaton.xml"
	eq = "../../models/flickr-picasa.equiv"
	mg = "../../models/flickr-xmlrpc-to-picasa-rest.merged.xml"
	gm = "../../models/giop.mdl"
)

// TestExportAndList: the exported files are models/, byte for byte, and
// check lists them and passes them.
func TestExportAndList(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "models")
	if err := run([]string{"export-models", dir}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 18 {
		t.Errorf("exported %d files, want the 18 of models/", len(entries))
	}
	for _, e := range entries {
		got, _ := os.ReadFile(filepath.Join(dir, e.Name()))
		want, err := os.ReadFile(filepath.Join("../../models", e.Name()))
		if err != nil || string(got) != string(want) {
			t.Errorf("%s is not a copy of models/%s (%v)", e.Name(), e.Name(), err)
		}
	}
	if err := run([]string{"check", "-models", dir}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckCompilesMDL: check compiles every MDL document and builds every
// spec, so a copy with one defect of either kind fails, naming its file.
func TestCheckCompilesMDL(t *testing.T) {
	for _, c := range []struct{ file, old, new, want string }{
		// Parses, but the repeat counts a field not yet declared.
		{"giop.mdl", "<MessageSize:32>", "<Repeat:Items:Count><Item:8><End:Repeat><Count:8>\n<MessageSize:32>", "not declared earlier"},
		{"discovery.mediator", "merged SSDP-to-SLP-discovery", "merged nope", "nope"},
	} {
		dir := filepath.Join(t.TempDir(), "models")
		if err := run([]string{"export-models", dir}); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, c.file)
		doc, _ := os.ReadFile(path)
		if !strings.Contains(string(doc), c.old) {
			t.Fatalf("%s has no %q to edit", c.file, c.old)
		}
		if err := os.WriteFile(path, []byte(strings.Replace(string(doc), c.old, c.new, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run([]string{"check", "-models", dir}); err == nil || !strings.Contains(err.Error(), c.file) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("check of a defective %s: err = %v, want one naming it and %q", c.file, err, c.want)
		}
	}
}

// TestMergeCommand: the one derived model file is what merge makes of the
// two usage automata and the equivalence table beside it.
func TestMergeCommand(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.merged.xml")
	if err := run([]string{"merge", "-equiv", eq, "-name", "AFlickr+APicasa-auto", "-o", out, fl, pi}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../models/flickr-picasa-auto.merged.xml")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("models/flickr-picasa-auto.merged.xml is no longer what merge makes of the usage automata and the equivalence table beside it (models/README.md); merge wrote\n%s", got)
	}
	if err := run([]string{"merge", "-equiv", eq, fl, pi}); err != nil {
		t.Errorf("merge to stdout: %v", err)
	}
}

// TestMergeVerdict: merge refuses a pair that is not mergeable, and a
// missing operand.
func TestMergeVerdict(t *testing.T) {
	if err := run([]string{"merge", fl, pi}); err == nil || !strings.Contains(err.Error(), "not mergeable") {
		t.Errorf("merge without an equivalence table: err = %v, want not mergeable", err)
	}
	if err := run([]string{"merge", "-equiv", eq, fl}); err == nil {
		t.Error("missing operand accepted")
	}
}

func TestDot(t *testing.T) {
	for _, f := range []string{fl, mg} {
		if err := run([]string{"dot", f}); err != nil {
			t.Errorf("dot %s: %v", f, err)
		}
	}
}

// TestParsePacket: parse reads a GIOP request the codec composed, and
// refuses garbage.
func TestParsePacket(t *testing.T) {
	codec, err := giop.NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := codec.Compose(giop.NewRequest(7, "calc", "Add", []*message.Field{giop.IntParam(2), giop.IntParam(3)}))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	good, bad := filepath.Join(dir, "good.bin"), filepath.Join(dir, "bad.bin")
	if err := os.WriteFile(good, pkt, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"parse", gm, good}); err != nil {
		t.Errorf("parse of a composed request: %v", err)
	}
	if err := run([]string{"parse", gm, bad}); err == nil {
		t.Error("garbage packet accepted")
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		nil,
		{"zap"},
		{"export-models"},
		{"check", "-models", "/no/such"},
		{"run", "-models", "/no/such", "-mediator", "x"},
		{"run"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
	// Unknown mediator spec in a valid models dir.
	dir := filepath.Join(t.TempDir(), "m")
	if err := run([]string{"export-models", dir}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"run", "-models", dir, "-mediator", "nope"}); err == nil {
		t.Error("unknown mediator accepted")
	}
}

func TestMergeAndDotErrors(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.automaton.xml")
	if err := os.WriteFile(bad, []byte("<junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"dot"},
		{"dot", "/no/such"},
		{"dot", bad},
		{"merge", fl},
		{"merge", "-equiv", "/no/such", fl, pi},
		{"merge", "-equiv", eq, bad, pi},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.mdl")
	if err := os.WriteFile(bad, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"parse"},
		{"parse", gm},
		{"parse", "/no/such/file.mdl", "-"},
		{"parse", bad, "-"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

package mdl

import (
	"errors"
	"strings"
	"testing"
)

const sampleDoc = `
# GIOP message formats
<MDL:GIOP:binary>
<Message:GIOPRequest>
<Rule:MessageType=0>
<RequestID:32><Response:8>
<ObjectKeyLength:32><ObjectKey:ObjectKeyLength>
<align:64><ParameterArray:cdrseq>
<End:Message>

<Message:GIOPReply>
<Rule:MessageType=1>
<RequestID:32><ReplyStatus:32>
<End:Message>
`

func TestParseDocument(t *testing.T) {
	spec, err := ParseString(sampleDoc)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "GIOP" || spec.Encoding != EncodingBinary {
		t.Errorf("header = %q/%q", spec.Name, spec.Encoding)
	}
	if len(spec.Messages) != 2 {
		t.Fatalf("messages = %d, want 2", len(spec.Messages))
	}
	req := spec.Message("GIOPRequest")
	if req == nil {
		t.Fatal("GIOPRequest missing")
	}
	if len(req.Rules) != 1 || req.Rules[0] != (Rule{Field: "MessageType", Value: "0"}) {
		t.Errorf("rules = %+v", req.Rules)
	}
	if len(req.Items) != 6 {
		t.Errorf("items = %d, want 6", len(req.Items))
	}
	if r, ok := req.Rule("MessageType"); !ok || r.Value != "0" {
		t.Errorf("Rule lookup = %+v %v", r, ok)
	}
	if _, ok := req.Rule("Nope"); ok {
		t.Error("Rule lookup found nonexistent rule")
	}
	if spec.Message("Nope") != nil {
		t.Error("Message lookup found nonexistent message")
	}
}

func TestParseMultipleDirectivesPerLine(t *testing.T) {
	spec, err := ParseString("<MDL:X:binary>\n<Message:M><A:8><B:8><End:Message>")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(spec.Message("M").Items); got != 2 {
		t.Errorf("items = %d, want 2", got)
	}
}

func TestParseSyntaxErrors(t *testing.T) {
	tests := []struct {
		name string
		doc  string
	}{
		{"unterminated directive", "<MDL:X:binary>\n<Message:M\n<End:Message>"},
		{"unclosed message", "<MDL:X:binary>\n<Message:M><A:8>"},
		{"nested message", "<MDL:X:binary>\n<Message:M><Message:N>"},
		{"end outside message", "<MDL:X:binary>\n<End:Message>"},
		{"rule outside message", "<MDL:X:binary>\n<Rule:A=1>"},
		{"rule without equals", "<MDL:X:binary>\n<Message:M><Rule:A>\n<End:Message>"},
		{"item outside message", "<MDL:X:binary>\n<A:8>"},
		{"message without name", "<MDL:X:binary>\n<Message:><End:Message>"},
		{"short header", "<MDL:X>\n<Message:M><End:Message>"},
		{"no messages", "<MDL:X:binary>"},
		{"empty document", ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseString(tt.doc); !errors.Is(err, ErrSyntax) {
				t.Errorf("err = %v, want ErrSyntax", err)
			}
		})
	}
}

func TestParseIgnoresCommentsAndBlank(t *testing.T) {
	doc := "# heading\n\n<MDL:X:binary>\n  # indented comment\n<Message:M>\n<A:8>\n<End:Message>\n"
	spec, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Messages) != 1 {
		t.Fatalf("messages = %d", len(spec.Messages))
	}
}

func TestItemAccessors(t *testing.T) {
	it := Item{Parts: []string{"A", "32", "uint"}}
	if it.Label() != "A" || it.Arg(1) != "32" || it.Arg(2) != "uint" || it.Arg(9) != "" {
		t.Errorf("accessors: %q %q %q %q", it.Label(), it.Arg(1), it.Arg(2), it.Arg(9))
	}
	empty := Item{}
	if empty.Label() != "" {
		t.Error("empty item label")
	}
}

func TestRuleValueWithColon(t *testing.T) {
	// Rule values may contain colons (e.g. version strings).
	spec, err := ParseString("<MDL:X:text>\n<Message:M><Rule:Version=HTTP:1.1><A:8><End:Message>")
	if err != nil {
		t.Fatal(err)
	}
	r, ok := spec.Message("M").Rule("Version")
	if !ok || r.Value != "HTTP:1.1" {
		t.Errorf("rule = %+v, %v", r, ok)
	}
}

func TestParseStringTrimsWhitespaceInParts(t *testing.T) {
	spec, err := ParseString("<MDL: X : binary>\n<Message: M >< A : 8 ><End:Message>")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "X" {
		t.Errorf("name = %q", spec.Name)
	}
	m := spec.Message("M")
	if m == nil {
		t.Fatal("trimmed message name not found")
	}
	if m.Items[0].Label() != "A" || m.Items[0].Arg(1) != "8" {
		t.Errorf("item = %+v", m.Items[0])
	}
}

func TestParseReaderLongLines(t *testing.T) {
	var b strings.Builder
	b.WriteString("<MDL:X:binary>\n<Message:M>")
	for i := 0; i < 5000; i++ {
		b.WriteString("<F:8>")
	}
	b.WriteString("<End:Message>")
	spec, err := ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(spec.Message("M").Items); got != 5000 {
		t.Errorf("items = %d", got)
	}
}

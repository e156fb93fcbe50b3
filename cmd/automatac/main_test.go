package main

import (
	"path/filepath"
	"testing"
)

// The shipped model files the commands are run on.
const (
	fl = "../../models/flickr-usage.automaton.xml"
	pi = "../../models/picasa-usage.automaton.xml"
	eq = "../../models/flickr-picasa.equiv"
	mg = "../../models/flickr-xmlrpc-to-picasa-rest.merged.xml"
)

func TestCheckAndDot(t *testing.T) {
	for _, args := range [][]string{
		{"check", fl},
		{"check", mg},
		{"dot", fl},
		{"dot", mg},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestMergeCommand(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.merged.xml")
	if err := run([]string{"merge", "-equiv", eq, "-name", "demo", "-o", out, fl, pi}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"check", out}); err != nil {
		t.Fatalf("merged output does not validate: %v", err)
	}
	// To stdout.
	if err := run([]string{"merge", "-equiv", eq, fl, pi}); err != nil {
		t.Fatal(err)
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		nil,
		{"zap"},
		{"check"},
		{"check", "/no/such"},
		{"dot", "/no/such"},
		{"merge", fl},
		{"merge", "-equiv", "/no/such", fl, pi},
		{"merge", fl, pi}, // no equivalence: not mergeable
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

func TestMergeableCommand(t *testing.T) {
	if err := run([]string{"mergeable", "-equiv", eq, fl, pi}); err != nil {
		t.Fatal(err)
	}
	// Without an equivalence table the pair is not mergeable.
	if err := run([]string{"mergeable", fl, pi}); err == nil {
		t.Error("not-mergeable pair reported success")
	}
	if err := run([]string{"mergeable", fl}); err == nil {
		t.Error("missing operand accepted")
	}
}

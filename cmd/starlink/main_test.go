package main

import (
	"os"
	"path/filepath"
	"testing"
)

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
	if err := run([]string{"list", "-models", dir}); err != nil {
		t.Fatal(err)
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		nil,
		{"zap"},
		{"export-models"},
		{"list", "-models", "/no/such"},
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

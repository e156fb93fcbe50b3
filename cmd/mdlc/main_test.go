package main

import (
	"os"
	"path/filepath"
	"testing"
)

// giopMDL is the shipped GIOP message description.
const giopMDL = "../../models/giop.mdl"

func TestCheck(t *testing.T) {
	if err := run([]string{"check", giopMDL}); err != nil {
		t.Fatal(err)
	}
}

func TestParsePacket(t *testing.T) {
	// Compose a packet via the harness-tested codec path is overkill here:
	// reuse the check path with an invalid packet to exercise errors, then
	// a trivially composable GIOP request.
	pktPath := filepath.Join(t.TempDir(), "pkt.bin")
	if err := os.WriteFile(pktPath, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"parse", giopMDL, pktPath}); err == nil {
		t.Error("garbage packet accepted")
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		nil,
		{"check"},
		{"zap", "x"},
		{"check", "/no/such/file.mdl"},
		{"parse", giopMDL},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
	bad := filepath.Join(t.TempDir(), "bad.mdl")
	if err := os.WriteFile(bad, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"check", bad}); err == nil {
		t.Error("bad MDL accepted")
	}
}

package harness_test

import (
	"strings"
	"testing"

	"starlink/internal/harness"
)

// TestAllExperimentsPass runs the full reproduction suite (E1-E12, E14,
// E16-E19) — the same entry point as cmd/benchharness.
func TestAllExperimentsPass(t *testing.T) {
	results := harness.RunAll()
	if len(results) != 17 {
		t.Fatalf("experiments = %d, want 17", len(results))
	}
	for _, r := range results {
		if !r.OK() {
			t.Errorf("%s (%s): %v", r.ID, r.Artifact, r.Err)
		}
		if r.Detail == "" {
			t.Errorf("%s: empty detail", r.ID)
		}
		line := r.String()
		if !strings.Contains(line, r.ID) {
			t.Errorf("%s: report line missing id: %q", r.ID, line)
		}
		if r.OK() && !strings.HasSuffix(line, "OK") {
			t.Errorf("%s: report line missing OK: %q", r.ID, line)
		}
	}
}

func TestResultStringOnFailure(t *testing.T) {
	r := harness.Result{ID: "EX", Artifact: "x", Detail: "d"}
	if !strings.Contains(r.String(), "OK") {
		t.Errorf("ok line = %q", r.String())
	}
}

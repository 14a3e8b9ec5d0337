package checkederr

import (
	"strings"
	"testing"

	"ocd/internal/analysis/analyzertest"
)

func TestCheckedErr(t *testing.T) {
	old := funcsFlag
	if err := Analyzer.Flags.Set("funcs", "a.Validate,(a.Schedule).Check,a.Replay"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { funcsFlag = old })
	analyzertest.Run(t, "testdata", Analyzer, "a")
}

func TestNegativeFixture(t *testing.T) {
	old := funcsFlag
	if err := Analyzer.Flags.Set("funcs", "neg.Validate"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { funcsFlag = old })
	// A // want on a properly consumed result must stay unmatched, and
	// the harness must surface that as a mismatch.
	probs := analyzertest.Problems(t, "testdata", Analyzer, "neg")
	if len(probs) != 1 || !strings.Contains(probs[0], "no diagnostic matched") {
		t.Fatalf("want exactly one unmatched-expectation problem, got %q", probs)
	}
}

func TestDefaultTargets(t *testing.T) {
	// The default set is the runtime half of the determinism contract:
	// every schedule replay and its facade spellings. Losing an entry
	// silently un-guards its call sites.
	for _, want := range []string{
		"ocd.Validate",
		"ocd.ValidateConstraints",
		"ocd.ValidateFaulted",
		"ocd/internal/core.Replay",
		"ocd/internal/core.Validate",
		"ocd/internal/core.ValidateConstraints",
		"ocd/internal/fault.Validate",
		"(ocd/internal/underlay.Network).Validate",
	} {
		if !strings.Contains(funcsFlag, want) {
			t.Errorf("default -funcs misses %s", want)
		}
	}
}

package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// goldenCases map each committed fixture onto the Run overrides that
// reproduce it. Each fixture was recorded before a change that must not
// move it, such as lowering experiments through spec → args → impl or a
// faster exact solver, so byte identity here is that change's acceptance
// bar: not a single cell may move.
var goldenCases = []struct {
	name   string
	params map[string]string
}{
	{"figure1", nil},
	{"theorem4", map[string]string{"decoys": "1,4,16"}},
	{"graph-size", map[string]string{
		"sizes": "12,20", "tokens": "16", "graph-seeds": "1", "repeats": "1", "seed": "5",
	}},
	{"chaos", map[string]string{
		"n": "16", "tokens": "8", "intensities": "0,0.5", "heuristics": "local,retry-local", "seed": "3",
	}},
	{"crashed-source", map[string]string{
		"n": "12", "tokens": "36", "crash-at": "1", "seed": "3",
	}},
	{"partition", map[string]string{
		"n": "16", "tokens": "8", "heal": "0,-1", "heuristics": "local", "seed": "3",
	}},
	{"churn", map[string]string{
		"n": "16", "tokens": "8", "leave": "0,0.05", "heuristics": "local", "seed": "3",
	}},
	{"knowledge-delay", map[string]string{
		"n": "12", "tokens": "8", "max-delay": "2", "seed": "2",
	}},
	{"architectures", map[string]string{
		"n": "14", "tokens": "8", "seed": "2",
	}},
	{"dynamic-conditions", map[string]string{
		"n": "16", "tokens": "8", "seed": "3",
	}},
	{"protocol-comparison", nil},
	{"ilp-vs-bnb", map[string]string{"n": "6", "instances": "40", "seed": "1"}},
	{"tradeoff-curve", nil},
	{"bounds-quality", nil},
}

func TestGoldenByteIdentity(t *testing.T) {
	for _, tc := range goldenCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.name+".txt"))
			if err != nil {
				t.Fatalf("fixture: %v", err)
			}
			tab, err := Run(tc.name, tc.params, nil)
			if err != nil {
				t.Fatalf("Run(%q): %v", tc.name, err)
			}
			if got := tab.ASCII(); got != string(want) {
				t.Errorf("output diverged from the pre-refactor fixture\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

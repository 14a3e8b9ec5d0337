package ocd

import (
	"testing"

	"ocd/internal/experiments"
)

// TestRunExperimentMatchesFacade routes each typed paper-figure function
// and RunExperiment with hand-written strings to the same experiment and
// requires identical tables. The cases cover a float that needs every
// digit to round-trip and a sweep whose non-positive tokens, graph seeds
// and repeats fall back to the declared defaults.
func TestRunExperimentMatchesFacade(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params map[string]string
		typed  func() (*Table, error)
	}{
		{"graph-size", map[string]string{
			"topology": "random", "sizes": "12,20", "tokens": "16", "graph-seeds": "1", "repeats": "1", "seed": "5",
		}, func() (*Table, error) { return ExperimentGraphSize(false, []int{12, 20}, 16, 1, 1, 5) }},
		{"graph-size", map[string]string{
			"topology": "transit-stub", "sizes": "12", "seed": "-2",
		}, func() (*Table, error) { return ExperimentGraphSize(true, []int{12}, 0, -1, 0, -2) }},
		{"receiver-density", map[string]string{
			"n": "15", "thresholds": "0.1,0.3333333333333333", "tokens": "8", "graph-seeds": "1", "repeats": "2", "seed": "3",
		}, func() (*Table, error) { return ExperimentReceiverDensity(15, []float64{0.1, 1.0 / 3}, 8, 1, 2, 3) }},
		{"num-files", map[string]string{
			"n": "15", "files": "1,2", "tokens": "8", "graph-seeds": "1", "repeats": "1", "multi-sender": "true", "seed": "3",
		}, func() (*Table, error) { return ExperimentNumFiles(15, []int{1, 2}, 8, 1, 1, true, 3) }},
		{"num-files", map[string]string{
			"n": "13", "files": "2", "tokens": "8", "graph-seeds": "2", "repeats": "1", "multi-sender": "false", "seed": "0",
		}, func() (*Table, error) { return ExperimentNumFiles(13, []int{2}, 8, 2, 1, false, 0) }},
		{"figure1", nil, ExperimentFigure1},
		{"figure7", map[string]string{
			"graphs": "2", "n": "5", "edge-p": "0.45", "seed": "3",
		}, func() (*Table, error) { return ExperimentFigure7(2, 5, 0.45, 3) }},
		{"theorem4", map[string]string{"decoys": "1,4"}, func() (*Table, error) { return ExperimentTheorem4(1, []int{1, 4}, 1) }},
		{"theorem4", map[string]string{
			"path": "2", "decoys": "3", "capacity": "2",
		}, func() (*Table, error) { return ExperimentTheorem4(2, []int{3}, 2) }},
		{"ilp-vs-bnb", map[string]string{
			"instances": "3", "n": "4", "m": "2", "seed": "5",
		}, func() (*Table, error) { return ExperimentILPvsBnB(3, 4, 2, 5) }},
	} {
		viaRegistry, err := RunExperiment(tc.name, tc.params)
		if err != nil {
			t.Fatalf("RunExperiment(%s, %v): %v", tc.name, tc.params, err)
		}
		viaFacade, err := tc.typed()
		if err != nil {
			t.Fatalf("typed %s (%v): %v", tc.name, tc.params, err)
		}
		if viaRegistry.ASCII() != viaFacade.ASCII() {
			t.Errorf("%s %v: registry and facade outputs diverge:\n--- registry ---\n%s--- facade ---\n%s",
				tc.name, tc.params, viaRegistry.ASCII(), viaFacade.ASCII())
		}
	}
}

func TestExperimentNames(t *testing.T) {
	names := ExperimentNames()
	if len(names) != len(experiments.Specs()) {
		t.Fatalf("ExperimentNames returned %d names, registry has %d specs", len(names), len(experiments.Specs()))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

package ocd

import (
	"testing"

	"ocd/internal/experiments"
)

// TestRunExperimentMatchesFacade routes the same experiment through the
// string-typed registry entry point and the typed facade function and
// requires identical tables.
func TestRunExperimentMatchesFacade(t *testing.T) {
	viaRegistry, err := RunExperiment("theorem4", map[string]string{"decoys": "1,4"})
	if err != nil {
		t.Fatal(err)
	}
	viaFacade, err := ExperimentTheorem4(1, []int{1, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if viaRegistry.ASCII() != viaFacade.ASCII() {
		t.Errorf("registry and facade outputs diverge:\n--- registry ---\n%s--- facade ---\n%s",
			viaRegistry.ASCII(), viaFacade.ASCII())
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

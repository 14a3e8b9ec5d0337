package lp_test

import (
	"testing"

	"ocd/internal/exact"
	"ocd/internal/ilp"
	"ocd/internal/lp"
	"ocd/internal/workload"
)

// TestLeversOnILPPrograms runs the lever check of TestSparsePivotMatchesDense
// on the programs the solver is built for: the §3.4 relaxations
// ilp.Build makes for 30 seeded n=5, m=3 instances, the stream
// workload.RandomTinyInstances draws the bench's solver cells from, at the
// FOCD optimum τ* and at τ*+1.
func TestLeversOnILPPrograms(t *testing.T) {
	pivots, restores := 0, 0
	for i, inst := range workload.RandomTinyInstances(1, 30, 5, 3) {
		fast, err := exact.SolveFOCD(inst, exact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for tau := fast.Makespan(); tau <= fast.Makespan()+1; tau++ {
			if tau < 1 {
				continue
			}
			prog, err := ilp.Build(inst, tau)
			if err != nil {
				t.Fatal(err)
			}
			got, err := lp.CheckLevers(prog.Relaxation(), int64(i))
			if err != nil {
				t.Fatalf("instance %d at τ=%d (%d rows, %d variables): %v",
					i, tau, prog.NumConstraints(), prog.NumVariables(), err)
			}
			pivots += got.Pivots
			restores += got.Restores
		}
	}
	if pivots < 2000 || restores < 200 {
		t.Errorf("only %d pivots and %d restores replayed; the instance draw has drifted", pivots, restores)
	}
	t.Logf("%d pivots and %d restores replayed", pivots, restores)
}

package steiner_test

import (
	"errors"
	"fmt"
	"testing"

	"ocd/internal/core"
	"ocd/internal/exact"
	"ocd/internal/ilp"
	"ocd/internal/steiner"
	"ocd/internal/workload"
)

// TestForestBoundAdmissible requires the forest bound of the initial
// possession to be at most the EOCD optimum and the ILP optimum, which
// must agree, at horizons τ*, τ*+1 and τ*+2 on RandomTinyInstances at
// n = 4–7, m = 3. An ILP solve that runs out of nodes is left uncompared.
func TestForestBoundAdmissible(t *testing.T) {
	count := 40
	if testing.Short() {
		count = 10
	}
	solves, tight, budget := 0, 0, 0
	for n := 4; n <= 7; n++ {
		for i, inst := range workload.RandomTinyInstances(int64(30+n), count, n, 3) {
			lb, ok := steiner.NewForestBound(inst).Bound(inst.Have)
			if !ok {
				t.Fatalf("n%d/%d: a wanter is unreachable on a connected graph", n, i)
			}
			fast, err := exact.SolveFOCD(inst, exact.Options{})
			if err != nil {
				t.Fatalf("n%d/%d: focd: %v", n, i, err)
			}
			for tau := fast.Makespan(); tau <= fast.Makespan()+2; tau++ {
				label := fmt.Sprintf("n%d/%d@%d", n, i, tau)
				bnb, err := exact.SolveEOCD(inst, tau, exact.Options{})
				if err != nil {
					t.Fatalf("%s: eocd: %v", label, err)
				}
				prog, err := ilp.Build(inst, tau)
				if err != nil {
					t.Fatalf("%s: build: %v", label, err)
				}
				_, obj, err := prog.Solve(ilp.Options{})
				switch {
				case errors.Is(err, ilp.ErrBudget):
					budget++
					obj = bnb.Moves()
				case err != nil:
					t.Fatalf("%s: ilp: %v", label, err)
				}
				if obj != bnb.Moves() {
					t.Errorf("%s: ILP optimum %d, EOCD optimum %d", label, obj, bnb.Moves())
				}
				if lb > bnb.Moves() {
					t.Errorf("%s: forest bound %d exceeds the optimum %d", label, lb, bnb.Moves())
				}
				if lb == bnb.Moves() {
					tight++
				}
				solves++
			}
			if count := core.BandwidthLowerBound(inst, nil); lb < count {
				t.Errorf("n%d/%d: forest bound %d below the count %d", n, i, lb, count)
			}
		}
	}
	t.Logf("%d horizons: the bound is tight on %d, %d ILP solves past the node budget", solves, tight, budget)
	if budget > solves/10 {
		t.Errorf("%d of %d ILP solves ran out of nodes", budget, solves)
	}
}

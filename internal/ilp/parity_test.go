package ilp_test

import (
	"testing"

	"ocd/internal/core"
	"ocd/internal/exact"
	"ocd/internal/ilp"
	"ocd/internal/workload"
)

// TestParityWithExactSolvers is the ILP↔exact cross-check on a seeded
// grid of small instances (this package is in the CI -race set). For each
// instance both optimum notions must agree between the two independent
// solvers: the minimum makespan (time-indexed program's binary search vs
// schedule-space iterative deepening) and the minimum bandwidth within a
// fixed horizon (branch-and-bound over the LP relaxation vs
// branch-and-bound over move subsets). Every extracted schedule must
// validate against the instance.
func TestParityWithExactSolvers(t *testing.T) {
	grid := []struct {
		seed        int64
		count, n, m int
	}{
		{seed: 3, count: 3, n: 4, m: 2},
		{seed: 5, count: 3, n: 5, m: 2},
		{seed: 9, count: 2, n: 6, m: 3},
	}
	for _, g := range grid {
		insts := workload.RandomTinyInstances(g.seed, g.count, g.n, g.m)
		for i, inst := range insts {
			fast, err := exact.SolveFOCD(inst, exact.Options{})
			if err != nil {
				t.Fatalf("seed %d inst %d: exact focd: %v", g.seed, i, err)
			}
			ipSched, ipTau, err := ilp.SolveFOCD(inst, ilp.Options{})
			if err != nil {
				t.Fatalf("seed %d inst %d: ilp focd: %v", g.seed, i, err)
			}
			if ipTau != fast.Makespan() {
				t.Errorf("seed %d inst %d: ILP makespan %d, exact makespan %d",
					g.seed, i, ipTau, fast.Makespan())
			}
			if err := core.Validate(inst, ipSched); err != nil {
				t.Errorf("seed %d inst %d: ILP focd schedule invalid: %v", g.seed, i, err)
			}

			tau := fast.Makespan() + 1 // one slack step lets cheaper plans surface
			bnb, err := exact.SolveEOCD(inst, tau, exact.Options{})
			if err != nil {
				t.Fatalf("seed %d inst %d: exact eocd: %v", g.seed, i, err)
			}
			prog, err := ilp.Build(inst, tau)
			if err != nil {
				t.Fatalf("seed %d inst %d: build: %v", g.seed, i, err)
			}
			sched, obj, err := prog.Solve(ilp.Options{})
			if err != nil {
				t.Fatalf("seed %d inst %d: ilp solve: %v", g.seed, i, err)
			}
			if obj != bnb.Moves() {
				t.Errorf("seed %d inst %d: ILP bandwidth %d, exact bandwidth %d",
					g.seed, i, obj, bnb.Moves())
			}
			if err := core.Validate(inst, sched); err != nil {
				t.Errorf("seed %d inst %d: ILP schedule invalid: %v", g.seed, i, err)
			}
			if sched.Moves() != obj {
				t.Errorf("seed %d inst %d: schedule has %d moves but objective is %d",
					g.seed, i, sched.Moves(), obj)
			}
		}
	}
}

// TestSolverWorkCeilings pins the solver's deterministic work on a set:
// seed 7, 8 instances, n=6, m=3, each solved at horizon FOCD optimum + 1.
// Every schedule validates and the optima sum to exactly 48; two passes
// count identical work, and that work is exactly 83 branch-and-bound
// nodes, 500 simplex iterations, 75 warm starts, 75 dual restorations
// and 0 bound flips. A change that moves a pivot re-pins these totals
// and says why in DESIGN.md. The full program with most-fractional
// branching took 183 nodes and 1,359 iterations.
func TestSolverWorkCeilings(t *testing.T) {
	const wantObjective = 48
	wantWork := ilp.Stats{Nodes: 83, SimplexIterations: 500, WarmStarts: 75, DualRestorations: 75}
	pass := func() (int, ilp.Stats) {
		t.Helper()
		objective := 0
		var work ilp.Stats
		for i, inst := range workload.RandomTinyInstances(7, 8, 6, 3) {
			fast, err := exact.SolveFOCD(inst, exact.Options{})
			if err != nil {
				t.Fatalf("inst %d: exact focd: %v", i, err)
			}
			prog, err := ilp.Build(inst, fast.Makespan()+1)
			if err != nil {
				t.Fatalf("inst %d: build: %v", i, err)
			}
			sched, obj, st, err := prog.SolveStats(ilp.Options{})
			if err != nil {
				t.Fatalf("inst %d: solve: %v", i, err)
			}
			if err := core.Validate(inst, sched); err != nil {
				t.Errorf("inst %d: schedule invalid: %v", i, err)
			}
			objective += obj
			work.Nodes += st.Nodes
			work.SimplexIterations += st.SimplexIterations
			work.WarmStarts += st.WarmStarts
			work.BoundFlips += st.BoundFlips
			work.DualRestorations += st.DualRestorations
		}
		return objective, work
	}
	objective, first := pass()
	t.Logf("objective sum %d, work %+v", objective, first)
	if objective != wantObjective {
		t.Errorf("objective sum = %d, want %d", objective, wantObjective)
	}
	if _, second := pass(); second != first {
		t.Errorf("solver work not deterministic: %+v then %+v", first, second)
	}
	if first != wantWork {
		t.Errorf("solver work = %+v, want %+v", first, wantWork)
	}
}

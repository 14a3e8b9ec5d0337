package exact

import (
	"errors"
	"math/rand"
	"testing"

	"ocd/internal/core"
	"ocd/internal/graph"
	"ocd/internal/heuristics"
	"ocd/internal/sim"
	"ocd/internal/workload"
)

func lineInstance(t *testing.T, n, m, c int) *core.Instance {
	t.Helper()
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddArc(i, i+1, c); err != nil {
			t.Fatal(err)
		}
	}
	inst := core.NewInstance(g, m)
	inst.Have[0].AddRange(0, m)
	inst.Want[n-1].AddRange(0, m)
	return inst
}

func TestFOCDLineOptimum(t *testing.T) {
	// One token over a 4-hop path: optimum is exactly 4 steps.
	inst := lineInstance(t, 5, 1, 1)
	sched, err := SolveFOCD(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.Makespan(); got != 4 {
		t.Errorf("makespan = %d, want 4", got)
	}
	if err := core.Validate(inst, sched); err != nil {
		t.Errorf("optimal schedule invalid: %v", err)
	}
}

func TestFOCDPipelining(t *testing.T) {
	// 3 tokens over 2 hops at capacity 1: pipeline finishes in 2+3−1 = 4.
	inst := lineInstance(t, 3, 3, 1)
	sched, err := SolveFOCD(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.Makespan(); got != 4 {
		t.Errorf("makespan = %d, want 4 (pipelined)", got)
	}
}

func TestFOCDCapacityBound(t *testing.T) {
	// 6 tokens over one capacity-2 arc: ceil(6/2) = 3 steps.
	inst := lineInstance(t, 2, 6, 2)
	sched, err := SolveFOCD(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.Makespan(); got != 3 {
		t.Errorf("makespan = %d, want 3", got)
	}
}

func TestFOCDFigure1(t *testing.T) {
	inst := workload.Figure1()
	sched, err := SolveFOCD(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.Makespan(); got != 2 {
		t.Errorf("Figure 1 optimal makespan = %d, want 2", got)
	}
	if err := core.Validate(inst, sched); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
}

func TestFOCDAlreadyDone(t *testing.T) {
	inst := lineInstance(t, 3, 1, 1)
	inst.Want[2].Clear()
	sched, err := SolveFOCD(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Makespan() != 0 {
		t.Errorf("trivial instance needed %d steps", sched.Makespan())
	}
}

func TestFOCDUnsatisfiable(t *testing.T) {
	g := graph.New(2)
	if err := g.AddArc(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	inst := core.NewInstance(g, 1)
	inst.Have[1].Add(0)
	inst.Want[0].Add(0) // against the arc direction
	if _, err := SolveFOCD(inst, Options{}); !errors.Is(err, ErrUnsatisfiable) {
		t.Errorf("want ErrUnsatisfiable, got %v", err)
	}
}

func TestFOCDBudget(t *testing.T) {
	inst := workload.Figure1()
	if _, err := SolveFOCD(inst, Options{MaxNodes: 1, MaxSteps: 1}); err == nil {
		t.Error("expected failure under a 1-node budget")
	}
}

func TestEOCDFigure1(t *testing.T) {
	inst := workload.Figure1()
	cheap, err := SolveEOCD(inst, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := cheap.Moves(); got != 4 {
		t.Errorf("EOCD optimum = %d moves, want 4", got)
	}
	if got := cheap.Makespan(); got != 3 {
		t.Errorf("EOCD schedule takes %d steps, want 3", got)
	}
	atFast, err := SolveEOCD(inst, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := atFast.Moves(); got != 6 {
		t.Errorf("EOCD@tau=2 = %d moves, want 6", got)
	}
}

func TestEOCDLine(t *testing.T) {
	// 2 tokens over 2 hops: 4 moves regardless of horizon ≥ 3.
	inst := lineInstance(t, 3, 2, 2)
	sched, err := SolveEOCD(inst, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.Moves(); got != 4 {
		t.Errorf("moves = %d, want 4", got)
	}
	if err := core.Validate(inst, sched); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
}

func TestEOCDInfeasibleHorizon(t *testing.T) {
	inst := lineInstance(t, 4, 1, 1) // needs 3 steps
	if _, err := SolveEOCD(inst, 2, Options{}); !errors.Is(err, ErrUnsatisfiable) {
		t.Errorf("want ErrUnsatisfiable for tight horizon, got %v", err)
	}
}

func TestExactDominatesHeuristics(t *testing.T) {
	// Property: the exact FOCD makespan never exceeds any heuristic's, and
	// exact EOCD bandwidth never exceeds any pruned heuristic bandwidth.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 8; trial++ {
		n := 3 + rng.Intn(3)
		m := 1 + rng.Intn(2)
		g := graph.New(n)
		perm := rng.Perm(n)
		for i := 1; i < n; i++ {
			if err := g.AddEdge(perm[i], perm[rng.Intn(i)], 1+rng.Intn(2)); err != nil {
				t.Fatal(err)
			}
		}
		inst := core.NewInstance(g, m)
		for tok := 0; tok < m; tok++ {
			inst.Have[rng.Intn(n)].Add(tok)
			inst.Want[rng.Intn(n)].Add(tok)
		}
		fast, err := SolveFOCD(inst, Options{})
		if err != nil {
			t.Fatalf("trial %d: focd: %v", trial, err)
		}
		cheap, err := SolveEOCD(inst, 0, Options{})
		if err != nil {
			t.Fatalf("trial %d: eocd: %v", trial, err)
		}
		if lb := core.MakespanLowerBound(inst, nil); fast.Makespan() < lb {
			t.Errorf("trial %d: optimum %d below lower bound %d", trial, fast.Makespan(), lb)
		}
		if lb := core.BandwidthLowerBound(inst, nil); cheap.Moves() < lb {
			t.Errorf("trial %d: optimum %d below bandwidth bound %d", trial, cheap.Moves(), lb)
		}
		for i, factory := range heuristics.All() {
			res, err := sim.Run(inst, factory, sim.Options{Seed: int64(trial), Prune: true})
			if err != nil || !res.Completed {
				continue // heuristic failures are caught elsewhere
			}
			if res.Steps < fast.Makespan() {
				t.Errorf("trial %d: heuristic %s beat the optimal makespan (%d < %d)",
					trial, heuristics.Names()[i], res.Steps, fast.Makespan())
			}
			if res.PrunedMoves < cheap.Moves() {
				t.Errorf("trial %d: heuristic %s beat the optimal bandwidth (%d < %d)",
					trial, heuristics.Names()[i], res.PrunedMoves, cheap.Moves())
			}
		}
	}
}

func TestTheoremOneHorizonSufficient(t *testing.T) {
	// Theorem 1: any satisfiable instance completes within m(n−1) moves,
	// hence within m(n−1) timesteps. The default EOCD horizon relies on
	// this; verify on random satisfiable instances.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 5; trial++ {
		n := 3 + rng.Intn(2)
		g := graph.New(n)
		perm := rng.Perm(n)
		for i := 1; i < n; i++ {
			if err := g.AddEdge(perm[i], perm[rng.Intn(i)], 1); err != nil {
				t.Fatal(err)
			}
		}
		inst := core.NewInstance(g, 2)
		inst.Have[0].AddRange(0, 2)
		inst.Want[n-1].AddRange(0, 2)
		sched, err := SolveEOCD(inst, 0, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sched.Moves() > inst.TheoremOneHorizon() {
			t.Errorf("trial %d: optimum %d exceeds Theorem 1 horizon %d",
				trial, sched.Moves(), inst.TheoremOneHorizon())
		}
	}
}

func TestCombinations(t *testing.T) {
	// Every k-subset, in the order of the reference recursion, k moves
	// per subset along the arc.
	for _, tc := range []struct{ n, k int }{{4, 2}, {2, 2}, {3, 1}, {5, 3}, {6, 2}} {
		items := make([]int, tc.n)
		for i := range items {
			items[i] = 10 + 3*i
		}
		a := graph.Arc{From: 1, To: 2, Cap: tc.k}
		got, _ := combinations(nil, a, items, nil)
		want := refCombinations(items, tc.k)
		if len(got) != len(want)*tc.k {
			t.Fatalf("C(%d,%d) = %d moves, want %d subsets of %d", tc.n, tc.k, len(got), len(want), tc.k)
		}
		for i, sub := range want {
			for j, tok := range sub {
				if mv := got[i*tc.k+j]; mv != (core.Move{From: 1, To: 2, Token: tok}) {
					t.Errorf("C(%d,%d) subset %d move %d = %v, want token %d", tc.n, tc.k, i, j, mv, tok)
				}
			}
		}
	}
}

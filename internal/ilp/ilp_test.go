package ilp

import (
	"errors"
	"math/rand"
	"testing"

	"ocd/internal/core"
	"ocd/internal/exact"
	"ocd/internal/graph"
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

func TestBuildDimensions(t *testing.T) {
	// Line 0→1→2 at capacity 1, vertex 0 holds both tokens and vertex 2
	// wants both, τ = 2. For either token d_h(·, v) = v and d_w(·, v) = 2 − v.
	// A variable x^i is live iff d_h(tail) ≤ i−1 and d_w(head) ≤ τ−i:
	//   0→1 needs i ≥ 1 and 1 ≤ 2−i: step 1 only;
	//   1→2 needs i ≥ 2 and 0 ≤ 2−i: step 2 only;
	//   self-arcs at i ≤ 2: 0 needs 2 ≤ 2−i, 1 needs i ≥ 2 and 1 ≤ 2−i,
	//   2 needs i ≥ 3 — none is live;
	//   final x^3 at 2: wanted and d_h = 2 ≤ τ, live.
	// Two tokens each: 6 live variables of the full program's 26 (2 arcs ×
	// 2 tokens × 2 steps plus 3 vertices × 2 tokens × 3 steps).
	inst := lineInstance(t, 3, 2, 1)
	prog, err := Build(inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ from, to, token, step int }
	got := map[key]bool{}
	for _, s := range prog.slots {
		a, tok, i := prog.unslot(s)
		from, to := a-len(prog.arcs), a-len(prog.arcs)
		if a < len(prog.arcs) {
			from, to = prog.arcs[a].From, prog.arcs[a].To
		}
		got[key{from, to, tok, i}] = true
	}
	want := map[key]bool{}
	for tok := 0; tok < 2; tok++ {
		want[key{0, 1, tok, 1}] = true
		want[key{1, 2, tok, 2}] = true
		want[key{2, 2, tok, 3}] = true
	}
	if prog.NumVariables() != len(want) || len(got) != len(want) {
		t.Errorf("variables = %d, want %d", prog.NumVariables(), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Errorf("variable %+v not live", k)
		}
	}
	// Rows: the 4 possession rows of the step-2 and step-3 variables, one
	// capacity row per arc (two live tokens, capacity 1) and 2 final rows.
	if got := prog.NumConstraints(); got != 8 {
		t.Errorf("constraints = %d, want 8", got)
	}
}

func TestBuildErrors(t *testing.T) {
	inst := lineInstance(t, 3, 1, 1)
	if _, err := Build(inst, 0); err == nil {
		t.Error("tau=0 accepted")
	}
	bad := lineInstance(t, 3, 1, 1)
	bad.Have[0].Clear()
	if _, err := Build(bad, 2); err == nil {
		t.Error("inconsistent instance accepted")
	}
}

func TestSolveLineExact(t *testing.T) {
	// One token over 2 hops: 2 moves at tau=2.
	inst := lineInstance(t, 3, 1, 1)
	prog, err := Build(inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	sched, obj, err := prog.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if obj != 2 {
		t.Errorf("objective = %d, want 2", obj)
	}
	if err := core.Validate(inst, sched); err != nil {
		t.Errorf("decoded schedule invalid: %v", err)
	}
}

func TestSolveInfeasibleHorizon(t *testing.T) {
	inst := lineInstance(t, 4, 1, 1) // needs 3 steps
	prog, err := Build(inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := prog.Solve(Options{}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestSolveFigure1BothHorizons(t *testing.T) {
	inst := workload.Figure1()
	for _, tc := range []struct{ tau, wantBW int }{{2, 6}, {3, 4}, {4, 4}} {
		prog, err := Build(inst, tc.tau)
		if err != nil {
			t.Fatal(err)
		}
		sched, obj, err := prog.Solve(Options{})
		if err != nil {
			t.Fatalf("tau=%d: %v", tc.tau, err)
		}
		if obj != tc.wantBW {
			t.Errorf("tau=%d: objective = %d, want %d", tc.tau, obj, tc.wantBW)
		}
		if err := core.Validate(inst, sched); err != nil {
			t.Errorf("tau=%d: schedule invalid: %v", tc.tau, err)
		}
	}
}

func TestSolveAgreesWithBranchAndBound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 6; trial++ {
		n := 3 + rng.Intn(2)
		m := 1 + rng.Intn(2)
		g := graph.New(n)
		perm := rng.Perm(n)
		for i := 1; i < n; i++ {
			if err := g.AddEdge(perm[i], perm[rng.Intn(i)], 1); err != nil {
				t.Fatal(err)
			}
		}
		inst := core.NewInstance(g, m)
		for tok := 0; tok < m; tok++ {
			inst.Have[rng.Intn(n)].Add(tok)
			inst.Want[rng.Intn(n)].Add(tok)
		}
		fast, err := exact.SolveFOCD(inst, exact.Options{})
		if err != nil {
			t.Fatalf("trial %d focd: %v", trial, err)
		}
		tau := fast.Makespan() + 1
		if tau < 2 {
			tau = 2
		}
		bnb, err := exact.SolveEOCD(inst, tau, exact.Options{})
		if err != nil {
			t.Fatalf("trial %d eocd: %v", trial, err)
		}
		prog, err := Build(inst, tau)
		if err != nil {
			t.Fatal(err)
		}
		_, obj, err := prog.Solve(Options{})
		if err != nil {
			t.Fatalf("trial %d ilp: %v", trial, err)
		}
		if obj != bnb.Moves() {
			t.Errorf("trial %d: ILP %d != branch-and-bound %d", trial, obj, bnb.Moves())
		}
	}
}

func TestSolveBudget(t *testing.T) {
	inst := workload.Figure1()
	prog, err := Build(inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Budget 0 means default; budget must be enforced when tiny. The root
	// relaxation may already be integral, so allow either success or the
	// budget error — but never a wrong answer.
	sched, obj, err := prog.Solve(Options{MaxNodes: 1})
	if err != nil {
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("unexpected error: %v", err)
		}
		return
	}
	if obj != 4 {
		t.Errorf("objective = %d, want 4", obj)
	}
	if err := core.Validate(inst, sched); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
}

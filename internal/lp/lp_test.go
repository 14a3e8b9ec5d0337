package lp

import (
	"errors"
	"math"
	"testing"
)

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSolveSimpleMin(t *testing.T) {
	// min −x − y  s.t. x ≤ 2, y ≤ 3, x + y ≤ 4  → x=2, y=2? Either corner
	// on x+y=4 with obj −4.
	sol := solveOK(t, &Problem{
		C: []float64{-1, -1},
		A: rowsOf([][]float64{{1, 0}, {0, 1}, {1, 1}}),
		B: []float64{2, 3, 4},
	})
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approx(sol.Objective, -4) {
		t.Errorf("objective = %f, want -4", sol.Objective)
	}
	if !approx(sol.X[0]+sol.X[1], 4) {
		t.Errorf("x+y = %f, want 4", sol.X[0]+sol.X[1])
	}
}

func TestSolveWithNegativeRHS(t *testing.T) {
	// min x  s.t. x ≥ 3 (written −x ≤ −3) → x = 3. Exercises phase one.
	sol := solveOK(t, &Problem{
		C: []float64{1},
		A: rowsOf([][]float64{{-1}}),
		B: []float64{-3},
	})
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approx(sol.X[0], 3) {
		t.Errorf("x = %f, want 3", sol.X[0])
	}
}

func TestSolveInfeasible(t *testing.T) {
	// x ≤ 1 and x ≥ 2.
	sol := solveOK(t, &Problem{
		C: []float64{1},
		A: rowsOf([][]float64{{1}, {-1}}),
		B: []float64{1, -2},
	})
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestSolveUnbounded(t *testing.T) {
	// min −x with only x ≥ 0: unbounded below.
	sol := solveOK(t, &Problem{
		C: []float64{-1},
		A: rowsOf([][]float64{{0}}),
		B: []float64{1},
	})
	if sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestSolveEqualityViaPair(t *testing.T) {
	// x + y = 2 expressed as ≤ and ≥; min x → x=0, y=2.
	sol := solveOK(t, &Problem{
		C: []float64{1, 0},
		A: rowsOf([][]float64{{1, 1}, {-1, -1}, {0, 1}}),
		B: []float64{2, -2, 5},
	})
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approx(sol.X[0], 0) || !approx(sol.X[1], 2) {
		t.Errorf("x = %v, want (0,2)", sol.X)
	}
}

func TestSolveDegenerate(t *testing.T) {
	// Redundant constraints sharing a vertex; Bland's rule must terminate.
	sol := solveOK(t, &Problem{
		C: []float64{-1, -1},
		A: rowsOf([][]float64{{1, 0}, {1, 0}, {0, 1}, {1, 1}, {1, 1}}),
		B: []float64{1, 1, 1, 2, 2},
	})
	if sol.Status != Optimal || !approx(sol.Objective, -2) {
		t.Errorf("status=%v obj=%f, want optimal −2", sol.Status, sol.Objective)
	}
}

func TestSolveTransportation(t *testing.T) {
	// Classic transportation: 2 suppliers (cap 3, 2) → 2 consumers
	// (demand 2, 3), costs: c11=1 c12=4 c21=2 c22=1. Optimal: x11=2,
	// x22=2, x12=1 → cost 2+2+4 = 8? Alternatives: x11=2 (2), x12=1 (4),
	// x22=2 (2) total 8; or x11=2, x21=0, x12=1, x22=2 → 8. LP optimum 8.
	sol := solveOK(t, &Problem{
		C: []float64{1, 4, 2, 1},
		A: rowsOf([][]float64{
			{1, 1, 0, 0},   // supplier 1 cap
			{0, 0, 1, 1},   // supplier 2 cap
			{-1, 0, -1, 0}, // consumer 1 demand ≥ 2
			{0, -1, 0, -1}, // consumer 2 demand ≥ 3
		}),
		B: []float64{3, 2, -2, -3},
	})
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approx(sol.Objective, 8) {
		t.Errorf("objective = %f, want 8", sol.Objective)
	}
}

// TestSolveDimensionErrors feeds NewSolver malformed problems: each must
// fail with its error, never panic and never solve.
func TestSolveDimensionErrors(t *testing.T) {
	row := func(cols []int, vals ...float64) Row { return Row{Cols: cols, Vals: vals} }
	for _, c := range []struct {
		name string
		p    Problem
		want error
	}{
		{"missing rhs", Problem{C: []float64{1}, A: []Row{row([]int{0}, 1)}, B: []float64{}}, ErrDimensions},
		{"short lower bounds", Problem{C: []float64{1, 1}, A: []Row{row([]int{0}, 1)}, B: []float64{1}, Lo: []float64{0}}, ErrDimensions},
		{"long upper bounds", Problem{C: []float64{1}, A: []Row{row([]int{0}, 1)}, B: []float64{1}, Up: []float64{1, 1}}, ErrDimensions},
		{"more columns than values", Problem{C: []float64{1, 1}, A: []Row{row([]int{0, 1}, 1)}, B: []float64{1}}, ErrDimensions},
		{"more values than columns", Problem{C: []float64{1, 1}, A: []Row{row([]int{0}, 1, 2)}, B: []float64{1}}, ErrDimensions},
		{"column past the last", Problem{C: []float64{1}, A: []Row{row([]int{1}, 2)}, B: []float64{1}}, ErrDimensions},
		{"negative column", Problem{C: []float64{1}, A: []Row{row([]int{-1}, 2)}, B: []float64{1}}, ErrDimensions},
		{"column twice", Problem{C: []float64{1, 1}, A: []Row{row([]int{1, 0, 1}, 1, 1, 1)}, B: []float64{1}}, ErrDimensions},
		{"column twice, zero values", Problem{C: []float64{1}, A: []Row{row([]int{0, 0}, 0, 0)}, B: []float64{1}}, ErrDimensions},
		{"NaN coefficient", Problem{C: []float64{1}, A: []Row{row([]int{0}, math.NaN())}, B: []float64{1}}, ErrNotFinite},
		{"infinite coefficient", Problem{C: []float64{1}, A: []Row{row([]int{0}, math.Inf(-1))}, B: []float64{1}}, ErrNotFinite},
		{"NaN rhs", Problem{C: []float64{1}, A: []Row{row([]int{0}, 1)}, B: []float64{math.NaN()}}, ErrNotFinite},
		{"infinite rhs", Problem{C: []float64{1}, A: []Row{row([]int{0}, 1)}, B: []float64{math.Inf(1)}}, ErrNotFinite},
		{"NaN cost", Problem{C: []float64{math.NaN()}, A: []Row{row([]int{0}, 1)}, B: []float64{1}}, ErrNotFinite},
		{"infinite lower bound", Problem{C: []float64{1}, A: []Row{row([]int{0}, 1)}, B: []float64{1}, Lo: []float64{math.Inf(-1)}}, ErrBounds},
		{"crossed bounds", Problem{C: []float64{1}, A: []Row{row([]int{0}, 1)}, B: []float64{1}, Lo: []float64{2}, Up: []float64{1}}, ErrBounds},
	} {
		if sol, err := Solve(&c.p); !errors.Is(err, c.want) {
			t.Errorf("%s: got %+v, %v; want %v", c.name, sol, err, c.want)
		}
	}
}

func TestSolveZeroConstraints(t *testing.T) {
	// min x with no constraints: x = 0 at the origin.
	sol := solveOK(t, &Problem{C: []float64{1}, A: nil, B: nil})
	if sol.Status != Optimal || !approx(sol.X[0], 0) {
		t.Errorf("unconstrained min: %+v", sol)
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" ||
		Unbounded.String() != "unbounded" {
		t.Error("status strings wrong")
	}
	if Status(99).String() == "" {
		t.Error("unknown status empty")
	}
}

package lp

import (
	"math"
	"math/rand"
	"testing"
)

// bruteForceLP solves min c·x, Ax ≤ b, lo ≤ x ≤ up by enumerating every
// basic point: each choice of n constraints from {rows of A} ∪ {x_j = lo_j}
// ∪ {x_j = up_j} held with equality yields an n×n system; feasible
// solutions of nonsingular systems are exactly the vertices of the
// polytope. With all bounds finite the feasible region is a polytope, so
// it is nonempty iff it has a vertex and the optimum is attained at one.
type eq struct {
	coef []float64
	rhs  float64
}

func bruteForceLP(c []float64, a [][]float64, b, lo, up []float64) (float64, bool) {
	n := len(c)
	// Build the combined constraint list as rows (coef, rhs) meaning
	// coef·x = rhs when selected.
	var eqs []eq
	for i := range a {
		eqs = append(eqs, eq{coef: a[i], rhs: b[i]})
	}
	for j := 0; j < n; j++ {
		unit := make([]float64, n)
		unit[j] = 1
		eqs = append(eqs, eq{coef: unit, rhs: lo[j]})
		eqs = append(eqs, eq{coef: unit, rhs: up[j]})
	}

	feasible := func(x []float64) bool {
		for i := range a {
			dot := 0.0
			for j := 0; j < n; j++ {
				dot += a[i][j] * x[j]
			}
			if dot > b[i]+1e-7 {
				return false
			}
		}
		for j := 0; j < n; j++ {
			if x[j] < lo[j]-1e-7 || x[j] > up[j]+1e-7 {
				return false
			}
		}
		return true
	}

	bestObj, found := math.Inf(1), false
	idx := make([]int, n)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == n {
			x, ok := solveSquare(eqs, idx, n)
			if ok && feasible(x) {
				obj := 0.0
				for j := 0; j < n; j++ {
					obj += c[j] * x[j]
				}
				if obj < bestObj {
					bestObj, found = obj, true
				}
			}
			return
		}
		for i := start; i < len(eqs); i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return bestObj, found
}

// solveSquare solves the n×n system formed by the selected equalities via
// Gaussian elimination with partial pivoting; ok=false on singularity.
func solveSquare(eqs []eq, idx []int, n int) ([]float64, bool) {
	m := make([][]float64, n)
	for r := 0; r < n; r++ {
		m[r] = append(append([]float64(nil), eqs[idx[r]].coef...), eqs[idx[r]].rhs)
	}
	for col := 0; col < n; col++ {
		piv, pivAbs := -1, 1e-9
		for r := col; r < n; r++ {
			if a := math.Abs(m[r][col]); a > pivAbs {
				piv, pivAbs = r, a
			}
		}
		if piv < 0 {
			return nil, false
		}
		m[col], m[piv] = m[piv], m[col]
		for r := 0; r < n; r++ {
			if r == col || m[r][col] == 0 {
				continue
			}
			f := m[r][col] / m[col][col]
			for k := col; k <= n; k++ {
				m[r][k] -= f * m[col][k]
			}
		}
	}
	x := make([]float64, n)
	for r := 0; r < n; r++ {
		x[r] = m[r][n] / m[r][r]
	}
	return x, true
}

// solveBland solves p by the dual simplex in Bland mode from its first
// pivot, the mode Solve reaches only after a run of degenerate pivots.
func solveBland(p *Problem) (*Solution, error) {
	s, err := NewSolver(p)
	if err != nil {
		return nil, err
	}
	defer s.Release()
	return s.finish(0, s.dual(-1))
}

// TestSolveMatchesBruteForce cross-checks the simplex against exhaustive
// vertex enumeration on seeded random small LPs with finite bounds, each
// solved twice: by Solve, and by the dual simplex in Bland mode from the
// first pivot. Statuses agree, objectives agree within 1e-9, and the
// returned point is feasible and consistent with its reported objective.
func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	infeasibleSeen, optimalSeen, blandDiffers := 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(2) // 2..3 variables
		m := 1 + rng.Intn(3) // 1..3 rows
		c := make([]float64, n)
		lo := make([]float64, n)
		up := make([]float64, n)
		for j := 0; j < n; j++ {
			c[j] = float64(rng.Intn(7) - 3)
			up[j] = float64(1 + rng.Intn(3))
			if rng.Intn(4) == 0 {
				lo[j] = 1
			}
		}
		a := make([][]float64, m)
		b := make([]float64, m)
		for i := 0; i < m; i++ {
			a[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				a[i][j] = float64(rng.Intn(7) - 3)
			}
			b[i] = float64(rng.Intn(9) - 2)
		}

		wantObj, wantFeasible := bruteForceLP(c, a, b, lo, up)
		if wantFeasible {
			optimalSeen++
		} else {
			infeasibleSeen++
		}
		p := &Problem{C: c, A: rowsOf(a), B: b, Lo: lo, Up: up}
		var iters [2]int
		for k, solve := range []func(*Problem) (*Solution, error){Solve, solveBland} {
			mode := [2]string{"solve", "bland"}[k]
			sol, err := solve(p)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, mode, err)
			}
			iters[k] = sol.Iterations
			if !wantFeasible {
				if sol.Status != Infeasible {
					t.Fatalf("trial %d %s: brute force says infeasible, simplex says %v (obj %v)",
						trial, mode, sol.Status, sol.Objective)
				}
				continue
			}
			if sol.Status != Optimal {
				t.Fatalf("trial %d %s: brute force optimum %v, simplex says %v", trial, mode, wantObj, sol.Status)
			}
			if math.Abs(sol.Objective-wantObj) > 1e-9 {
				t.Fatalf("trial %d %s: objective %v, brute force %v", trial, mode, sol.Objective, wantObj)
			}
			// The returned point must itself be feasible and match the objective.
			dot := 0.0
			for j := 0; j < n; j++ {
				if sol.X[j] < lo[j]-1e-7 || sol.X[j] > up[j]+1e-7 {
					t.Fatalf("trial %d %s: x[%d]=%v outside [%v,%v]", trial, mode, j, sol.X[j], lo[j], up[j])
				}
				dot += c[j] * sol.X[j]
			}
			for i := 0; i < m; i++ {
				row := 0.0
				for j := 0; j < n; j++ {
					row += a[i][j] * sol.X[j]
				}
				if row > b[i]+1e-7 {
					t.Fatalf("trial %d %s: row %d violated: %v > %v", trial, mode, i, row, b[i])
				}
			}
			if math.Abs(dot-sol.Objective) > 1e-9 {
				t.Fatalf("trial %d %s: reported objective %v but c·x = %v", trial, mode, sol.Objective, dot)
			}
		}
		if iters[0] != iters[1] {
			blandDiffers++
		}
	}
	// The generator must actually exercise both outcomes, and Bland's
	// choices must differ from Solve's somewhere.
	if infeasibleSeen < 10 || optimalSeen < 100 || blandDiffers == 0 {
		t.Fatalf("generator drifted: %d infeasible / %d optimal trials, %d solved in a different pivot count by Bland's rule",
			infeasibleSeen, optimalSeen, blandDiffers)
	}
	t.Logf("%d infeasible / %d optimal trials, %d solved in a different pivot count by Bland's rule",
		infeasibleSeen, optimalSeen, blandDiffers)
}

// TestBealeCyclingTerminates runs Beale's classic degenerate LP, on which
// textbook Dantzig-rule primal simplex cycles forever, with upper bounds
// that leave its optimum feasible. The dual simplex must reach the
// optimum −0.05 at (1/25, 0, 1, 0).
func TestBealeCyclingTerminates(t *testing.T) {
	sol := solveOK(t, &Problem{
		C: []float64{-0.75, 150, -0.02, 6},
		A: rowsOf([][]float64{
			{0.25, -60, -0.04, 9},
			{0.5, -90, -0.02, 3},
		}),
		B:  []float64{0, 0},
		Up: []float64{1, 1, 1, 1},
	})
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-(-0.05)) > 1e-9 {
		t.Fatalf("objective = %v, want -0.05", sol.Objective)
	}
	want := []float64{0.04, 0, 1, 0}
	for j, w := range want {
		if math.Abs(sol.X[j]-w) > 1e-9 {
			t.Fatalf("x = %v, want %v", sol.X, want)
		}
	}
}

// TestWarmStartMatchesColdSolve fixes variables one at a time via
// SetBounds+Solve and checks each warm-started optimum equals a cold
// solve of the equivalently-bounded problem.
func TestWarmStartMatchesColdSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n, m := 3, 3
		c := make([]float64, n)
		lo := make([]float64, n)
		up := make([]float64, n)
		for j := 0; j < n; j++ {
			c[j] = float64(rng.Intn(7) - 3)
			up[j] = float64(1 + rng.Intn(2))
		}
		a := make([][]float64, m)
		b := make([]float64, m)
		for i := 0; i < m; i++ {
			a[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				a[i][j] = float64(rng.Intn(5) - 1)
			}
			b[i] = float64(1 + rng.Intn(5))
		}
		p := &Problem{C: c, A: rowsOf(a), B: b, Lo: lo, Up: up}
		s, err := NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		if sol, err := s.Solve(); err != nil || sol.Status != Optimal {
			continue // uninteresting draw; the generator keeps b ≥ 1 so most are optimal
		}
		for j := 0; j < n; j++ {
			v := float64(rng.Intn(2))
			if v > up[j] {
				v = up[j]
			}
			if err := s.SetBounds(j, v, v); err != nil {
				t.Fatal(err)
			}
			warm, err := s.Solve()
			if err != nil {
				t.Fatalf("trial %d fix x%d=%v: %v", trial, j, v, err)
			}

			lo2 := append([]float64(nil), lo...)
			up2 := append([]float64(nil), up...)
			lo2[j], up2[j] = v, v
			cold, err := Solve(&Problem{C: c, A: rowsOf(a), B: b, Lo: lo2, Up: up2})
			if err != nil {
				t.Fatal(err)
			}
			if warm.Status != cold.Status {
				t.Fatalf("trial %d fix x%d=%v: warm %v, cold %v", trial, j, v, warm.Status, cold.Status)
			}
			if warm.Status == Optimal && math.Abs(warm.Objective-cold.Objective) > 1e-9 {
				t.Fatalf("trial %d fix x%d=%v: warm obj %v, cold obj %v",
					trial, j, v, warm.Objective, cold.Objective)
			}
			// Release the variable again for the next fixing.
			if err := s.SetBounds(j, lo[j], up[j]); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Solve(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSnapshotRestoreRoundTrip pivots the solver away from an optimum via
// bound fixings, restores the snapshot, and checks the solver reproduces
// the original optimum exactly.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	p := &Problem{
		C:  []float64{-2, -3, -1},
		A:  rowsOf([][]float64{{1, 1, 1}, {2, 1, 0}}),
		B:  []float64{4, 5},
		Up: []float64{3, 3, 3},
	}
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Solve()
	if err != nil || first.Status != Optimal {
		t.Fatalf("first solve: %v %v", first, err)
	}
	snap := s.Snapshot()

	// Wander: fix each variable to 0 in turn and re-optimize.
	for j := 0; j < 3; j++ {
		if err := s.SetBounds(j, 0, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Solve(); err != nil {
			t.Fatal(err)
		}
		if err := s.SetBounds(j, 0, 3); err != nil {
			t.Fatal(err)
		}
	}

	if err := s.Restore(snap); err != nil {
		t.Fatal(err)
	}
	again, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if again.Status != Optimal || math.Abs(again.Objective-first.Objective) > 1e-9 {
		t.Fatalf("restored solve: %+v, want objective %v", again, first.Objective)
	}
	if again.Iterations != 0 {
		t.Fatalf("restored basis needed %d pivots; snapshot should already be optimal", again.Iterations)
	}
}

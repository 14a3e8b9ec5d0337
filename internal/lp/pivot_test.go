package lp

import (
	"math/rand"
	"testing"
)

// densePivot is structuralPivot as it stood before it went sparse: it
// updates every coefficient column of every touched row and of the cost
// row, the pivot row's zero columns included, and shifts no value. The
// references in reference_test.go pivot with it.
func densePivot(s *Solver, r, enter int) {
	row := s.rows[r]
	pv := row[enter]
	for q := 0; q < s.ncols; q++ {
		row[q] /= pv
	}
	row[enter] = 1
	for i := 0; i < s.m; i++ {
		if i == r {
			continue
		}
		f := s.rows[i][enter]
		if f == 0 {
			continue
		}
		ri := s.rows[i]
		for q := 0; q < s.ncols; q++ {
			ri[q] -= f * row[q]
		}
		ri[enter] = 0
	}
	if f := s.cost[enter]; f != 0 {
		for q := 0; q < s.ncols; q++ {
			s.cost[q] -= f * row[q]
		}
		s.cost[enter] = 0
	}
}

// sparseProblem draws an LP whose rows are mostly zero, as the §3.4
// programs' are, with coefficients of both signs. About a third of the
// right-hand sides are zero, as the possession rows' are.
func sparseProblem(rng *rand.Rand, m, n int) *Problem {
	p := &Problem{C: make([]float64, n), B: make([]float64, m)}
	for j := range p.C {
		p.C[j] = float64(rng.Intn(7) - 3)
	}
	for i := 0; i < m; i++ {
		var row Row
		for j := 0; j < n; j++ {
			if rng.Intn(4) == 0 {
				if v := float64(rng.Intn(9)-4) / float64(1+rng.Intn(3)); v != 0 {
					row.Cols = append(row.Cols, j)
					row.Vals = append(row.Vals, v)
				}
			}
		}
		p.A = append(p.A, row)
		if rng.Intn(3) > 0 {
			p.B[i] = float64(1 + rng.Intn(8))
		}
	}
	return p
}

// TestSparsePivotMatchesDense runs checkLevers on seeded sparseProblem
// draws: the sparse set-up, the sparse pivot with its fused value shift,
// B⁻¹b over the nonzero right-hand sides and Restore's short lists must
// leave the state == the dense reference code's after construction and
// after every pivot and restore.
func TestSparsePivotMatchesDense(t *testing.T) {
	var total leverCounts
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, n := 2+rng.Intn(14), 2+rng.Intn(40)
		got, err := checkLevers(sparseProblem(rng, m, n), seed)
		if err != nil {
			t.Fatalf("seed %d (%d×%d): %v", seed, m, n, err)
		}
		total.Pivots += got.Pivots
		total.Restores += got.Restores
	}
	if total.Pivots < 1000 || total.Restores < 100 {
		t.Errorf("only %d pivots and %d restores replayed; the problem draw has drifted", total.Pivots, total.Restores)
	}
	t.Logf("%d pivots and %d restores replayed", total.Pivots, total.Restores)
}

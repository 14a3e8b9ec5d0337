package lp

import (
	"math"
	"math/rand"
	"testing"
)

// densePivot is structuralPivot as it stood before it went sparse: it
// updates every coefficient column of every touched row and of the cost
// row, the pivot row's zero columns included. TestSparsePivotMatchesDense
// replays pivot sequences through it.
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
// programs' are, with coefficients of both signs.
func sparseProblem(rng *rand.Rand, m, n int) *Problem {
	p := &Problem{C: make([]float64, n), B: make([]float64, m)}
	for j := range p.C {
		p.C[j] = float64(rng.Intn(7) - 3)
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		for j := range row {
			if rng.Intn(4) == 0 {
				row[j] = float64(rng.Intn(9)-4) / float64(1+rng.Intn(3))
			}
		}
		p.A = append(p.A, row)
		p.B[i] = float64(rng.Intn(9))
	}
	return p
}

// TestSparsePivotMatchesDense replays seeded pivot sequences through
// structuralPivot and densePivot on two solvers built from one problem
// and requires equal tableaux and cost rows after every pivot. Each pivot
// brings a nonbasic column into a random row on an entry of magnitude at
// least 1/4, keeping the tableaux well conditioned. Equal means == per
// entry: where the dense loop subtracts f·0 from a −0 it leaves +0, which
// compares equal and which no pricing or ratio test can tell apart.
func TestSparsePivotMatchesDense(t *testing.T) {
	pivots := 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, n := 2+rng.Intn(14), 2+rng.Intn(40)
		p := sparseProblem(rng, m, n)
		sparse, err := NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		dense, err := NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		var cands []int
		for k := 0; k < 80; k++ {
			r := rng.Intn(m)
			cands = cands[:0]
			for j := 0; j < sparse.ncols; j++ {
				if sparse.rowOf[j] < 0 && math.Abs(sparse.rows[r][j]) >= 0.25 {
					cands = append(cands, j)
				}
			}
			if len(cands) == 0 {
				continue
			}
			enter := cands[rng.Intn(len(cands))]
			sparse.structuralPivot(r, enter)
			densePivot(dense, r, enter)
			for _, s := range []*Solver{sparse, dense} {
				s.rowOf[s.basis[r]] = -1
				s.basis[r], s.rowOf[enter] = enter, r
			}
			pivots++
			for i := 0; i < m; i++ {
				for q := 0; q < sparse.ncols; q++ {
					if sparse.rows[i][q] != dense.rows[i][q] {
						t.Fatalf("seed %d pivot %d (row %d, column %d): tableau[%d][%d] = %v, dense %v",
							seed, k, r, enter, i, q, sparse.rows[i][q], dense.rows[i][q])
					}
				}
			}
			for q := range sparse.cost {
				if sparse.cost[q] != dense.cost[q] {
					t.Fatalf("seed %d pivot %d (row %d, column %d): cost[%d] = %v, dense %v",
						seed, k, r, enter, q, sparse.cost[q], dense.cost[q])
				}
			}
		}
		sparse.Release()
		dense.Release()
	}
	if pivots < 1000 {
		t.Errorf("only %d pivots replayed; the problem draw has drifted", pivots)
	}
	t.Logf("%d pivots replayed", pivots)
}

package lp

import (
	"fmt"
	"math"
	"slices"
)

// Basis is an immutable snapshot of a Solver's basis: which column is
// basic in each row plus the resting bound of every nonbasic column. It
// carries no bound values — reinstalling a Basis under different bounds
// is exactly the branch-and-bound warm start, where a child node reuses
// its parent's optimal basis with one variable's bounds tightened.
type Basis struct {
	cols []int
	atUp []bool
}

// Snapshot captures the current basis. The snapshot is detached: later
// pivots or bound changes do not affect it, and it may be restored into
// the solver any number of times (callers typically share one snapshot
// across sibling branch-and-bound nodes).
func (s *Solver) Snapshot() Basis {
	return Basis{
		cols: append([]int(nil), s.basis...),
		atUp: append([]bool(nil), s.atUp...),
	}
}

// Restore re-installs a snapshot taken earlier on the same solver. It
// pivots incrementally from the current basis — the cost is proportional
// to how many positions differ, so hopping between nearby branch-and-
// bound nodes is cheap — then rebuilds the value and reduced-cost rows
// under the solver's *current* bounds. Reduced costs depend only on the
// basis, so a snapshot taken at an optimum stays dual feasible no matter
// how the bounds have moved since; a subsequent Resolve finishes the job.
func (s *Solver) Restore(bs Basis) error {
	if len(bs.cols) != s.m || len(bs.atUp) != s.ncols {
		return fmt.Errorf("%w: basis for %d rows/%d cols restored into %d/%d",
			ErrDimensions, len(bs.cols), len(bs.atUp), s.m, s.ncols)
	}
	target := s.mark
	for k, c := range bs.cols {
		if c < 0 || c >= s.ncols || target[c] {
			for _, c := range bs.cols[:k] {
				target[c] = false
			}
			return fmt.Errorf("%w: basis names column %d twice or out of range", ErrSingular, c)
		}
		target[c] = true
	}
	// The k rows whose basic column the target drops and the k target
	// columns not yet basic, both ascending: the only places a pivot can
	// go.
	leaving, entering := s.leaving[:0], s.entering[:0]
	for i, c := range s.basis {
		if !target[c] {
			leaving = append(leaving, i)
		}
	}
	for j, want := range target {
		if want && s.rowOf[j] < 0 {
			entering = append(entering, j)
		}
	}
	for _, c := range bs.cols {
		target[c] = false
	}

	// Pivot target columns in one at a time, each time kicking out a
	// current basic column the target does not want. Choosing the largest
	// available pivot element keeps the elimination stable; scanning the
	// lists row-major keeps the first of equal elements, as a scan of
	// the whole tableau would.
	for len(leaving) > 0 {
		bestL, bestE := -1, -1
		bestA := 1e-7
		for l, i := range leaving {
			row := s.rows[i]
			for e, j := range entering {
				if a := math.Abs(row[j]); a > bestA {
					bestL, bestE, bestA = l, e, a
				}
			}
		}
		if bestL == -1 {
			return ErrSingular
		}
		r, enter := leaving[bestL], entering[bestE]
		s.structuralPivot(r, enter, false, 0)
		s.rowOf[s.basis[r]] = -1
		s.basis[r] = enter
		s.rowOf[enter] = r
		leaving = slices.Delete(leaving, bestL, bestL+1)
		entering = slices.Delete(entering, bestE, bestE+1)
	}

	for j := 0; j < s.ncols; j++ {
		if s.rowOf[j] < 0 {
			s.atUp[j] = bs.atUp[j] && !math.IsInf(s.up[j], 1)
		}
	}
	// Full recomputation doubles as drift control: restores are the
	// natural refactorization points of a long branch-and-bound run.
	s.recomputeCost()
	s.recomputeValues()
	return nil
}

package lp

// This file keeps, as test references, the code that the solver's sparse
// levers replaced: the dense set-up NewSolver did from a dense matrix,
// the dense B⁻¹b of recomputeValues, the value-shift loops that ran
// beside each primal and dual pivot, and Restore's scan of the whole
// tableau for each pivot. checkLevers drives a solver and a reference
// twin through the same pivots and restores and requires == state after
// each; TestSparsePivotMatchesDense runs it on sparseProblem draws and
// TestLeversOnILPPrograms on the §3.4 programs internal/ilp builds.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// rowsOf returns the sparse rows of a dense matrix: each row's nonzero
// entries in column order.
func rowsOf(a [][]float64) []Row {
	rows := make([]Row, len(a))
	for i, dense := range a {
		for j, v := range dense {
			if v != 0 {
				rows[i].Cols = append(rows[i].Cols, j)
				rows[i].Vals = append(rows[i].Vals, v)
			}
		}
	}
	return rows
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// denseOf is the reference reading of p: the dense matrix its rows
// describe, or the error NewSolver must return for p. It checks what
// NewSolver checks, in the same order — the right-hand side's and the
// bounds' lengths, then row by row and entry by entry a column in range
// and not seen before and a finite value, then the right-hand side, then
// column by column a finite cost and a valid bound pair — with a map
// where NewSolver uses marks.
func denseOf(p *Problem) ([][]float64, error) {
	n, m := len(p.C), len(p.A)
	if len(p.B) != m || (p.Lo != nil && len(p.Lo) != n) || (p.Up != nil && len(p.Up) != n) {
		return nil, ErrDimensions
	}
	a := make([][]float64, m)
	for i, r := range p.A {
		if len(r.Cols) != len(r.Vals) {
			return nil, ErrDimensions
		}
		a[i] = make([]float64, n)
		seen := map[int]bool{}
		for k, j := range r.Cols {
			if j < 0 || j >= n || seen[j] {
				return nil, ErrDimensions
			}
			if !finite(r.Vals[k]) {
				return nil, ErrNotFinite
			}
			seen[j] = true
			a[i][j] = r.Vals[k]
		}
	}
	for _, v := range p.B {
		if !finite(v) {
			return nil, ErrNotFinite
		}
	}
	for j, c := range p.C {
		if !finite(c) {
			return nil, ErrNotFinite
		}
		lo, up := 0.0, math.Inf(1)
		if p.Lo != nil {
			lo = p.Lo[j]
		}
		if p.Up != nil {
			up = p.Up[j]
		}
		if math.IsInf(lo, 0) || math.IsNaN(lo) || math.IsNaN(up) || up < lo {
			return nil, ErrBounds
		}
	}
	return a, nil
}

// denseNewSolver is NewSolver's set-up as it stood before the input went
// sparse: fresh arrays, each dense row copied into the tableau beside the
// identity, and the values from the dense B⁻¹b.
func denseNewSolver(p *Problem) (*Solver, error) {
	a, err := denseOf(p)
	if err != nil {
		return nil, err
	}
	n, m := len(p.C), len(a)
	s := &Solver{
		n: n, m: m, ncols: n + m,
		workspace: &workspace{
			c:     make([]float64, n+m),
			lo:    make([]float64, n+m),
			up:    make([]float64, n+m),
			b:     append([]float64(nil), p.B...),
			cost:  make([]float64, n+m),
			basis: make([]int, m),
			rowOf: make([]int, n+m),
			atUp:  make([]bool, n+m),
			nz:    make([]int, 0, n+m),
			mark:  make([]bool, n+m),
			rows:  make([][]float64, m),
		},
	}
	copy(s.c, p.C)
	for j := 0; j < n; j++ {
		if p.Lo != nil {
			s.lo[j] = p.Lo[j]
		}
		if p.Up != nil {
			s.up[j] = p.Up[j]
		} else {
			s.up[j] = math.Inf(1)
		}
	}
	w := s.ncols + 1
	s.tableau = make([]float64, m*w)
	for i := 0; i < m; i++ {
		s.up[n+i] = math.Inf(1)
		row := s.tableau[i*w : (i+1)*w : (i+1)*w]
		copy(row, a[i])
		row[n+i] = 1
		s.rows[i] = row
	}
	s.reset()
	denseRecomputeValues(s)
	return s, nil
}

// denseRecomputeValues is recomputeValues with B⁻¹b summed over every
// row, zero right-hand sides included.
func denseRecomputeValues(s *Solver) {
	for i := 0; i < s.m; i++ {
		v := 0.0
		for k := 0; k < s.m; k++ {
			v += s.rows[i][s.n+k] * s.b[k]
		}
		s.rows[i][s.ncols] = v
	}
	for j := 0; j < s.ncols; j++ {
		if s.rowOf[j] >= 0 {
			continue
		}
		x := s.boundVal(j)
		if x == 0 {
			continue
		}
		for i := 0; i < s.m; i++ {
			s.rows[i][s.ncols] -= s.rows[i][j] * x
		}
	}
}

// refInstallBasic is a primal or dual step as it stood before the value
// shift moved into the pivot: a separate pass subtracts α·delta from
// every row's value, the pivot row's included, then the dense pivot runs
// and the entering column's value is set.
func refInstallBasic(s *Solver, r, enter int, enterVal, delta float64) {
	for i := 0; i < s.m; i++ {
		s.rows[i][s.ncols] -= s.rows[i][enter] * delta
	}
	densePivot(s, r, enter)
	s.rows[r][s.ncols] = enterVal
	s.rowOf[s.basis[r]] = -1
	s.basis[r] = enter
	s.rowOf[enter] = r
}

// refRestore is Restore as it stood before it searched only the rows and
// columns that differ: fresh target marks, and for every pivot a
// row-major scan of every row and column for the largest eligible
// element.
func refRestore(s *Solver, bs Basis) error {
	target := make([]bool, s.ncols)
	for _, c := range bs.cols {
		if c < 0 || c >= s.ncols || target[c] {
			return ErrSingular
		}
		target[c] = true
	}
	for {
		bestR, bestJ := -1, -1
		bestA := 1e-7
		for i := 0; i < s.m; i++ {
			if target[s.basis[i]] {
				continue
			}
			row := s.rows[i]
			for j := 0; j < s.ncols; j++ {
				if !target[j] || s.rowOf[j] >= 0 {
					continue
				}
				if a := math.Abs(row[j]); a > bestA {
					bestR, bestJ, bestA = i, j, a
				}
			}
		}
		if bestR == -1 {
			for i := 0; i < s.m; i++ {
				if !target[s.basis[i]] {
					return ErrSingular
				}
			}
			break
		}
		old := s.basis[bestR]
		densePivot(s, bestR, bestJ)
		s.rowOf[old] = -1
		s.basis[bestR] = bestJ
		s.rowOf[bestJ] = bestR
	}
	for j := 0; j < s.ncols; j++ {
		if s.rowOf[j] < 0 {
			s.atUp[j] = bs.atUp[j] && !math.IsInf(s.up[j], 1)
		}
	}
	s.recomputeCost()
	denseRecomputeValues(s)
	return nil
}

// cloneSolver returns a copy of s with a workspace of its own.
func cloneSolver(s *Solver) *Solver {
	c := *s
	c.workspace = &workspace{
		tableau: make([]float64, len(s.tableau)),
		rows:    make([][]float64, s.m),
		c:       append([]float64(nil), s.c...),
		lo:      append([]float64(nil), s.lo...),
		up:      append([]float64(nil), s.up...),
		b:       append([]float64(nil), s.b...),
		rhsRows: append([]int(nil), s.rhsRows...),
		cost:    append([]float64(nil), s.cost...),
		basis:   append([]int(nil), s.basis...),
		rowOf:   append([]int(nil), s.rowOf...),
		atUp:    append([]bool(nil), s.atUp...),
		nz:      make([]int, 0, s.ncols),
		mark:    make([]bool, s.ncols),
	}
	w := s.ncols + 1
	for i, row := range s.rows {
		c.rows[i] = c.tableau[i*w : (i+1)*w : (i+1)*w]
		copy(c.rows[i], row)
	}
	return &c
}

// stateDiff reports the first way s differs from ref, or "" if it does
// not: every tableau entry, the value column's included, every reduced
// cost, the problem data and the basis bookkeeping must be ==. A −0
// against a +0 is equal, as no pricing or ratio test can tell them apart.
func stateDiff(s, ref *Solver) string {
	if s.n != ref.n || s.m != ref.m {
		return fmt.Sprintf("%d×%d, reference %d×%d", s.m, s.n, ref.m, ref.n)
	}
	for i := range ref.rows {
		for q, want := range ref.rows[i] {
			if got := s.rows[i][q]; got != want {
				return fmt.Sprintf("tableau[%d][%d] = %v, reference %v", i, q, got, want)
			}
		}
	}
	for j := 0; j < ref.ncols; j++ {
		switch {
		case s.cost[j] != ref.cost[j]:
			return fmt.Sprintf("cost[%d] = %v, reference %v", j, s.cost[j], ref.cost[j])
		case s.c[j] != ref.c[j] || s.lo[j] != ref.lo[j] || s.up[j] != ref.up[j]:
			return fmt.Sprintf("column %d: c, lo, up = %v, %v, %v, reference %v, %v, %v",
				j, s.c[j], s.lo[j], s.up[j], ref.c[j], ref.lo[j], ref.up[j])
		case s.rowOf[j] != ref.rowOf[j] || s.atUp[j] != ref.atUp[j]:
			return fmt.Sprintf("column %d: row %d atUp %v, reference row %d atUp %v",
				j, s.rowOf[j], s.atUp[j], ref.rowOf[j], ref.atUp[j])
		}
	}
	for i := 0; i < ref.m; i++ {
		if s.basis[i] != ref.basis[i] || s.b[i] != ref.b[i] {
			return fmt.Sprintf("row %d: basic %d rhs %v, reference basic %d rhs %v",
				i, s.basis[i], s.b[i], ref.basis[i], ref.b[i])
		}
	}
	if s.dualDeficient != ref.dualDeficient {
		return fmt.Sprintf("dual deficient %v, reference %v", s.dualDeficient, ref.dualDeficient)
	}
	return ""
}

// leverCounts is what checkLevers replayed.
type leverCounts struct{ Pivots, Restores int }

// checkLevers builds p through NewSolver and through denseNewSolver, then
// replays up to 80 seeded pivots through installBasic and
// refInstallBasic, recomputes the values both ways after every fourth,
// and restores a snapshot taken earlier both ways after every tenth. It
// returns an error at the first state that is not == the reference's.
//
// Each pivot brings a nonbasic column into a random row on an entry of
// magnitude at least 1/4, keeping the tableaux well conditioned, and
// moves by the step that takes the leaving variable to its lower bound,
// as a dual step does.
func checkLevers(p *Problem, seed int64) (leverCounts, error) {
	var n leverCounts
	s, err := NewSolver(p)
	if err != nil {
		return n, err
	}
	defer s.Release()
	ref, err := denseNewSolver(p)
	if err != nil {
		return n, err
	}
	if d := stateDiff(s, ref); d != "" {
		return n, fmt.Errorf("after construction: %s", d)
	}
	var rhsRows []int
	for i, v := range p.B {
		if v != 0 {
			rhsRows = append(rhsRows, i)
		}
	}
	if !slices.Equal(s.rhsRows, rhsRows) {
		return n, fmt.Errorf("nonzero right-hand sides listed as %v, want %v", s.rhsRows, rhsRows)
	}
	if s.m == 0 {
		return n, nil
	}

	rng := rand.New(rand.NewSource(seed))
	snaps := []Basis{s.Snapshot()}
	var cands []int
	for k := 1; k <= 80; k++ {
		r := rng.Intn(s.m)
		cands = cands[:0]
		for j := 0; j < s.ncols; j++ {
			if s.rowOf[j] < 0 && math.Abs(s.rows[r][j]) >= 0.25 {
				cands = append(cands, j)
			}
		}
		if len(cands) == 0 {
			continue
		}
		enter := cands[rng.Intn(len(cands))]
		delta := (s.rows[r][s.ncols] - s.lo[s.basis[r]]) / s.rows[r][enter]
		enterVal := s.boundVal(enter) + delta
		s.installBasic(r, enter, enterVal, delta)
		refInstallBasic(ref, r, enter, enterVal, delta)
		n.Pivots++
		if d := stateDiff(s, ref); d != "" {
			return n, fmt.Errorf("pivot %d (row %d, column %d, step %v): %s", k, r, enter, delta, d)
		}
		if k%4 == 0 {
			s.recomputeValues()
			denseRecomputeValues(ref)
			if d := stateDiff(s, ref); d != "" {
				return n, fmt.Errorf("values recomputed after pivot %d: %s", k, d)
			}
		}
		snaps = append(snaps, s.Snapshot())
		if k%10 == 0 {
			bs := snaps[rng.Intn(len(snaps))]
			ref = cloneSolver(s)
			err, refErr := s.Restore(bs), refRestore(ref, bs)
			if (err == nil) != (refErr == nil) {
				return n, fmt.Errorf("restore after pivot %d: error %v, reference %v", k, err, refErr)
			}
			if err != nil {
				return n, nil // both singular: the tableaux part ways here
			}
			n.Restores++
			if d := stateDiff(s, ref); d != "" {
				return n, fmt.Errorf("restore after pivot %d: %s", k, d)
			}
		}
	}
	return n, nil
}

package lp

import (
	"fmt"
	"math"
	"sync"
)

// Solver holds a dense simplex tableau that persists across solves. The
// column layout is [structural (n) | slack (m)]; the tableau rows hold
// the current B⁻¹[A I] with one extra column carrying the *value* of
// each basic variable (not B⁻¹b: nonbasic variables sit at one of their
// bounds and their contribution is folded in). A parallel cost row holds
// the current reduced costs.
type Solver struct {
	n, m  int // structural variables, rows
	ncols int // n + m coefficient columns; the value column is ncols

	// The workspace holds the problem data and every array the solves,
	// resolves and restores on this Solver work in; pivots mutate it in
	// place. It comes from a pool, and Release hands it back.
	*workspace

	// dualDeficient marks columns with negative cost and no finite upper
	// bound: no nonbasic status makes them dual feasible, so a fresh
	// solve needs a feasibility pass before pricing with the real costs.
	dualDeficient bool

	iters    int // lifetime pivot count (primal + dual + bound flips)
	flips    int // lifetime bound flips (subset of iters)
	resolves int // lifetime Resolve calls (dual-simplex warm-start restorations)
	stall    int // consecutive degenerate pivots; triggers Bland's rule
	bland    bool
}

// workspace is the memory one Solver works in. NewSolver takes it from
// workspaces, sizes it, clears the tableau and the marks and overwrites
// every other array before reading it, so nothing an earlier solver left
// behind is ever read; Release puts it back.
type workspace struct {
	//ocd:scratch
	tableau []float64 // backing of rows
	//ocd:scratch
	rows [][]float64 // m × (ncols+1), carved from tableau
	//ocd:scratch
	c []float64 // objective per column (slack columns are 0)
	//ocd:scratch
	lo []float64 // lower bound per column (slacks: 0)
	//ocd:scratch
	up []float64 // upper bound per column (slacks: +∞)
	//ocd:scratch
	b []float64 // original right-hand side (for value recomputation)
	//ocd:scratch
	rhsRows []int // the rows whose right-hand side is nonzero, ascending
	//ocd:scratch
	cost []float64 // ncols reduced costs
	//ocd:scratch
	basis []int // row → basic column
	//ocd:scratch
	rowOf []int // column → row, or -1 when nonbasic
	//ocd:scratch
	atUp []bool // nonbasic column rests at its upper bound
	//ocd:scratch
	nz []int // the pivot row's nonzero columns, refilled by each pivot
	//ocd:scratch
	mark []bool // per-column marks, all false between uses
	//ocd:scratch
	leaving []int // Restore: the rows whose basic column the target drops
	//ocd:scratch
	entering []int // Restore: the target's columns that are not yet basic
}

// stallLimit is the degenerate-pivot run length that switches pricing
// from Dantzig's rule to Bland's anti-cycling rule. Any strict progress
// switches back.
const stallLimit = 24

// workspaces recycles workspaces between solvers: a branch-and-bound run
// builds one solver per program, and on the §3.4 programs the dense
// tableau is most of the memory a solve allocates.
var workspaces sync.Pool

// NewSolver validates the problem and builds a solver positioned at the
// all-slack basis. The problem data is copied; the caller may reuse p.
// The workspace comes from a pool; Release returns it.
//
// A row whose Cols and Vals differ in length, or that names a column
// outside [0, n) or one column twice, fails with ErrDimensions; a NaN or
// infinite coefficient or right-hand side with ErrNotFinite.
func NewSolver(p *Problem) (*Solver, error) {
	n := len(p.C)
	m := len(p.A)
	if len(p.B) != m {
		return nil, fmt.Errorf("%w: %d rows but %d rhs entries", ErrDimensions, m, len(p.B))
	}
	if p.Lo != nil && len(p.Lo) != n {
		return nil, fmt.Errorf("%w: %d lower bounds for %d variables", ErrDimensions, len(p.Lo), n)
	}
	if p.Up != nil && len(p.Up) != n {
		return nil, fmt.Errorf("%w: %d upper bounds for %d variables", ErrDimensions, len(p.Up), n)
	}
	s := &Solver{n: n, m: m, ncols: n + m, workspace: getWorkspace(n, m)}
	if err := s.load(p); err != nil {
		s.Release()
		return nil, err
	}
	s.reset()
	return s, nil
}

// load copies p into the workspace: the rows of [A I], scattered into
// the cleared tableau, then the right-hand side and the list of its
// nonzero rows, then the objective and the bounds.
func (s *Solver) load(p *Problem) error {
	n, w := s.n, s.ncols+1
	for i, r := range p.A {
		if len(r.Cols) != len(r.Vals) {
			return fmt.Errorf("%w: row %d has %d columns but %d values", ErrDimensions, i, len(r.Cols), len(r.Vals))
		}
		row := s.tableau[i*w : (i+1)*w : (i+1)*w]
		for k, j := range r.Cols {
			if j < 0 || j >= n || s.mark[j] {
				return fmt.Errorf("%w: row %d names column %d, out of range or twice", ErrDimensions, i, j)
			}
			v := r.Vals[k]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: row %d has %v at column %d", ErrNotFinite, i, v, j)
			}
			s.mark[j] = true
			row[j] = v
		}
		for _, j := range r.Cols {
			s.mark[j] = false
		}
		row[n+i] = 1
		s.rows[i] = row
	}
	s.rhsRows = s.rhsRows[:0]
	for i, v := range p.B {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: row %d has right-hand side %v", ErrNotFinite, i, v)
		}
		s.b[i] = v
		if v != 0 {
			s.rhsRows = append(s.rhsRows, i)
		}
	}
	for j := 0; j < n; j++ {
		c, lo, up := p.C[j], 0.0, math.Inf(1)
		if p.Lo != nil {
			lo = p.Lo[j]
		}
		if p.Up != nil {
			up = p.Up[j]
		}
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("%w: variable %d has cost %v", ErrNotFinite, j, c)
		}
		if math.IsInf(lo, 0) || math.IsNaN(lo) || math.IsNaN(up) || up < lo {
			return fmt.Errorf("%w: variable %d has [%v, %v]", ErrBounds, j, lo, up)
		}
		s.c[j], s.lo[j], s.up[j] = c, lo, up
	}
	for j := n; j < s.ncols; j++ {
		s.c[j], s.lo[j], s.up[j] = 0, 0, math.Inf(1) // slack bounds [0, ∞)
	}
	return nil
}

// getWorkspace returns a workspace for n structural variables and m
// rows, reusing a released one's arrays where they are large enough. Its
// tableau and marks are cleared and its lists empty.
func getWorkspace(n, m int) *workspace {
	ws, _ := workspaces.Get().(*workspace)
	if ws == nil {
		ws = new(workspace)
	}
	ncols := n + m
	ws.tableau = resize(ws.tableau, m*(ncols+1))
	clear(ws.tableau)
	ws.rows = resize(ws.rows, m)
	ws.c = resize(ws.c, ncols)
	ws.lo = resize(ws.lo, ncols)
	ws.up = resize(ws.up, ncols)
	ws.b = resize(ws.b, m)
	ws.rhsRows = resize(ws.rhsRows, m)[:0]
	ws.cost = resize(ws.cost, ncols)
	ws.basis = resize(ws.basis, m)
	ws.rowOf = resize(ws.rowOf, ncols)
	ws.atUp = resize(ws.atUp, ncols)
	ws.nz = resize(ws.nz, ncols)[:0]
	ws.mark = resize(ws.mark, ncols)
	clear(ws.mark)
	ws.leaving = resize(ws.leaving, m)[:0]
	ws.entering = resize(ws.entering, m)[:0]
	return ws
}

// resize returns buf with length size, reallocated only when its
// capacity is short. The contents are whatever buf held.
func resize[T any](buf []T, size int) []T {
	if cap(buf) < size {
		return make([]T, size)
	}
	return buf[:size]
}

// Release returns the solver's workspace to the pool for the next
// NewSolver. Solutions already returned stay valid, but the solver must
// not be used afterwards. Releasing twice is a no-op.
func (s *Solver) Release() {
	if s.workspace == nil {
		return
	}
	workspaces.Put(s.workspace)
	s.workspace = nil
}

// reset positions the solver at the all-slack basis with every
// structural variable nonbasic at the bound that makes it dual feasible
// where one exists (negative cost prefers the upper bound). It is called
// only from NewSolver, where the tableau rows are the original [A I].
func (s *Solver) reset() {
	s.dualDeficient = false
	for j := 0; j < s.ncols; j++ {
		s.rowOf[j] = -1
		s.cost[j] = s.c[j]
		s.atUp[j] = s.c[j] < -eps && !math.IsInf(s.up[j], 1)
		if s.c[j] < -eps && math.IsInf(s.up[j], 1) {
			s.dualDeficient = true
		}
	}
	for i := 0; i < s.m; i++ {
		col := s.n + i
		s.basis[i] = col
		s.rowOf[col] = i
		s.atUp[col] = false
	}
	s.recomputeValues()
}

// boundVal returns the value a nonbasic column rests at.
func (s *Solver) boundVal(j int) float64 {
	if s.atUp[j] {
		return s.up[j]
	}
	return s.lo[j]
}

// fixed reports whether a column's bounds pin it to a single value.
func (s *Solver) fixed(j int) bool { return s.up[j]-s.lo[j] <= eps }

// recomputeValues rebuilds the basic-value column from the invariant
// x_B = B⁻¹b − Σ_{j nonbasic} (B⁻¹A_j)·x_j, using the slack block of the
// tableau as B⁻¹. B⁻¹b sums only over the rows whose right-hand side is
// nonzero. A zero right-hand side's term is ±0, and adding ±0 changes no
// bit of a sum that starts at +0: a nonzero sum stays as it is, and +0
// stays +0 (x + y rounds to −0 only when both are −0).
func (s *Solver) recomputeValues() {
	for _, row := range s.rows {
		v := 0.0
		for _, k := range s.rhsRows {
			v += row[s.n+k] * s.b[k]
		}
		row[s.ncols] = v
	}
	for j := 0; j < s.ncols; j++ {
		if s.rowOf[j] >= 0 {
			continue
		}
		x := s.boundVal(j)
		if x == 0 {
			continue
		}
		for _, row := range s.rows {
			row[s.ncols] -= row[j] * x
		}
	}
}

// recomputeCost rebuilds the reduced-cost row c − c_Bᵀ·B⁻¹[A I] from the
// current tableau.
func (s *Solver) recomputeCost() {
	copy(s.cost, s.c)
	for i := 0; i < s.m; i++ {
		cb := s.c[s.basis[i]]
		if cb == 0 {
			continue
		}
		row := s.rows[i]
		for j := 0; j < s.ncols; j++ {
			s.cost[j] -= cb * row[j]
		}
	}
}

// structuralPivot makes column enter basic in row r, updating the
// coefficient columns and the cost row. With shift set it also moves
// every other row's basic value by −α·delta, α being the row's entry in
// the entering column before the pivot: the value update of a primal or
// dual step, made in the pivot's one pass over the rows. Each row gets
// exactly the subtraction a separate pass would give it, zero entries
// included. The pivot row's value is the caller's to set, and Restore's
// pivots shift nothing (it recomputes the values afterwards).
//
// The update of a row at column q subtracts a multiple of the pivot row's
// entry there, so it changes nothing where that entry is zero. The pivot
// gathers the pivot row's nonzero columns once into s.nz and updates each
// other row and the cost row only there; on 3,000 random n=5 §3.4
// programs a pivot row averages 44 nonzeros among 195 columns.
func (s *Solver) structuralPivot(r, enter int, shift bool, delta float64) {
	row := s.rows[r]
	pv := row[enter]
	nz := s.nz[:0]
	for q, v := range row[:s.ncols] {
		if v != 0 {
			row[q] = v / pv
			nz = append(nz, q)
		}
	}
	s.nz = nz
	row[enter] = 1
	val := s.ncols
	for i, ri := range s.rows {
		if i == r {
			continue
		}
		f := ri[enter]
		if shift {
			ri[val] -= f * delta
		}
		if f == 0 {
			continue
		}
		for _, q := range nz {
			ri[q] -= f * row[q]
		}
		ri[enter] = 0
	}
	if f := s.cost[enter]; f != 0 {
		cost := s.cost
		for _, q := range nz {
			cost[q] -= f * row[q]
		}
		cost[enter] = 0
	}
}

// installBasic moves column enter into the basis at row r, shifting the
// other rows' values by the step delta (see structuralPivot); enterVal is
// the entering column's post-move value.
func (s *Solver) installBasic(r, enter int, enterVal, delta float64) {
	s.structuralPivot(r, enter, true, delta)
	s.rows[r][s.ncols] = enterVal
	leave := s.basis[r]
	s.rowOf[leave] = -1
	s.basis[r] = enter
	s.rowOf[enter] = r
}

// progress records whether a pivot moved the solution and manages the
// Dantzig→Bland anti-cycling switch.
func (s *Solver) progress(step float64) {
	s.iters++
	if step > eps {
		s.stall = 0
		s.bland = false
		return
	}
	s.stall++
	if s.stall > stallLimit {
		s.bland = true
	}
}

func (s *Solver) maxIter() int { return 200*(s.m+s.ncols) + 1000 }

var errUnbounded = fmt.Errorf("lp: unbounded")
var errInfeasible = fmt.Errorf("lp: infeasible")

// primal runs bounded-variable primal simplex to optimality. It requires
// a primal-feasible tableau and returns errUnbounded when the objective
// is unbounded below.
func (s *Solver) primal() error {
	for iter := 0; iter < s.maxIter(); iter++ {
		enter := -1
		score := eps
		for j := 0; j < s.ncols; j++ {
			if s.rowOf[j] >= 0 || s.fixed(j) {
				continue
			}
			var sc float64
			if s.atUp[j] {
				sc = s.cost[j] // decreasing from the upper bound pays when rc > 0
			} else {
				sc = -s.cost[j] // increasing from the lower bound pays when rc < 0
			}
			if sc > score {
				enter = j
				if s.bland {
					break // Bland: first eligible index
				}
				score = sc
			}
		}
		if enter == -1 {
			return nil // optimal
		}
		d := 1.0
		if s.atUp[enter] {
			d = -1
		}

		// Ratio test: the entering variable moves by t ≥ 0 in direction d
		// until a basic variable hits a bound or it hits its own opposite
		// bound. Ties break toward the smallest basic column (Bland).
		limit := s.up[enter] - s.lo[enter]
		leave := -1
		leaveToUpper := false
		bestT := math.Inf(1)
		for i := 0; i < s.m; i++ {
			alpha := s.rows[i][enter] * d
			bi := s.basis[i]
			v := s.rows[i][s.ncols]
			var t float64
			var toUpper bool
			switch {
			case alpha > eps:
				t = (v - s.lo[bi]) / alpha
			case alpha < -eps:
				if math.IsInf(s.up[bi], 1) {
					continue
				}
				t = (v - s.up[bi]) / alpha
				toUpper = true
			default:
				continue
			}
			if t < 0 {
				t = 0 // degeneracy dust must not reverse the move
			}
			if leave == -1 || t < bestT-eps || (t <= bestT+eps && bi < s.basis[leave]) {
				leave = i
				leaveToUpper = toUpper
				if t < bestT {
					bestT = t
				}
			}
		}

		if !math.IsInf(limit, 1) && limit <= bestT {
			// The entering variable reaches its other bound first: a
			// bound flip, no basis change.
			for i := 0; i < s.m; i++ {
				s.rows[i][s.ncols] -= s.rows[i][enter] * d * limit
			}
			s.atUp[enter] = !s.atUp[enter]
			s.flips++
			s.progress(limit)
			continue
		}
		if leave == -1 {
			return errUnbounded
		}
		// d = ±1, so the shift α·(d·t) rounds exactly as (α·d)·t.
		enterVal := s.boundVal(enter) + d*bestT
		s.atUp[s.basis[leave]] = leaveToUpper
		s.installBasic(leave, enter, enterVal, d*bestT)
		s.progress(bestT)
	}
	return ErrIterLimit
}

// dual runs dual simplex until every basic variable is inside its
// bounds. It requires a dual-feasible cost row and returns errInfeasible
// when a violated row admits no entering column (a Farkas certificate).
func (s *Solver) dual() error {
	for iter := 0; iter < s.maxIter(); iter++ {
		r := -1
		worst := feasTol
		for i := 0; i < s.m; i++ {
			bi := s.basis[i]
			v := s.rows[i][s.ncols]
			viol := s.lo[bi] - v
			if over := v - s.up[bi]; over > viol {
				viol = over
			}
			if viol > worst {
				r = i
				if s.bland {
					break // Bland: first violated row
				}
				worst = viol
			}
		}
		if r == -1 {
			return nil // primal feasible
		}
		bi := s.basis[r]
		v := s.rows[r][s.ncols]
		toLower := v < s.lo[bi]
		target := s.up[bi]
		if toLower {
			target = s.lo[bi]
		}

		// Entering column: eligible nonbasic columns are those whose
		// admissible move pushes the violated basic variable toward its
		// bound; the dual ratio |rc/α| keeps the cost row dual feasible.
		enter := -1
		bestRatio := math.Inf(1)
		bestAlpha := 0.0
		row := s.rows[r]
		for j, alpha := range row[:s.ncols] {
			// Most pivot-row entries are zero: test that first.
			if math.Abs(alpha) <= eps || s.rowOf[j] >= 0 || s.fixed(j) {
				continue
			}
			// Moving off a lower bound means Δx_j ≥ 0; off an upper bound
			// Δx_j ≤ 0. The basic value changes by −α·Δx_j.
			up := s.atUp[j]
			if toLower { // need the basic value to increase
				if (!up && alpha >= -eps) || (up && alpha <= eps) {
					continue
				}
			} else { // need it to decrease
				if (!up && alpha <= eps) || (up && alpha >= -eps) {
					continue
				}
			}
			ratio := math.Abs(s.cost[j]) / math.Abs(alpha)
			// Scanning ascending j, ties keep the earlier (smaller) index
			// in Bland mode and prefer the larger |α| pivot otherwise.
			better := ratio < bestRatio-eps ||
				(!s.bland && ratio <= bestRatio+eps && math.Abs(alpha) > math.Abs(bestAlpha))
			if enter == -1 || better {
				enter = j
				if ratio < bestRatio {
					bestRatio = ratio
				}
				bestAlpha = alpha
			}
		}
		if enter == -1 {
			return errInfeasible
		}
		dx := (v - target) / row[enter]
		enterVal := s.boundVal(enter) + dx
		s.atUp[bi] = !toLower
		s.installBasic(r, enter, enterVal, dx)
		s.progress(bestRatio) // dual progress: a zero ratio is degenerate
	}
	return ErrIterLimit
}

// primalFeasible reports whether every basic value is inside its bounds.
func (s *Solver) primalFeasible() bool {
	for i := 0; i < s.m; i++ {
		bi := s.basis[i]
		v := s.rows[i][s.ncols]
		if v < s.lo[bi]-feasTol || v > s.up[bi]+feasTol {
			return false
		}
	}
	return true
}

// Solve optimizes from the solver's current state. On a fresh solver
// that is the all-slack basis; after SetBounds / Restore it continues
// from wherever the tableau stands (see Resolve for the warm-start
// contract). The returned Iterations counts only this call's pivots.
func (s *Solver) Solve() (*Solution, error) {
	startIters := s.iters
	s.stall, s.bland = 0, false

	var err error
	switch {
	case s.primalFeasible():
		err = s.primal()
	case !s.dualDeficient:
		if err = s.dual(); err == nil {
			err = s.primal()
		}
	default:
		// No nonbasic status makes the cost row dual feasible (some
		// negative-cost column is unbounded above). Run a feasibility
		// pass: dual simplex against a zero cost row accepts any pivot
		// and terminates at a primal-feasible basis without artificial
		// variables, then the real costs take over.
		for j := range s.cost {
			s.cost[j] = 0
		}
		if err = s.dual(); err == nil {
			s.recomputeCost()
			err = s.primal()
		} else {
			s.recomputeCost()
		}
	}
	return s.finish(startIters, err)
}

// Resolve re-optimizes after bound changes via dual simplex from the
// current basis. The cost row stays dual feasible across SetBounds
// calls, so this is the warm start: typically a handful of pivots where
// a fresh Solve would need a full phase. The returned Iterations counts
// only this call's pivots.
func (s *Solver) Resolve() (*Solution, error) {
	startIters := s.iters
	s.resolves++
	s.stall, s.bland = 0, false
	err := s.dual()
	if err == nil {
		err = s.primal()
	}
	return s.finish(startIters, err)
}

func (s *Solver) finish(startIters int, err error) (*Solution, error) {
	iters := s.iters - startIters
	switch err {
	case nil:
	case errInfeasible:
		return &Solution{Status: Infeasible, Iterations: iters}, nil
	case errUnbounded:
		return &Solution{Status: Unbounded, Iterations: iters}, nil
	default:
		return nil, err
	}
	x := make([]float64, s.n)
	for j := 0; j < s.n; j++ {
		var v float64
		if r := s.rowOf[j]; r >= 0 {
			v = s.rows[r][s.ncols]
		} else {
			v = s.boundVal(j)
		}
		// Snap bound dust so callers see exactly-feasible points.
		if v < s.lo[j] {
			v = s.lo[j]
		} else if v > s.up[j] {
			v = s.up[j]
		}
		x[j] = v
	}
	obj := 0.0
	for j := 0; j < s.n; j++ {
		obj += s.c[j] * x[j]
	}
	return &Solution{Status: Optimal, X: x, Objective: obj, Iterations: iters}, nil
}

// Iterations returns the lifetime pivot count across all solves.
func (s *Solver) Iterations() int { return s.iters }

// Stats breaks down the solver's lifetime work: total pivots, the
// bound-flip subset (entering variable reached its other bound — no
// basis change), and dual-simplex warm-start restorations (Resolve
// calls). All three are deterministic functions of the solve sequence.
type Stats struct {
	Iterations       int
	BoundFlips       int
	DualRestorations int
}

// Stats returns the solver's lifetime work breakdown.
func (s *Solver) Stats() Stats {
	return Stats{Iterations: s.iters, BoundFlips: s.flips, DualRestorations: s.resolves}
}

// SetBounds replaces variable j's bounds in place. The tableau stays
// consistent and dual feasible: a nonbasic variable is snapped to
// whichever new bound its reduced cost admits (shifting the basic
// values), a basic variable is left to the next Resolve's dual simplex
// to pull back inside the new range.
func (s *Solver) SetBounds(j int, lo, up float64) error {
	if j < 0 || j >= s.n {
		return fmt.Errorf("%w: variable %d of %d", ErrDimensions, j, s.n)
	}
	if math.IsInf(lo, 0) || math.IsNaN(lo) || math.IsNaN(up) || up < lo {
		return fmt.Errorf("%w: variable %d gets [%v, %v]", ErrBounds, j, lo, up)
	}
	oldVal := s.boundVal(j)
	s.lo[j], s.up[j] = lo, up
	if s.rowOf[j] >= 0 {
		return nil
	}
	target := oldVal
	switch {
	case target <= lo+eps:
		s.atUp[j] = false
		target = lo
	case target >= up-eps:
		s.atUp[j] = true
		target = up
	case s.cost[j] >= 0 || math.IsInf(up, 1):
		s.atUp[j] = false
		target = lo
	default:
		s.atUp[j] = true
		target = up
	}
	if !s.fixed(j) {
		// Keep the resting bound dual feasible: rc < 0 belongs at the
		// upper bound, rc > 0 at the lower.
		if !s.atUp[j] && s.cost[j] < -eps && !math.IsInf(up, 1) {
			s.atUp[j] = true
			target = up
		} else if s.atUp[j] && s.cost[j] > eps {
			s.atUp[j] = false
			target = lo
		}
	}
	if delta := target - oldVal; delta != 0 {
		for i := 0; i < s.m; i++ {
			s.rows[i][s.ncols] -= s.rows[i][j] * delta
		}
	}
	return nil
}

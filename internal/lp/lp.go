// Package lp implements a bounded-variable simplex solver for linear
// programs of the form
//
//	min cᵀx  subject to  Ax ≤ b,  lo ≤ x ≤ up
//
// (lo defaults to 0 and up to +∞; ≥ and = constraints can be expressed
// by negation or row pairs). Variable bounds are handled implicitly by
// the pivoting rules rather than as explicit rows, which matters for the
// time-indexed integer program of paper §3.4: its T·|A| binary variables
// each carry an x ≤ 1 bound, and folding those into the basis logic
// removes that many tableau rows outright. Go has no ILP ecosystem, so
// internal/ilp branches and bounds on top of this solver.
//
// The input is sparse: each constraint row lists only its nonzero
// coefficients, a few per row on the presolved §3.4 programs. The
// tableau the solver pivots on stays dense, B⁻¹[A I] in full; the
// sparsity reaches it where zeros can be skipped without changing a
// single floating-point result — a pivot updates only the pivot row's
// nonzero columns, and B⁻¹b sums only over the nonzero right-hand sides.
//
// The solver is warm-startable: a Solver retains its tableau between
// solves, bounds can be tightened or relaxed in place with SetBounds,
// and Resolve re-establishes optimality by dual simplex from the current
// basis instead of a phase-1 from scratch — the branch-and-bound loop in
// internal/ilp leans on exactly this. Basis snapshots (Snapshot /
// Restore) let callers return to an earlier basis cheaply. Release hands
// a finished solver's workspace, the tableau and every per-column and
// per-row array, to a pool that the next NewSolver draws on.
//
// Pricing is Dantzig's rule (most violating reduced cost) with an
// automatic switch to Bland's rule after a run of degenerate pivots,
// which restores the termination guarantee on cycling-prone instances.
package lp

import (
	"errors"
	"fmt"
)

// Status reports the outcome of Solve.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota + 1
	// Infeasible means no lo ≤ x ≤ up satisfies Ax ≤ b.
	Infeasible
	// Unbounded means the objective decreases without bound.
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Problem is a linear program in inequality standard form with optional
// variable bounds. Its constraint matrix comes in sparse rows; NewSolver
// scatters them into the dense tableau it pivots on.
type Problem struct {
	// C is the objective coefficient vector (length = number of variables).
	C []float64
	// A is the constraint matrix, one sparse row per constraint.
	A []Row
	// B is the right-hand side, one entry per constraint.
	B []float64
	// Lo holds per-variable lower bounds; nil means all zero. Entries
	// must be finite.
	Lo []float64
	// Up holds per-variable upper bounds; nil means all +∞. Entries of
	// math.Inf(1) leave a variable unbounded above.
	Up []float64
}

// Row is one constraint row in sparse form: Vals[k] is the coefficient
// of variable Cols[k]. Every column is in [0, len(C)) and appears at most
// once, in any order; the columns a row leaves out have coefficient 0.
type Row struct {
	Cols []int
	Vals []float64
}

// Solution is the result of a solve.
type Solution struct {
	Status Status
	// X is the optimal primal solution (valid only when Status == Optimal).
	X []float64
	// Objective is cᵀx at the optimum.
	Objective float64
	// Iterations counts the simplex pivots (primal and dual, including
	// bound flips) this solve performed.
	Iterations int
}

const (
	// eps is the pivoting / reduced-cost tolerance.
	eps = 1e-9
	// feasTol is the bound-violation tolerance of the dual simplex.
	feasTol = 1e-7
)

// ErrDimensions indicates inconsistent problem dimensions.
var ErrDimensions = errors.New("lp: inconsistent dimensions")

// ErrNotFinite indicates a NaN or infinite objective coefficient,
// constraint coefficient or right-hand side.
var ErrNotFinite = errors.New("lp: coefficient not finite")

// ErrBounds indicates an invalid variable bound pair.
var ErrBounds = errors.New("lp: invalid bounds")

// ErrIterLimit indicates the simplex iteration safety cap was hit; it
// signals a numerical breakdown, not a property of the problem.
var ErrIterLimit = errors.New("lp: iteration limit exceeded")

// ErrSingular indicates a Basis could not be re-installed because its
// columns are (numerically) linearly dependent.
var ErrSingular = errors.New("lp: singular basis")

// Solve runs bounded-variable simplex on the problem. It is the one-shot
// entry point; use NewSolver for warm-started resolves.
func Solve(p *Problem) (*Solution, error) {
	s, err := NewSolver(p)
	if err != nil {
		return nil, err
	}
	defer s.Release()
	return s.Solve()
}

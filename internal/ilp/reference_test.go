package ilp

// refBuild below is the Build that created every variable of the §3.4
// program, kept verbatim under renamed identifiers as the reference for
// TestPresolveMatchesReference and FuzzPresolve: the presolved program
// must have the same root LP status and value, the same integer optimum
// (or the same infeasibility) and no more variables. It still fills each
// row densely; addRow keeps the row's nonzeros, the form lp.Problem takes.

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"ocd/internal/core"
	"ocd/internal/exact"
	"ocd/internal/graph"
	"ocd/internal/lp"
	"ocd/internal/workload"
)

// refVariable identifies one x^i_{(u,v),t}.
type refVariable struct {
	from, to int // from == to means self-arc
	token    int
	step     int // 1-based
}

// refProgram is the constructed integer program plus the decoding metadata.
type refProgram struct {
	inst *core.Instance
	tau  int
	vars []refVariable
	// index maps (from,to,token,step) → refVariable position.
	index map[refVariable]int
	prob  *lp.Problem
	// realArcs are the graph arcs (cost carriers).
	realArcs []graph.Arc
}

// refBuild constructs the full time-indexed program for the given horizon.
func refBuild(inst *core.Instance, tau int) (*refProgram, error) {
	if err := inst.Check(); err != nil {
		return nil, err
	}
	if tau < 1 {
		return nil, fmt.Errorf("ilp: horizon %d must be >= 1", tau)
	}
	p := &refProgram{
		inst:     inst,
		tau:      tau,
		index:    make(map[refVariable]int),
		realArcs: inst.G.Arcs(),
	}
	n := inst.N()
	m := inst.NumTokens

	add := func(v refVariable) {
		p.index[v] = len(p.vars)
		p.vars = append(p.vars, v)
	}
	// Real-arc variables: steps 1..τ.
	for _, a := range p.realArcs {
		for t := 0; t < m; t++ {
			for i := 1; i <= tau; i++ {
				add(refVariable{from: a.From, to: a.To, token: t, step: i})
			}
		}
	}
	// Self-arc variables: steps 1..τ+1.
	for v := 0; v < n; v++ {
		for t := 0; t < m; t++ {
			for i := 1; i <= tau+1; i++ {
				add(refVariable{from: v, to: v, token: t, step: i})
			}
		}
	}

	nv := len(p.vars)
	prob := &lp.Problem{C: make([]float64, nv), Up: make([]float64, nv)}
	for idx, v := range p.vars {
		if v.from != v.to {
			prob.C[idx] = 1
		}
		prob.Up[idx] = 1 // binary relaxation: x ∈ [0, 1] as implicit bounds
	}

	addRow := func(row []float64, rhs float64) {
		var sparse lp.Row
		for j, v := range row {
			if v != 0 {
				sparse.Cols = append(sparse.Cols, j)
				sparse.Vals = append(sparse.Vals, v)
			}
		}
		prob.A = append(prob.A, sparse)
		prob.B = append(prob.B, rhs)
	}

	// Possession rows: x^i_{(u,v),t} − Σ_{w:(w,u)∈E'} x^{i−1}_{(w,u),t} ≤ init
	// where init = 1 if i == 1 and t ∈ h(u), else 0 (the x^0 constants).
	for idx, v := range p.vars {
		row := make([]float64, nv)
		row[idx] = 1
		rhs := 0.0
		if v.step == 1 {
			if p.inst.Have[v.from].Has(v.token) {
				rhs = 1
			}
		} else {
			prev := v.step - 1
			// Incoming real arcs into v.from (only exist for prev ≤ τ).
			if prev <= tau {
				for _, a := range inst.G.In(v.from) {
					j := p.index[refVariable{from: a.From, to: a.To, token: v.token, step: prev}]
					row[j] -= 1
				}
			}
			// Self-arc at v.from.
			j := p.index[refVariable{from: v.from, to: v.from, token: v.token, step: prev}]
			row[j] -= 1
		}
		addRow(row, rhs)
	}

	// Capacity rows: real arcs only.
	for _, a := range p.realArcs {
		for i := 1; i <= tau; i++ {
			row := make([]float64, nv)
			for t := 0; t < m; t++ {
				row[p.index[refVariable{from: a.From, to: a.To, token: t, step: i}]] = 1
			}
			addRow(row, float64(a.Cap))
		}
	}

	// Final rows: x^{τ+1}_{(v,v),t} ≥ w_{vt}  ⇔  −x ≤ −1 when wanted.
	for v := 0; v < n; v++ {
		for t := 0; t < m; t++ {
			if !inst.Want[v].Has(t) {
				continue
			}
			row := make([]float64, nv)
			row[p.index[refVariable{from: v, to: v, token: t, step: tau + 1}]] = -1
			addRow(row, -1)
		}
	}

	p.prob = prob
	return p, nil
}

// NumVariables returns the number of 0/1 variables in the program.
func (p *refProgram) NumVariables() int { return len(p.vars) }

// program wraps the full program for this package's branch and bound:
// every variable is a column, at the slot of its arc, token and step.
// refBuild's column order is the slot order, so the columns line up.
func (r *refProgram) program() *Program {
	p := &Program{inst: r.inst, tau: r.tau, arcs: r.realArcs, prob: r.prob}
	pos := make(map[[2]int]int, len(r.realArcs))
	for k, a := range r.realArcs {
		pos[[2]int{a.From, a.To}] = k
	}
	for _, v := range r.vars {
		a := len(r.realArcs) + v.from
		if v.from != v.to {
			a = pos[[2]int{v.from, v.to}]
		}
		p.slots = append(p.slots, int32(p.slot(a, v.token, v.step)))
	}
	return p
}

// presolveOutcome is what comparePresolve learned about one input.
type presolveOutcome int

const (
	outcomeFeasible   presolveOutcome = iota // optimum matched the full program's
	outcomeInfeasible                        // both programs infeasible
	outcomeOracle                            // the full program's B&B ran out; optimum matched SolveEOCD's
	outcomeBudget                            // the presolved B&B ran out; optima not compared
)

// Node budgets for the comparison. Node counts are heavy-tailed at τ*+2
// (one n=6 input takes 2,907 nodes on the presolved program), so an input
// whose presolved search runs out is left uncompared past its root LP.
// The full program's dense tableau is several times the presolved one;
// where its search runs out, the presolved optimum is checked against
// exact.SolveEOCD instead.
const (
	presolvedNodes   = 200
	fullProgramNodes = 30
)

// comparePresolve builds the program of (inst, tau) both ways and fails
// the test unless the presolved one has no more variables, the same root
// LP status and value, and the same branch-and-bound optimum or the same
// ErrInfeasible, with a decoded schedule that validates within tau.
func comparePresolve(t *testing.T, label string, inst *core.Instance, tau int) presolveOutcome {
	t.Helper()
	prog, err := Build(inst, tau)
	ref, refErr := refBuild(inst, tau)
	if err != nil || refErr != nil {
		t.Fatalf("%s: Build error %v, reference %v", label, err, refErr)
	}
	if prog.NumVariables() > ref.NumVariables() {
		t.Errorf("%s: %d live variables, full program has %d", label, prog.NumVariables(), ref.NumVariables())
	}

	root, err := lp.Solve(prog.prob)
	if err != nil {
		t.Fatalf("%s: root LP: %v", label, err)
	}
	refRoot, err := lp.Solve(ref.prob)
	if err != nil {
		t.Fatalf("%s: reference root LP: %v", label, err)
	}
	if root.Status != refRoot.Status {
		t.Fatalf("%s: root LP %v, reference %v", label, root.Status, refRoot.Status)
	}
	if root.Status == lp.Optimal && math.Abs(root.Objective-refRoot.Objective) > 1e-6 {
		t.Errorf("%s: root LP value %v, reference %v", label, root.Objective, refRoot.Objective)
	}

	sched, obj, err := prog.Solve(Options{MaxNodes: presolvedNodes})
	if errors.Is(err, ErrBudget) {
		return outcomeBudget
	}
	if err != nil && !errors.Is(err, ErrInfeasible) {
		t.Fatalf("%s: solve: %v", label, err)
	}
	outcome := outcomeFeasible
	_, refObj, refErr := ref.program().Solve(Options{MaxNodes: fullProgramNodes})
	if errors.Is(refErr, ErrBudget) {
		outcome = outcomeOracle
		bnb, eocdErr := exact.SolveEOCD(inst, tau, exact.Options{})
		switch {
		case errors.Is(eocdErr, exact.ErrUnsatisfiable):
			refErr = ErrInfeasible
		case eocdErr != nil:
			return outcomeBudget
		default:
			refObj, refErr = bnb.Moves(), nil
		}
	}
	if errors.Is(err, ErrInfeasible) || errors.Is(refErr, ErrInfeasible) {
		if !errors.Is(err, ErrInfeasible) || !errors.Is(refErr, ErrInfeasible) {
			t.Fatalf("%s: solve error %v, reference %v", label, err, refErr)
		}
		return outcomeInfeasible
	}
	if refErr != nil {
		t.Fatalf("%s: reference solve: %v", label, refErr)
	}
	if obj != refObj {
		t.Errorf("%s: optimum %d, reference %d", label, obj, refObj)
	}
	if err := core.Validate(inst, sched); err != nil {
		t.Errorf("%s: decoded schedule invalid: %v", label, err)
	}
	if sched.Makespan() > tau || sched.Moves() != obj {
		t.Errorf("%s: schedule takes %d steps and %d moves, want ≤ %d steps and %d moves",
			label, sched.Makespan(), sched.Moves(), tau, obj)
	}
	return outcome
}

func TestPresolveMatchesReference(t *testing.T) {
	type input struct {
		label string
		inst  *core.Instance
		tau   int
	}
	var inputs []input
	for _, size := range []struct{ n, count, short int }{{4, 30, 8}, {5, 30, 8}, {6, 12, 3}, {7, 12, 3}} {
		if testing.Short() {
			size.count = size.short
		}
		for i, inst := range workload.RandomTinyInstances(int64(size.n), size.count, size.n, 3) {
			fast, err := exact.SolveFOCD(inst, exact.Options{})
			if err != nil {
				t.Fatalf("n%d/%d: focd: %v", size.n, i, err)
			}
			for tau := fast.Makespan() - 1; tau <= fast.Makespan()+2; tau++ {
				if tau >= 1 {
					inputs = append(inputs, input{fmt.Sprintf("n%d/%d@%d", size.n, i, tau), inst, tau})
				}
			}
		}
	}
	fig1 := workload.Figure1()
	inputs = append(inputs, input{"figure1@2", fig1, 2}, input{"figure1@3", fig1, 3})
	for _, c := range []struct{ n, m, c, tau int }{
		{3, 2, 1, 2}, {4, 1, 1, 2}, {4, 1, 1, 3}, {3, 3, 1, 3}, {3, 3, 1, 4},
		{2, 6, 2, 2}, {2, 6, 2, 3}, {5, 1, 1, 3}, {5, 1, 1, 5},
	} {
		inputs = append(inputs, input{fmt.Sprintf("line%dx%dc%d@%d", c.n, c.m, c.c, c.tau),
			lineInstance(t, c.n, c.m, c.c), c.tau})
	}

	counts := map[presolveOutcome]int{}
	for _, in := range inputs {
		counts[comparePresolve(t, in.label, in.inst, in.tau)]++
	}
	t.Logf("%d inputs: %d optima match the full program, %d match SolveEOCD, %d infeasible in both, %d past the node budget",
		len(inputs), counts[outcomeFeasible], counts[outcomeOracle], counts[outcomeInfeasible], counts[outcomeBudget])
	if counts[outcomeFeasible] == 0 || counts[outcomeInfeasible] == 0 || counts[outcomeBudget] > len(inputs)/20 {
		t.Errorf("outcomes %v: the input mix no longer covers feasible and infeasible horizons within the budget", counts)
	}
}

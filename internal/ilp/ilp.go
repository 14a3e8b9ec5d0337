// Package ilp builds and solves the paper's §3.4 time-indexed integer
// program for the Efficient Overlay Content Distribution problem.
//
// For a horizon τ, a 0/1 variable x^i_{(u,v),t} says token t crosses arc
// (u,v) at timestep i. The graph is extended with a self-arc at every
// vertex (storage); self-arcs carry no cost and no capacity. Constraints:
//
//	possession:  x^i_{(u,v),t} ≤ Σ_{w:(w,u)∈E'} x^{i−1}_{(w,u),t}
//	capacity:    Σ_t x^i_{(u,v),t} ≤ c(u,v)      (real arcs only)
//	final:       x^{τ+1}_{(v,v),t} ≥ w_{vt}
//
// with initial conditions x^0_{(v,v),t} = [t ∈ h(v)] folded into the i = 1
// possession rows. The x ≤ 1 bounds are NOT constraint rows: they ride as
// implicit variable bounds of the bounded-variable simplex in internal/lp,
// which removes T·|A| dense rows from every relaxation.
//
// The objective minimizes the number of real-arc moves. Solving is
// warm-started branch-and-bound: nodes are ordered best-bound-first, each
// node re-solves its LP by dual simplex from the parent's optimal basis
// (a Basis snapshot, not a phase-1 from scratch), branching fixes a
// variable by tightening its bounds in place, and the incumbent is pruned
// against the §5.1 bandwidth lower bound from internal/core — once the
// incumbent meets that certified bound the search stops early.
package ilp

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"sort"

	"ocd/internal/core"
	"ocd/internal/graph"
	"ocd/internal/lp"
)

// ErrInfeasible is returned when no schedule of length τ exists.
var ErrInfeasible = errors.New("ilp: infeasible within horizon")

// ErrBudget is returned when branch-and-bound exceeds its node budget.
var ErrBudget = errors.New("ilp: node budget exhausted")

// Options controls the solver.
type Options struct {
	// MaxNodes caps branch-and-bound nodes (0 = 10000).
	MaxNodes int
}

func (o Options) nodes() int {
	if o.MaxNodes <= 0 {
		return 10000
	}
	return o.MaxNodes
}

// Stats reports the work a Solve performed; it feeds the solver.* telemetry
// counters and the solver work ceilings test.
type Stats struct {
	// Nodes is the number of LP relaxations solved (the root plus every
	// expanded branch-and-bound node; nodes pruned by bound before their
	// LP is touched are free and not counted).
	Nodes int
	// SimplexIterations is the total pivot count across all relaxations
	// (primal, dual, and bound flips).
	SimplexIterations int
	// WarmStarts counts node LPs re-solved from a restored parent basis
	// (every node except the root).
	WarmStarts int
	// BoundFlips is the subset of SimplexIterations where the entering
	// variable reached its other bound without a basis change — the
	// bounded-variable simplex's cheap pivot.
	BoundFlips int
	// DualRestorations counts dual-simplex warm-start restorations
	// (Resolve calls on the shared solver).
	DualRestorations int
}

// variable identifies one x^i_{(u,v),t}.
type variable struct {
	from, to int // from == to means self-arc
	token    int
	step     int // 1-based
}

// Program is the constructed integer program plus the decoding metadata.
type Program struct {
	inst *core.Instance
	tau  int
	vars []variable
	// index maps (from,to,token,step) → variable position.
	index map[variable]int
	prob  *lp.Problem
	// realArcs are the graph arcs (cost carriers).
	realArcs []graph.Arc
}

// Build constructs the time-indexed program for the given horizon.
func Build(inst *core.Instance, tau int) (*Program, error) {
	if err := inst.Check(); err != nil {
		return nil, err
	}
	if tau < 1 {
		return nil, fmt.Errorf("ilp: horizon %d must be >= 1", tau)
	}
	p := &Program{
		inst:     inst,
		tau:      tau,
		index:    make(map[variable]int),
		realArcs: inst.G.Arcs(),
	}
	n := inst.N()
	m := inst.NumTokens

	add := func(v variable) {
		p.index[v] = len(p.vars)
		p.vars = append(p.vars, v)
	}
	// Real-arc variables: steps 1..τ.
	for _, a := range p.realArcs {
		for t := 0; t < m; t++ {
			for i := 1; i <= tau; i++ {
				add(variable{from: a.From, to: a.To, token: t, step: i})
			}
		}
	}
	// Self-arc variables: steps 1..τ+1.
	for v := 0; v < n; v++ {
		for t := 0; t < m; t++ {
			for i := 1; i <= tau+1; i++ {
				add(variable{from: v, to: v, token: t, step: i})
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
		prob.A = append(prob.A, row)
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
					j := p.index[variable{from: a.From, to: a.To, token: v.token, step: prev}]
					row[j] -= 1
				}
			}
			// Self-arc at v.from.
			j := p.index[variable{from: v.from, to: v.from, token: v.token, step: prev}]
			row[j] -= 1
		}
		addRow(row, rhs)
	}

	// Capacity rows: real arcs only.
	for _, a := range p.realArcs {
		for i := 1; i <= tau; i++ {
			row := make([]float64, nv)
			for t := 0; t < m; t++ {
				row[p.index[variable{from: a.From, to: a.To, token: t, step: i}]] = 1
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
			row[p.index[variable{from: v, to: v, token: t, step: tau + 1}]] = -1
			addRow(row, -1)
		}
	}

	p.prob = prob
	return p, nil
}

// NumVariables returns the number of 0/1 variables in the program.
func (p *Program) NumVariables() int { return len(p.vars) }

// NumConstraints returns the number of inequality rows. The x ≤ 1 bounds
// are implicit in the simplex and add no rows.
func (p *Program) NumConstraints() int { return len(p.prob.A) }

// Solve runs branch-and-bound on the LP relaxation and returns a schedule
// of length ≤ τ with the minimum number of moves, along with that optimum.
func (p *Program) Solve(opts Options) (*core.Schedule, int, error) {
	sched, obj, _, err := p.SolveStats(opts)
	return sched, obj, err
}

// SolveStats is Solve plus solver work counters.
func (p *Program) SolveStats(opts Options) (*core.Schedule, int, Stats, error) {
	sv, err := lp.NewSolver(p.prob)
	if err != nil {
		return nil, 0, Stats{}, fmt.Errorf("ilp: lp relaxation: %w", err)
	}
	// Every return below has copied the solution out (bestX is a copy)
	// and read the counters before the deferred release runs.
	defer sv.Release()
	s := &solver{
		p:       p,
		sv:      sv,
		budget:  opts.nodes(),
		bestObj: math.Inf(1),
		cur:     map[int]int{},
		// The §5.1 bandwidth bound certifies optimality early: no schedule
		// can use fewer moves, so an incumbent that reaches it ends the
		// search without draining the node queue.
		globalLB: float64(core.BandwidthLowerBound(p.inst, nil)),
	}
	if err := s.run(); err != nil {
		return nil, 0, s.stats(), err
	}
	if s.bestX == nil {
		return nil, 0, s.stats(), ErrInfeasible
	}
	sched := p.decode(s.bestX)
	return sched, int(math.Round(s.bestObj)), s.stats(), nil
}

const intTol = 1e-6

type solver struct {
	p        *Program
	sv       *lp.Solver
	budget   int
	nodes    int
	warm     int
	bestObj  float64
	bestX    []float64
	globalLB float64
	cur      map[int]int // fixings currently installed in sv
	queue    nodeQueue
	seq      int
}

func (s *solver) stats() Stats {
	st := s.sv.Stats()
	return Stats{
		Nodes:             s.nodes,
		SimplexIterations: st.Iterations,
		WarmStarts:        s.warm,
		BoundFlips:        st.BoundFlips,
		DualRestorations:  st.DualRestorations,
	}
}

// bbNode is one open branch-and-bound subproblem: the branching decision
// it adds (fixVar = fixVal) on top of its parent's, and the parent's
// optimal basis to warm-start from. Fixings are reconstructed by walking
// the parent chain; sibling nodes share the same Basis snapshot.
type bbNode struct {
	bound  float64 // parent LP objective: a lower bound for the subtree
	depth  int
	seq    int
	fixVar int
	fixVal int
	parent *bbNode
	basis  lp.Basis
}

// nodeQueue pops the node with the least lower bound (best-bound-first);
// ties prefer the deeper node (diving finds incumbents sooner) and then
// insertion order, which keeps the search deterministic.
type nodeQueue []*bbNode

func (q nodeQueue) Len() int { return len(q) }
func (q nodeQueue) Less(i, j int) bool {
	if q[i].bound != q[j].bound {
		return q[i].bound < q[j].bound
	}
	if q[i].depth != q[j].depth {
		return q[i].depth > q[j].depth
	}
	return q[i].seq < q[j].seq
}
func (q nodeQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x any)   { *q = append(*q, x.(*bbNode)) }
func (q *nodeQueue) Pop() any {
	old := *q
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return x
}

func (s *solver) run() error {
	// Root: a cold solve (the only one), counted like any other node.
	s.nodes++
	sol, err := s.sv.Solve()
	if err != nil {
		return fmt.Errorf("ilp: lp relaxation: %w", err)
	}
	if sol.Status == lp.Optimal {
		s.expand(sol, nil, 0)
	}

	for s.queue.Len() > 0 {
		if s.bestObj <= s.globalLB+intTol {
			break // incumbent meets the certified lower bound
		}
		node := heap.Pop(&s.queue).(*bbNode)
		// The bound was computed at push time; the incumbent may have
		// improved since, making the node prunable without an LP solve.
		if math.Ceil(node.bound-intTol) >= s.bestObj {
			continue
		}
		s.nodes++
		if s.nodes > s.budget {
			return ErrBudget
		}
		if err := s.sv.Restore(node.basis); err != nil {
			return fmt.Errorf("ilp: warm start: %w", err)
		}
		if err := s.applyFixings(node.fixings()); err != nil {
			return fmt.Errorf("ilp: warm start: %w", err)
		}
		s.warm++
		sol, err := s.sv.Resolve()
		if err != nil {
			return fmt.Errorf("ilp: lp relaxation: %w", err)
		}
		if sol.Status != lp.Optimal {
			continue // infeasible subproblem (unbounded cannot occur: c ≥ 0, x bounded)
		}
		s.expand(sol, node, node.depth)
	}
	return nil
}

// expand prunes, records an integral incumbent, or branches on the most
// fractional variable, pushing both children with the node's optimal
// basis as their warm start.
func (s *solver) expand(sol *lp.Solution, parent *bbNode, depth int) {
	// Integral objective: the bound can be rounded up before comparing.
	if math.Ceil(sol.Objective-intTol) >= s.bestObj {
		return
	}
	frac := -1
	fracDist := 0.0
	for j, x := range sol.X {
		d := math.Abs(x - math.Round(x))
		if d > intTol && d > fracDist {
			frac = j
			fracDist = d
		}
	}
	if frac == -1 {
		s.bestObj = math.Round(sol.Objective)
		s.bestX = append(s.bestX[:0], sol.X...)
		return
	}
	basis := s.sv.Snapshot()
	for _, val := range []int{1, 0} { // the val=1 dive gets the earlier seq
		heap.Push(&s.queue, &bbNode{
			bound: sol.Objective, depth: depth + 1, seq: s.seq,
			fixVar: frac, fixVal: val, parent: parent, basis: basis,
		})
		s.seq++
	}
}

// fixings reconstructs the node's full fixing set from the parent chain.
func (n *bbNode) fixings() map[int]int {
	out := make(map[int]int, n.depth)
	for cur := n; cur != nil; cur = cur.parent {
		out[cur.fixVar] = cur.fixVal
	}
	return out
}

// applyFixings reconciles the solver's variable bounds with the target
// fixing set: released variables go back to [0, 1], new or changed
// fixings pin [v, v]. Each SetBounds shifts values independently, so the
// outcome is order-free; the sort just keeps the pivot trail replayable.
func (s *solver) applyFixings(target map[int]int) error {
	changed := make([]int, 0, len(s.cur)+len(target))
	for j := range s.cur {
		if _, ok := target[j]; !ok {
			changed = append(changed, j)
		}
	}
	sort.Ints(changed)
	for _, j := range changed {
		if err := s.sv.SetBounds(j, 0, 1); err != nil {
			return err
		}
	}
	changed = changed[:0]
	for j, v := range target {
		if cv, ok := s.cur[j]; !ok || cv != v {
			changed = append(changed, j)
		}
	}
	sort.Ints(changed)
	for _, j := range changed {
		v := float64(target[j])
		if err := s.sv.SetBounds(j, v, v); err != nil {
			return err
		}
	}
	s.cur = target
	return nil
}

// decode converts an integral solution into a schedule, dropping self-arc
// storage pseudo-moves.
func (p *Program) decode(x []float64) *core.Schedule {
	sched := &core.Schedule{Steps: make([]core.Step, p.tau)}
	for idx, v := range p.vars {
		if v.from == v.to || x[idx] < 0.5 {
			continue
		}
		sched.Steps[v.step-1] = append(sched.Steps[v.step-1],
			core.Move{From: v.from, To: v.to, Token: v.token})
	}
	// Drop empty trailing steps.
	for len(sched.Steps) > 0 && len(sched.Steps[len(sched.Steps)-1]) == 0 {
		sched.Steps = sched.Steps[:len(sched.Steps)-1]
	}
	return sched
}

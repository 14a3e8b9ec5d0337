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
// implicit variable bounds of the bounded dual simplex in internal/lp,
// which removes T·|A| dense rows from every relaxation.
//
// Build presolves: it creates only the variables a token can reach in
// time and that can still help a wanter of it, and drops the rows the
// bounds already imply. The LP value and the integer optimum are those of
// the full program (see Build).
//
// The objective minimizes the number of real-arc moves. Solving is
// warm-started branch-and-bound: nodes are ordered best-bound-first, each
// node re-solves its LP by dual simplex from the parent's optimal basis
// (a Basis snapshot, not a phase-1 from scratch), branching fixes a
// variable of the earliest fractional step by tightening its bounds in
// place, and the incumbent is pruned against the §5.1 bandwidth lower
// bound from internal/core — once the incumbent meets that certified
// bound the search stops early.
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
	// SimplexIterations is the total dual simplex pivot count across all
	// relaxations.
	SimplexIterations int
	// WarmStarts counts node LPs re-solved from a restored parent basis
	// (every node except the root).
	WarmStarts int
	// BoundFlips is always 0: the dual simplex never moves a variable
	// from bound to bound without a pivot. It stays while the benchmark
	// reads it.
	BoundFlips int
	// DualRestorations equals WarmStarts: every warm start restores
	// optimality by dual simplex. It stays while the benchmark reads it.
	DualRestorations int
}

// Program is the constructed integer program plus the decoding metadata.
//
// A variable x^i_{(u,v),t} lives at a slot computed from its arc, token
// and step: (a·m + t)·(τ+1) + i − 1, where a is the arc's position in
// arcs and position len(arcs)+v stands for v's self-arc. Slots in
// increasing order give the full program's column order (real arcs by
// (From, To), then token, then step; then self-arcs by vertex, token,
// step), and the program's columns are the live slots in that order.
type Program struct {
	inst *core.Instance
	tau  int
	// arcs are the graph arcs in (From, To) order (the cost carriers).
	arcs []graph.Arc
	// slots holds each column's slot.
	slots []int32
	prob  *lp.Problem
}

// slot returns the slot of the variable on arc position a for token t at
// step i; position len(p.arcs)+v is v's self-arc.
func (p *Program) slot(a, t, i int) int {
	return (a*p.inst.NumTokens+t)*(p.tau+1) + i - 1
}

// unslot inverts slot: the arc position, token and step of a slot.
func (p *Program) unslot(s int32) (a, t, i int) {
	i = int(s)%(p.tau+1) + 1
	at := int(s) / (p.tau + 1)
	return at / p.inst.NumTokens, at % p.inst.NumTokens, i
}

// Build constructs the time-indexed program for the given horizon,
// creating only its live variables. With d_h(t,u) the hops from the
// nearest holder of t to u and d_w(t,v) the hops from v to the nearest
// wanter of t (−1 when there is no path):
//
//   - x^i_{(u,v),t} for i ≤ τ, self-arcs included (u = v), is live iff
//     0 ≤ d_h(t,u) ≤ i−1 and 0 ≤ d_w(t,v) ≤ τ−i;
//   - the final x^{τ+1}_{(v,v),t} is live iff v wants t and
//     0 ≤ d_h(t,v) ≤ τ.
//
// Every other variable is 0 in some optimum, so leaving it out keeps the
// LP value and the integer optimum:
//
//   - if t cannot reach u by step i−1, x is 0 in every feasible point: its
//     possession row is fed only by variables like it, down to an x^0 of 0;
//   - if v reaches no wanter of t in the τ−i steps left, x supports only
//     variables like it, since a live x^{i+1}_{(v,z),t} has
//     d_w(t,v) ≤ 1 + d_w(t,z) ≤ τ−i; zeroing every such variable keeps the
//     other rows satisfied and costs nothing.
//
// A wanted final variable that is not live keeps its final row, now empty
// and violated, so the program stays infeasible.
//
// The rows drop what the bounds already say: a step-1 possession row is
// x ≤ 1 (a live step-1 variable's tail holds t), and a capacity row with
// no more live variables than the arc's capacity cannot bind. Each row
// keeps only its nonzero coefficients, the sparse form lp.Problem takes.
func Build(inst *core.Instance, tau int) (*Program, error) {
	if err := inst.Check(); err != nil {
		return nil, err
	}
	if tau < 1 {
		return nil, fmt.Errorf("ilp: horizon %d must be >= 1", tau)
	}
	p := &Program{inst: inst, tau: tau, arcs: inst.G.Arcs()}
	n, m, na := inst.N(), inst.NumTokens, len(p.arcs)
	dh, dw := distances(inst)
	within := func(d, limit int) bool { return d >= 0 && d <= limit }
	live := func(u, v, t, i int) bool {
		if i == tau+1 {
			return inst.Want[v].Has(t) && within(dh[t][v], tau)
		}
		return within(dh[t][u], i-1) && within(dw[t][v], tau-i)
	}

	// Columns, in slot order: col maps a slot to its column, or −1.
	col := make([]int32, (na+n)*m*(tau+1))
	for s := range col {
		col[s] = -1
	}
	for a := 0; a < na+n; a++ {
		u, v, last := a-na, a-na, tau+1 // self-arc of vertex a−na
		if a < na {
			u, v, last = p.arcs[a].From, p.arcs[a].To, tau
		}
		for t := 0; t < m; t++ {
			for i := 1; i <= last; i++ {
				if live(u, v, t, i) {
					s := p.slot(a, t, i)
					col[s] = int32(len(p.slots))
					p.slots = append(p.slots, int32(s))
				}
			}
		}
	}

	// Row and nonzero counts, so that the rows' column indices and values
	// are each carved from one backing array of exactly that size.
	rows, nnz := 0, 0
	for _, s := range p.slots {
		if a, t, i := p.unslot(s); i > 1 { // step ≥ 2: a possession row
			rows++
			nnz++
			p.supporters(col, a, t, i, func(int32) { nnz++ })
		}
	}
	for a := 0; a < na; a++ {
		for i := 1; i <= tau; i++ {
			if live := p.liveCount(col, a, i); live > p.arcs[a].Cap {
				rows++
				nnz += live
			}
		}
	}
	for v := 0; v < n; v++ {
		for t := 0; t < m; t++ {
			if inst.Want[v].Has(t) {
				rows++
				if col[p.slot(na+v, t, tau+1)] >= 0 {
					nnz++
				}
			}
		}
	}

	nv := len(p.slots)
	prob := &lp.Problem{
		C:  make([]float64, nv),
		Up: make([]float64, nv),
		A:  make([]lp.Row, 0, rows),
		B:  make([]float64, 0, rows),
	}
	for j, s := range p.slots {
		if a, _, _ := p.unslot(s); a < na {
			prob.C[j] = 1
		}
		prob.Up[j] = 1 // binary relaxation: x ∈ [0, 1] as implicit bounds
	}
	cols, vals := make([]int, 0, nnz), make([]float64, 0, nnz)
	lo := 0
	// endRow makes the entries added since the last row a row of its own.
	endRow := func(rhs float64) {
		hi := len(cols)
		prob.A = append(prob.A, lp.Row{Cols: cols[lo:hi:hi], Vals: vals[lo:hi:hi]})
		prob.B = append(prob.B, rhs)
		lo = hi
	}

	// Possession rows: x^i_{(u,v),t} − Σ_{w:(w,u)∈E'} x^{i−1}_{(w,u),t} ≤ 0
	// for i ≥ 2, over the live supporters only.
	for j, s := range p.slots {
		a, t, i := p.unslot(s)
		if i == 1 {
			continue
		}
		cols, vals = append(cols, j), append(vals, 1)
		p.supporters(col, a, t, i, func(c int32) {
			cols, vals = append(cols, int(c)), append(vals, -1)
		})
		endRow(0)
	}

	// Capacity rows: real arcs only, where the live variables can exceed c.
	for a := 0; a < na; a++ {
		for i := 1; i <= tau; i++ {
			if p.liveCount(col, a, i) <= p.arcs[a].Cap {
				continue
			}
			for t := 0; t < m; t++ {
				if c := col[p.slot(a, t, i)]; c >= 0 {
					cols = append(cols, int(c))
					vals = append(vals, 1)
				}
			}
			endRow(float64(p.arcs[a].Cap))
		}
	}

	// Final rows: x^{τ+1}_{(v,v),t} ≥ w_{vt}  ⇔  −x ≤ −1 when wanted.
	for v := 0; v < n; v++ {
		for t := 0; t < m; t++ {
			if !inst.Want[v].Has(t) {
				continue
			}
			if c := col[p.slot(na+v, t, tau+1)]; c >= 0 {
				cols = append(cols, int(c))
				vals = append(vals, -1)
			}
			endRow(-1)
		}
	}

	p.prob = prob
	return p, nil
}

// supporters calls f with each column that feeds the possession row of
// x^i on arc position a for token t: the live x^{i−1}_{(w,u),t} of the
// arc's tail u, its in-arcs in arc order and then its self-arc.
func (p *Program) supporters(col []int32, a, t, i int, f func(c int32)) {
	na := len(p.arcs)
	u := a - na
	if a < na {
		u = p.arcs[a].From
	}
	for k, b := range p.arcs {
		if c := col[p.slot(k, t, i-1)]; b.To == u && c >= 0 {
			f(c)
		}
	}
	if c := col[p.slot(na+u, t, i-1)]; c >= 0 {
		f(c)
	}
}

// liveCount counts the live variables of real arc a at step i.
func (p *Program) liveCount(col []int32, a, i int) int {
	live := 0
	for t := 0; t < p.inst.NumTokens; t++ {
		if col[p.slot(a, t, i)] >= 0 {
			live++
		}
	}
	return live
}

// distances returns, per token t, d_h(t,·): the hops from the nearest
// holder of t, and d_w(t,·): the hops to the nearest wanter of t, −1 where
// no path exists.
func distances(inst *core.Instance) (dh, dw [][]int) {
	n, m := inst.N(), inst.NumTokens
	dh = make([][]int, m)
	holders := make([]int, 0, n)
	for t := 0; t < m; t++ {
		holders = holders[:0]
		for v := 0; v < n; v++ {
			if inst.Have[v].Has(t) {
				holders = append(holders, v)
			}
		}
		dh[t] = inst.G.MultiSourceBFSFrom(holders)
	}
	return dh, inst.WanterDistances()
}

// NumVariables returns the number of 0/1 variables in the program.
func (p *Program) NumVariables() int { return len(p.slots) }

// NumConstraints returns the number of inequality rows. The x ≤ 1 bounds
// are implicit in the simplex and add no rows.
func (p *Program) NumConstraints() int { return len(p.prob.A) }

// Relaxation returns the program's LP relaxation, the problem SolveStats
// hands the simplex: sparse rows, unit costs on real arcs and [0, 1]
// bounds. It is the program's own, not a copy; callers must not modify it.
func (p *Program) Relaxation() *lp.Problem { return p.prob }

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
	// An incumbent sets bestObj; its bestX is empty when no variable is live.
	if math.IsInf(s.bestObj, 1) {
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
	return Stats{
		Nodes:             s.nodes,
		SimplexIterations: s.sv.Iterations(),
		WarmStarts:        s.warm,
		DualRestorations:  s.warm,
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
		sol, err := s.sv.Solve()
		if err != nil {
			return fmt.Errorf("ilp: lp relaxation: %w", err)
		}
		if sol.Status != lp.Optimal {
			continue // infeasible subproblem
		}
		s.expand(sol, node, node.depth)
	}
	return nil
}

// expand prunes, records an integral incumbent, or branches, pushing both
// children with the node's optimal basis as their warm start. It branches
// on a fractional variable of the earliest step that has one: the most
// fractional there, the lowest column on ties. Fixing an early move
// settles what every later possession row can carry.
func (s *solver) expand(sol *lp.Solution, parent *bbNode, depth int) {
	// Integral objective: the bound can be rounded up before comparing.
	if math.Ceil(sol.Objective-intTol) >= s.bestObj {
		return
	}
	frac, fracStep, fracDist := -1, 0, 0.0
	for j, x := range sol.X {
		d := math.Abs(x - math.Round(x))
		if d <= intTol {
			continue
		}
		_, _, step := s.p.unslot(s.p.slots[j])
		if frac == -1 || step < fracStep || (step == fracStep && d > fracDist) {
			frac, fracStep, fracDist = j, step, d
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
	for j, s := range p.slots {
		a, t, i := p.unslot(s)
		if a >= len(p.arcs) || x[j] < 0.5 {
			continue
		}
		sched.Steps[i-1] = append(sched.Steps[i-1],
			core.Move{From: p.arcs[a].From, To: p.arcs[a].To, Token: t})
	}
	// Drop empty trailing steps.
	for len(sched.Steps) > 0 && len(sched.Steps[len(sched.Steps)-1]) == 0 {
		sched.Steps = sched.Steps[:len(sched.Steps)-1]
	}
	return sched
}

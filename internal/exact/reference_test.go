package exact

// The searches below are allocation-per-node references for the in-place
// searches, checked by TestSearchesMatchReference: they pin every
// schedule, including the move order within each step, every EOCD
// solve's node count, and the node-visit order (through ErrBudget at
// small budgets). The FOCD search is the implementation the in-place one
// replaced, kept verbatim under renamed identifiers; the EOCD search
// states SolveEOCD's candidate rules from their definitions (see its
// section), and oracle_test.go keeps the unpruned search it replaced as a
// value oracle. They share possessionHash, memoKey and errOptimal with
// the package.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ocd/internal/core"
	"ocd/internal/tokenset"
	"ocd/internal/workload"
)

// ----------------------------------------------------------------------
// FOCD: minimum makespan.

func refSolveFOCD(inst *core.Instance, opts Options) (*core.Schedule, error) {
	if err := inst.Check(); err != nil {
		return nil, err
	}
	if !inst.Satisfiable() {
		return nil, ErrUnsatisfiable
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = inst.TheoremOneHorizon()
	}
	s := &refFOCDSearch{
		inst:   inst,
		budget: opts.nodes(),
		memo:   make(map[uint64]int),
	}
	start := inst.InitialPossession()
	if core.Done(inst, start) {
		return &core.Schedule{}, nil
	}
	lb := core.MakespanLowerBound(inst, start)
	if lb < 1 {
		lb = 1
	}
	for tau := lb; tau <= maxSteps; tau++ {
		s.sched = &core.Schedule{}
		ok, err := s.dfs(start, tau)
		if err != nil {
			return nil, err
		}
		if ok {
			return s.sched, nil
		}
		// Memo entries record failure at a given remaining depth; they stay
		// valid across deepenings because we store the depth that failed.
	}
	return nil, fmt.Errorf("%w within %d steps", ErrUnsatisfiable, maxSteps)
}

type refFOCDSearch struct {
	inst   *core.Instance
	budget int
	nodes  int
	// memo maps possession-hash → largest remaining-step count proven
	// insufficient from that possession.
	memo  map[uint64]int
	sched *core.Schedule
}

// dfs reports whether the instance completes within `left` further steps.
func (s *refFOCDSearch) dfs(possess []tokenset.Set, left int) (bool, error) {
	if core.Done(s.inst, possess) {
		return true, nil
	}
	if left == 0 {
		return false, nil
	}
	s.nodes++
	if s.nodes > s.budget {
		return false, ErrBudget
	}
	if core.MakespanLowerBound(s.inst, possess) > left {
		return false, nil
	}
	key := possessionHash(possess)
	if failed, ok := s.memo[key]; ok && failed >= left {
		return false, nil
	}

	steps := refEnumerateMaximalSteps(s.inst, possess)
	for _, st := range steps {
		next := refApplyStep(possess, st)
		s.sched.Append(st)
		ok, err := s.dfs(next, left-1)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
		s.sched.Steps = s.sched.Steps[:len(s.sched.Steps)-1]
	}
	if prev, ok := s.memo[key]; !ok || left > prev {
		s.memo[key] = left
	}
	return false, nil
}

func refApplyStep(possess []tokenset.Set, st core.Step) []tokenset.Set {
	next := make([]tokenset.Set, len(possess))
	for v := range possess {
		next[v] = possess[v].Clone()
	}
	for _, mv := range st {
		next[mv.To].Add(mv.Token)
	}
	return next
}

// refEnumerateMaximalSteps lists the candidate move sets for one timestep: for
// every arc, all ways to pick min(cap, |useful|) tokens from the useful set
// (useful = tokens the sender has and the receiver lacks), crossed over
// arcs. Arcs with |useful| ≤ cap contribute exactly one (forced) choice.
func refEnumerateMaximalSteps(inst *core.Instance, possess []tokenset.Set) []core.Step {
	type arcChoice struct {
		from, to int
		options  [][]int
	}
	var choices []arcChoice
	var forced core.Step
	for _, a := range inst.G.Arcs() {
		useful := possess[a.From].Difference(possess[a.To]).Slice()
		if len(useful) == 0 {
			continue
		}
		if len(useful) <= a.Cap {
			for _, t := range useful {
				forced = append(forced, core.Move{From: a.From, To: a.To, Token: t})
			}
			continue
		}
		choices = append(choices, arcChoice{
			from:    a.From,
			to:      a.To,
			options: refCombinations(useful, a.Cap),
		})
	}

	if len(forced) == 0 && len(choices) == 0 {
		return nil // no useful move exists; the search node is a dead end
	}
	steps := []core.Step{forced}
	for _, c := range choices {
		var grown []core.Step
		for _, base := range steps {
			for _, opt := range c.options {
				st := make(core.Step, len(base), len(base)+len(opt))
				copy(st, base)
				for _, t := range opt {
					st = append(st, core.Move{From: c.from, To: c.to, Token: t})
				}
				grown = append(grown, st)
			}
		}
		steps = grown
	}
	return steps
}

// refCombinations returns all k-subsets of items.
func refCombinations(items []int, k int) [][]int {
	var out [][]int
	cur := make([]int, 0, k)
	var rec func(start int)
	rec = func(start int) {
		if len(cur) == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := start; i <= len(items)-(k-len(cur)); i++ {
			cur = append(cur, items[i])
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out
}

// ----------------------------------------------------------------------
// EOCD: minimum bandwidth.
//
// The reference tries, at every node, the capacity-respecting subsets of
// the useful moves that can still reach a wanter in time, leaving out
// those that deliver a (vertex, token) pair twice, largest first with
// ties in enumeration order. It states each rule from the definitions:
// distances come from the all-pairs table, the horizon test is made on
// the steps the schedule has left after the move, and the delivered
// pairs of a subset are kept in a map.

func refSolveEOCD(inst *core.Instance, horizon int, opts Options) (*core.Schedule, error) {
	sched, _, err := refSolveEOCDNodes(inst, horizon, opts)
	return sched, err
}

// refSolveEOCDNodes is refSolveEOCD that also returns refEOCDSearch.nodes.
func refSolveEOCDNodes(inst *core.Instance, horizon int, opts Options) (*core.Schedule, int, error) {
	if err := inst.Check(); err != nil {
		return nil, 0, err
	}
	if !inst.Satisfiable() {
		return nil, 0, ErrUnsatisfiable
	}
	if horizon <= 0 {
		horizon = inst.TheoremOneHorizon()
	}
	s := &refEOCDSearch{
		inst:     inst,
		budget:   opts.nodes(),
		best:     nil,
		memo:     make(map[memoKey]int),
		hops:     inst.G.AllPairs(),
		globalLB: core.BandwidthLowerBound(inst, nil),
	}
	start := inst.InitialPossession()
	if core.Done(inst, start) {
		return &core.Schedule{}, 0, nil
	}
	s.cur = &core.Schedule{}
	if err := s.dfs(start, horizon, 0); err != nil && !errors.Is(err, errOptimal) {
		return nil, s.nodes, err
	}
	if s.best == nil {
		return nil, s.nodes, fmt.Errorf("%w within %d steps", ErrUnsatisfiable, horizon)
	}
	return s.best, s.nodes, nil
}

type refEOCDSearch struct {
	inst    *core.Instance
	budget  int
	nodes   int
	cur     *core.Schedule
	best    *core.Schedule
	bestLen int
	// memo maps (possession, stepsLeft) → best cost-so-far seen; states
	// revisited with equal or higher cost are pruned.
	memo map[memoKey]int
	// hops[u][v] is the hop distance from u to v, −1 when v is
	// unreachable.
	hops [][]int
	// globalLB is the §5.1 bandwidth lower bound from the initial
	// possession — a certificate of optimality for any incumbent that
	// reaches it.
	globalLB int
}

func (s *refEOCDSearch) dfs(possess []tokenset.Set, left, cost int) error {
	if core.Done(s.inst, possess) {
		if s.best == nil || cost < s.bestLen {
			s.best = s.cur.Clone()
			s.bestLen = cost
			if s.bestLen <= s.globalLB {
				return errOptimal
			}
		}
		return nil
	}
	if left == 0 {
		return nil
	}
	s.nodes++
	if s.nodes > s.budget {
		return ErrBudget
	}
	lb := core.BandwidthLowerBound(s.inst, possess)
	if s.best != nil && cost+lb >= s.bestLen {
		return nil
	}
	key := memoKey{hash: possessionHash(possess), left: left}
	if seen, ok := s.memo[key]; ok && seen <= cost {
		return nil
	}
	s.memo[key] = cost

	moves := s.usefulMoves(possess, left)
	if len(moves) == 0 {
		return nil
	}
	subsets := refCapacitySubsets(s.inst, moves)
	sort.SliceStable(subsets, func(i, j int) bool { return len(subsets[i]) > len(subsets[j]) })
	for _, st := range subsets {
		next := refApplyStep(possess, st)
		s.cur.Append(st)
		err := s.dfs(next, left-1, cost+len(st))
		s.cur.Steps = s.cur.Steps[:len(s.cur.Steps)-1]
		if err != nil {
			return err
		}
	}
	return nil
}

// usefulMoves lists the moves (u,v,t) of the current step, left steps
// before the horizon, where u has t, v lacks it, and some vertex wanting
// t can be reached from v in the left−1 steps after this one.
func (s *refEOCDSearch) usefulMoves(possess []tokenset.Set, left int) []core.Move {
	var out []core.Move
	for _, a := range s.inst.G.Arcs() {
		useful := possess[a.From].Difference(possess[a.To])
		useful.ForEach(func(t int) bool {
			if s.reachesWanter(a.To, t, left-1) {
				out = append(out, core.Move{From: a.From, To: a.To, Token: t})
			}
			return true
		})
	}
	return out
}

// reachesWanter reports whether some vertex that wants t is at most
// steps hops from v.
func (s *refEOCDSearch) reachesWanter(v, t, steps int) bool {
	for w, d := range s.hops[v] {
		if d >= 0 && d <= steps && s.inst.Want[w].Has(t) {
			return true
		}
	}
	return false
}

// refCapacitySubsets enumerates every non-empty subset of moves that
// respects per-arc capacities and delivers each (vertex, token) pair at
// most once.
func refCapacitySubsets(inst *core.Instance, moves []core.Move) []core.Step {
	var out []core.Step
	used := make(map[[2]int]int)
	delivered := make(map[[2]int]bool)
	cur := make(core.Step, 0, len(moves))
	var rec func(i int)
	rec = func(i int) {
		if i == len(moves) {
			if len(cur) > 0 {
				out = append(out, append(core.Step(nil), cur...))
			}
			return
		}
		mv := moves[i]
		key, pair := [2]int{mv.From, mv.To}, [2]int{mv.To, mv.Token}
		if used[key] < inst.G.Cap(mv.From, mv.To) && !delivered[pair] {
			used[key]++
			delivered[pair] = true
			cur = append(cur, mv)
			rec(i + 1)
			cur = cur[:len(cur)-1]
			delivered[pair] = false
			used[key]--
		}
		rec(i + 1)
	}
	rec(0)
	return out
}

// ----------------------------------------------------------------------
// Byte-identity of the in-place searches against the reference.

// sameOutcome fails the test unless the two solver results are identical:
// the same error text, or schedules with the same moves in the same order
// within every step.
func sameOutcome(t *testing.T, label string, got, want *core.Schedule, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, reference %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if got.Makespan() != want.Makespan() {
		t.Fatalf("%s: %d steps, reference %d", label, got.Makespan(), want.Makespan())
	}
	for i := range want.Steps {
		if fmt.Sprint(got.Steps[i]) != fmt.Sprint(want.Steps[i]) {
			t.Fatalf("%s: step %d is %v, reference %v", label, i, got.Steps[i], want.Steps[i])
		}
	}
}

// TestSearchesMatchReference pins both in-place searches against their
// references, schedule for schedule and (for EOCD) node count for node
// count, and checks every EOCD optimum against the unpruned oracle: the
// same error class and, on success, the same move count. On the n5m3
// mix, whose horizons run from τ* to τ*+2, the pruned search must also
// expand fewer nodes in total than the oracle.
func TestSearchesMatchReference(t *testing.T) {
	type horizonCase struct {
		label   string
		inst    *core.Instance
		horizon func(tau int) int // EOCD horizon from the FOCD optimum
		mix     bool              // part of the n5m3 node total
	}
	var cases []horizonCase
	for i, inst := range workload.RandomTinyInstances(1, 400, 5, 3) {
		for _, plus := range []int{0, 1, 2} {
			cases = append(cases, horizonCase{fmt.Sprintf("n5m3/%d@tau*+%d", i, plus), inst,
				func(tau int) int { return tau + plus }, true})
		}
	}
	for i, inst := range workload.RandomTinyInstances(2, 100, 4, 2) {
		cases = append(cases, horizonCase{fmt.Sprintf("n4m2/%d@0", i), inst, func(int) int { return 0 }, false})
	}
	fixtures := map[string]*core.Instance{
		"figure1":   workload.Figure1(),
		"line5x1c1": lineInstance(t, 5, 1, 1),
		"line3x3c1": lineInstance(t, 3, 3, 1),
		"line2x6c2": lineInstance(t, 2, 6, 2),
		"line3x2c2": lineInstance(t, 3, 2, 2),
		"line4x1c1": lineInstance(t, 4, 1, 1),
	}
	for _, name := range []string{"figure1", "line5x1c1", "line3x3c1", "line2x6c2", "line3x2c2", "line4x1c1"} {
		for _, h := range []func(int) int{func(int) int { return 0 }, func(tau int) int { return tau }, func(tau int) int { return tau - 1 }} {
			cases = append(cases, horizonCase{name, fixtures[name], h, false})
		}
	}

	eocdSchedules, mixNodes, mixOracleNodes := 0, 0, 0
	for _, c := range cases {
		fast, err := SolveFOCD(c.inst, Options{})
		refFast, refErr := refSolveFOCD(c.inst, Options{})
		sameOutcome(t, c.label+" focd", fast, refFast, err, refErr)
		if err != nil {
			continue
		}
		h := c.horizon(fast.Makespan())
		cheap, nodes, err := solveEOCD(c.inst, h, Options{})
		refCheap, refNodes, refErr := refSolveEOCDNodes(c.inst, h, Options{})
		label := fmt.Sprintf("%s eocd@%d", c.label, h)
		sameOutcome(t, label, cheap, refCheap, err, refErr)
		if nodes != refNodes {
			t.Fatalf("%s: %d nodes, reference %d", label, nodes, refNodes)
		}
		oracle, oracleNodes, oracleErr := oracleSolveEOCDNodes(c.inst, h, Options{})
		sameValue(t, label, cheap, oracle, err, oracleErr)
		if c.mix {
			mixNodes += nodes
			mixOracleNodes += oracleNodes
		}
		if err == nil {
			eocdSchedules++
		}
	}
	if eocdSchedules < 500 {
		t.Errorf("only %d EOCD schedules compared; the instance mix has drifted", eocdSchedules)
	}
	if mixNodes >= mixOracleNodes {
		t.Errorf("n5m3 mix: SolveEOCD expanded %d nodes, the unpruned oracle %d", mixNodes, mixOracleNodes)
	}
	t.Logf("%d cases, %d EOCD schedules matched; n5m3 mix %d nodes, oracle %d", len(cases), eocdSchedules, mixNodes, mixOracleNodes)
}

// TestBudgetErrorsMatchReference pins the node-visit order: under a
// budget small enough to run out, both implementations must give up at
// the same node, so their errors (and any schedule found first) agree.
func TestBudgetErrorsMatchReference(t *testing.T) {
	insts := workload.RandomTinyInstances(1, 400, 5, 3)
	budgetHits := 0
	for _, budget := range []int{5, 20, 50} {
		opts := Options{MaxNodes: budget}
		for i, inst := range insts {
			label := fmt.Sprintf("n5m3/%d budget %d", i, budget)
			fast, err := SolveFOCD(inst, opts)
			refFast, refErr := refSolveFOCD(inst, opts)
			sameOutcome(t, label+" focd", fast, refFast, err, refErr)
			if errors.Is(err, ErrBudget) {
				budgetHits++
			}
			for _, h := range []int{0, 2, 3} {
				cheap, err := SolveEOCD(inst, h, opts)
				refCheap, refErr := refSolveEOCD(inst, h, opts)
				sameOutcome(t, fmt.Sprintf("%s eocd@%d", label, h), cheap, refCheap, err, refErr)
				if errors.Is(err, ErrBudget) {
					budgetHits++
				}
			}
		}
	}
	if budgetHits == 0 {
		t.Error("no budget was exhausted; the test no longer pins the visit order")
	}
	t.Logf("%d ErrBudget outcomes matched", budgetHits)
}

// TestSizeOrderMatchesSortStableFunc pins the order sortBySize tries a
// node's children in: largest first, equal sizes in enumeration order,
// which is slices.SortStableFunc's order by size.
func TestSizeOrderMatchesSortStableFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var f frame
	for trial := 0; trial < 5000; trial++ {
		n, maxSize := rng.Intn(601), 1+rng.Intn(12)
		f.spans = f.spans[:0]
		lo := 0
		for i := 0; i < n; i++ {
			hi := lo + 1 + rng.Intn(maxSize)
			f.spans = append(f.spans, span{lo: lo, hi: hi, gain: i})
			lo = hi
		}
		want := slices.Clone(f.spans)
		slices.SortStableFunc(want, func(a, b span) int { return (b.hi - b.lo) - (a.hi - a.lo) })
		f.sortBySize()
		if len(f.sorted) != len(want) {
			t.Fatalf("trial %d: %d sorted spans, want %d", trial, len(f.sorted), len(want))
		}
		for i, got := range f.sorted {
			if got != want[i] {
				t.Fatalf("trial %d (%d spans, sizes 1–%d): position %d holds span %v, SortStableFunc put %v there",
					trial, n, maxSize, i, got, want[i])
			}
		}
	}
}

package exact

// The EOCD search below is the allocation-per-node reference as it stood
// before SolveEOCD dropped out-of-horizon moves and subsets that deliver
// one (vertex, token) pair twice, and before it ordered equal-size
// subsets stably. It is kept verbatim under renamed identifiers as an
// unpruned value oracle: it tries every capacity-respecting subset of
// the moves that can reach a wanter at all, so it certifies that those
// rules keep the optimum. Its tie order is not SolveEOCD's, so only the
// error class and the move count are compared against it (sameValue).

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"ocd/internal/core"
	"ocd/internal/tokenset"
)

func oracleSolveEOCD(inst *core.Instance, horizon int, opts Options) (*core.Schedule, error) {
	sched, _, err := oracleSolveEOCDNodes(inst, horizon, opts)
	return sched, err
}

// oracleSolveEOCDNodes is oracleSolveEOCD that also returns
// oracleEOCDSearch.nodes.
func oracleSolveEOCDNodes(inst *core.Instance, horizon int, opts Options) (*core.Schedule, int, error) {
	if err := inst.Check(); err != nil {
		return nil, 0, err
	}
	if !inst.Satisfiable() {
		return nil, 0, ErrUnsatisfiable
	}
	if horizon <= 0 {
		horizon = inst.TheoremOneHorizon()
	}
	s := &oracleEOCDSearch{
		inst:     inst,
		budget:   opts.nodes(),
		best:     nil,
		memo:     make(map[memoKey]int),
		relSink:  relevanceSets(inst),
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

type oracleEOCDSearch struct {
	inst    *core.Instance
	budget  int
	nodes   int
	cur     *core.Schedule
	best    *core.Schedule
	bestLen int
	// memo maps (possession, stepsLeft) → best cost-so-far seen; states
	// revisited with equal or higher cost are pruned.
	memo map[memoKey]int
	// relSink[t] is the set of vertices from which some wanter of t is
	// reachable: moves delivering t elsewhere can never help.
	relSink []tokenset.Set
	// globalLB is the §5.1 bandwidth lower bound from the initial
	// possession — a certificate of optimality for any incumbent that
	// reaches it.
	globalLB int
}

func (s *oracleEOCDSearch) dfs(possess []tokenset.Set, left, cost int) error {
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

	moves := s.usefulMoves(possess)
	if len(moves) == 0 {
		return nil
	}
	// Enumerate subsets of candidate moves respecting arc capacities,
	// largest subsets first so a good incumbent is found early. Empty
	// subsets are excluded: an idle step is never cheaper than skipping it.
	subsets := oracleCapacitySubsets(s.inst, moves)
	sort.Slice(subsets, func(i, j int) bool { return len(subsets[i]) > len(subsets[j]) })
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

// usefulMoves lists moves (u,v,t) where u has t, v lacks it, and v can
// still forward t toward (or is itself) a wanter.
func (s *oracleEOCDSearch) usefulMoves(possess []tokenset.Set) []core.Move {
	var out []core.Move
	for _, a := range s.inst.G.Arcs() {
		useful := possess[a.From].Difference(possess[a.To])
		useful.ForEach(func(t int) bool {
			if s.relSink[t].Has(a.To) {
				out = append(out, core.Move{From: a.From, To: a.To, Token: t})
			}
			return true
		})
	}
	return out
}

// oracleCapacitySubsets enumerates every non-empty subset of moves that
// respects per-arc capacities.
func oracleCapacitySubsets(inst *core.Instance, moves []core.Move) []core.Step {
	var out []core.Step
	used := make(map[[2]int]int)
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
		key := [2]int{mv.From, mv.To}
		if used[key] < inst.G.Cap(mv.From, mv.To) {
			used[key]++
			cur = append(cur, mv)
			rec(i + 1)
			cur = cur[:len(cur)-1]
			used[key]--
		}
		rec(i + 1)
	}
	rec(0)
	return out
}

// relevanceSets computes, per token, the set of vertices that can still be
// on a useful path: vertices from which at least one wanter of t is
// reachable. (Bitsets indexed by vertex, reusing tokenset.Set.)
func relevanceSets(inst *core.Instance) []tokenset.Set {
	n := inst.N()
	out := make([]tokenset.Set, inst.NumTokens)
	for t := 0; t < inst.NumTokens; t++ {
		set := tokenset.New(n)
		var wanters []int
		for v := 0; v < n; v++ {
			if inst.Want[v].Has(t) {
				wanters = append(wanters, v)
			}
		}
		dist := inst.G.MultiSourceBFSTo(wanters)
		for v := 0; v < n; v++ {
			if dist[v] >= 0 {
				set.Add(v)
			}
		}
		out[t] = set
	}
	return out
}

// errClass names the outcome class of a solve: nil, ErrBudget or
// ErrUnsatisfiable (the only errors a checked instance can produce).
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrBudget):
		return "budget"
	case errors.Is(err, ErrUnsatisfiable):
		return "unsatisfiable"
	}
	return "other: " + err.Error()
}

// sameValue fails the test unless SolveEOCD's result has the oracle's
// error class and, on success, a schedule with the oracle's move count.
func sameValue(t *testing.T, label string, got, want *core.Schedule, gotErr, wantErr error) {
	t.Helper()
	if g, w := errClass(gotErr), errClass(wantErr); g != w {
		t.Fatalf("%s: outcome %s (%v), oracle %s (%v)", label, g, gotErr, w, wantErr)
	}
	if gotErr == nil && got.Moves() != want.Moves() {
		t.Fatalf("%s: %d moves, oracle %d", label, got.Moves(), want.Moves())
	}
}

package exact

import (
	"errors"
	"fmt"
	"sort"

	"ocd/internal/core"
	"ocd/internal/graph"
	"ocd/internal/tokenset"
)

// errOptimal is an internal sentinel: the incumbent has met the global
// §5.1 bandwidth lower bound, so the rest of the search tree cannot
// improve on it and the whole search stops early. internal/ilp applies
// the same certificate to its branch-and-bound loop.
var errOptimal = errors.New("exact: incumbent meets global lower bound")

// SolveEOCD returns a successful schedule using the minimum number of moves
// (the EOCD optimum) among schedules of length at most horizon. With
// horizon ≥ the Theorem 1 bound m·(n−1) this is the unconstrained EOCD
// optimum; smaller horizons explore the §3.4 time/bandwidth tradeoff (the
// Figure 1 tension).
//
// The search branches per timestep over subsets of *useful and relevant*
// moves: a move (u,v,t) is relevant only if some vertex that still needs t
// is reachable from v (a static filter computed once per token). Cost is
// bounded below by the §5.1 remaining-bandwidth count, and the incumbent
// enables branch-and-bound pruning.
func SolveEOCD(inst *core.Instance, horizon int, opts Options) (*core.Schedule, error) {
	if err := inst.Check(); err != nil {
		return nil, err
	}
	if !inst.Satisfiable() {
		return nil, ErrUnsatisfiable
	}
	if horizon <= 0 {
		horizon = inst.TheoremOneHorizon()
	}
	arcs := inst.G.Arcs()
	s := &eocdSearch{
		inst:     inst,
		budget:   opts.nodes(),
		memo:     make(map[memoKey]int),
		relSink:  relevanceSets(inst),
		globalLB: core.BandwidthLowerBound(inst, nil),
		possess:  inst.InitialPossession(),
		arcs:     arcs,
		frames:   getFrames(),
		useful:   tokenset.New(inst.NumTokens),
		used:     make([]int, len(arcs)),
	}
	defer framePool.Put(s.frames)
	if core.Done(inst, s.possess) {
		return &core.Schedule{}, nil
	}
	if err := s.dfs(horizon, 0); err != nil && !errors.Is(err, errOptimal) {
		return nil, err
	}
	if s.best == nil {
		return nil, fmt.Errorf("%w within %d steps", ErrUnsatisfiable, horizon)
	}
	return s.best, nil
}

type memoKey struct {
	hash uint64
	left int
}

type eocdSearch struct {
	inst    *core.Instance
	budget  int
	nodes   int
	cur     core.Schedule // the path to the current node; steps alias the frames
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
	// possess is the possession at the current node, mutated in place.
	possess []tokenset.Set
	// arcs is the arc list in (From, To) order, sorted once per solve.
	arcs   []graph.Arc
	frames *frames
	// Enumeration scratch, consumed before the search descends: the
	// candidate moves with the index in arcs of each, the subset being
	// built, and per-arc usage of that subset.
	useful tokenset.Set
	moves  []core.Move
	arcOf  []int
	pick   []core.Move
	used   []int
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

func (s *eocdSearch) dfs(left, cost int) error {
	if core.Done(s.inst, s.possess) {
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
	lb := core.BandwidthLowerBound(s.inst, s.possess)
	if s.best != nil && cost+lb >= s.bestLen {
		return nil
	}
	key := memoKey{hash: possessionHash(s.possess), left: left}
	if seen, ok := s.memo[key]; ok && seen <= cost {
		return nil
	}
	s.memo[key] = cost

	s.usefulMoves()
	if len(s.moves) == 0 {
		return nil
	}
	// Enumerate subsets of candidate moves respecting arc capacities,
	// largest subsets first so a good incumbent is found early. Empty
	// subsets are excluded: an idle step is never cheaper than skipping it.
	f := s.frames.at(len(s.cur.Steps))
	s.enumerateSubsets(f, 0)
	// sort.Sort over the spans runs the same pdqsort as sort.Slice over
	// one slice per subset, so equal-size subsets come out in the order
	// the allocate-per-node search gave them.
	sort.Sort(f)
	for _, sp := range f.spans {
		st := f.arena[sp.lo:sp.hi:sp.hi]
		f.undo = apply(s.possess, st, f.undo[:0])
		//ocd:scratchok the step leaves the schedule before this frame is refilled; an incumbent is cloned
		s.cur.Append(st)
		err := s.dfs(left-1, cost+len(st))
		s.cur.Steps = s.cur.Steps[:len(s.cur.Steps)-1]
		revert(s.possess, f.undo)
		if err != nil {
			return err
		}
	}
	return nil
}

// usefulMoves lists in s.moves the moves (u,v,t) where u has t, v lacks
// it, and v can still forward t toward (or is itself) a wanter.
func (s *eocdSearch) usefulMoves() {
	s.moves, s.arcOf = s.moves[:0], s.arcOf[:0]
	for i, a := range s.arcs {
		s.useful.SetDifference(s.possess[a.From], s.possess[a.To])
		for t := s.useful.First(); t >= 0; t = s.useful.NextAfter(t) {
			if s.relSink[t].Has(a.To) {
				s.moves = append(s.moves, core.Move{From: a.From, To: a.To, Token: t})
				s.arcOf = append(s.arcOf, i)
			}
		}
	}
}

// enumerateSubsets appends to f every non-empty subset of s.moves that
// extends the picked prefix with moves from index i on and respects
// per-arc capacities, taking each move before leaving it out.
func (s *eocdSearch) enumerateSubsets(f *frame, i int) {
	if i == len(s.moves) {
		if len(s.pick) > 0 {
			lo := len(f.arena)
			f.arena = append(f.arena, s.pick...)
			f.spans = append(f.spans, span{lo, len(f.arena)})
		}
		return
	}
	if a := s.arcOf[i]; s.used[a] < s.arcs[a].Cap {
		s.used[a]++
		s.pick = append(s.pick, s.moves[i])
		s.enumerateSubsets(f, i+1)
		s.pick = s.pick[:len(s.pick)-1]
		s.used[a]--
	}
	s.enumerateSubsets(f, i+1)
}

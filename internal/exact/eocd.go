package exact

import (
	"errors"
	"fmt"

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
	sched, _, err := solveEOCD(inst, horizon, opts)
	return sched, err
}

// solveEOCD is SolveEOCD that also reports the number of search nodes it
// expanded, the count the budget is charged with.
func solveEOCD(inst *core.Instance, horizon int, opts Options) (*core.Schedule, int, error) {
	var s eocdSearch
	sched, err := s.solve(inst, horizon, opts)
	return sched, s.nodes, err
}

// solve runs the search for inst within horizon steps from a zero s,
// leaving its counters in s.
func (s *eocdSearch) solve(inst *core.Instance, horizon int, opts Options) (*core.Schedule, error) {
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
	*s = eocdSearch{
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
		picks:    make([]int, inst.N()*inst.NumTokens),
	}
	defer framePool.Put(s.frames)
	if s.globalLB == 0 { // no wanted pair is missing
		return &core.Schedule{}, nil
	}
	// The root is expanded like any other node; every budget admits it.
	s.nodes = 1
	if err := s.dfs(horizon, 0, s.globalLB); err != nil && !errors.Is(err, errOptimal) {
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
	// lastStep[k] counts the nodes with one step left that had k exact
	// covers, k = 2 standing for two or more (see lastStepCovers).
	lastStep [3]int
	// Enumeration scratch, consumed before the search descends: the
	// candidate moves with the index in arcs of each and whether its
	// receiver wants its token, the subset being built, per-arc usage of
	// that subset, and how many of its moves deliver each (vertex, token)
	// pair, indexed v·NumTokens+t. The cover count reuses pick and used for
	// its partial cover and picks as its pair marker; all three are empty
	// or zero between uses.
	useful tokenset.Set
	moves  []core.Move
	arcOf  []int
	wants  []bool
	pick   []core.Move
	used   []int
	picks  []int
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

// dfs expands the node at the end of s.cur: cost moves so far, left ≥ 1
// steps to go and lb > 0 wanted (vertex, token) pairs still missing. Its
// parent has counted it against the budget and tested it against the
// incumbent, so the node starts at the memo.
//
// Each child is decided from its subset's size and gain, the number of
// missing wanted pairs it delivers, before possession is touched: the
// child's bound is lb−gain, so it is done when gain = lb, and otherwise it
// is out of steps at left = 1 or cut when cost+size+lb−gain ≥ bestLen. A
// done child becomes the incumbent if it is cheaper; only a child that is
// none of the three is applied and expanded. A cut child still counts as
// a node, as it did when it was expanded only to prune itself, so node
// counts and the point where a budget runs out do not change.
//
// With one step left only done children act, and the incumbent the loop
// leaves is the first smallest one in size order. The smallest done
// children are the node's exact covers, so the node counts those first:
// with none it is finished, and with one that cover is the incumbent.
// Only with two or more, where the sort's tie order picks the winner, are
// the subsets enumerated.
func (s *eocdSearch) dfs(left, cost, lb int) error {
	key := memoKey{hash: possessionHash(s.possess), left: left}
	if seen, ok := s.memo[key]; ok && seen <= cost {
		return nil
	}
	s.memo[key] = cost

	s.usefulMoves()
	if len(s.moves) == 0 {
		return nil
	}
	f := s.frames.at(len(s.cur.Steps))
	if left == 1 {
		covers := s.lastStepCovers(f, lb)
		s.lastStep[covers]++
		switch covers {
		case 0:
			return nil
		case 1:
			// The parent's cut test left cost+lb < bestLen.
			//ocd:scratchok the step leaves the schedule before this frame is refilled; an incumbent is cloned
			s.cur.Append(f.arena[:lb:lb])
			err := s.improve(cost + lb)
			s.cur.Steps = s.cur.Steps[:len(s.cur.Steps)-1]
			return err
		}
		f.arena = f.arena[:0]
	}
	// Enumerate subsets of candidate moves respecting arc capacities,
	// largest subsets first so a good incumbent is found early. Empty
	// subsets are excluded: an idle step is never cheaper than skipping it.
	s.enumerateSubsets(f, 0, 0)
	f.sortBySize()
	for _, k := range f.keys {
		sp := f.spans[uint32(k)]
		size, done := sp.hi-sp.lo, sp.gain == lb
		switch {
		case done:
			if s.best != nil && cost+size >= s.bestLen {
				continue
			}
		case left == 1:
			continue
		default:
			s.nodes++
			if s.nodes > s.budget {
				return ErrBudget
			}
			if s.best != nil && cost+size+lb-sp.gain >= s.bestLen {
				continue
			}
		}
		st := f.arena[sp.lo:sp.hi:sp.hi]
		//ocd:scratchok the step leaves the schedule before this frame is refilled; an incumbent is cloned
		s.cur.Append(st)
		var err error
		if done {
			err = s.improve(cost + size)
		} else {
			f.undo = apply(s.possess, st, f.undo[:0])
			err = s.dfs(left-1, cost+size, lb-sp.gain)
			revert(s.possess, f.undo)
		}
		s.cur.Steps = s.cur.Steps[:len(s.cur.Steps)-1]
		if err != nil {
			return err
		}
	}
	return nil
}

// improve makes s.cur, a complete schedule of cost moves, the incumbent.
// It returns errOptimal once the incumbent meets the global lower bound.
func (s *eocdSearch) improve(cost int) error {
	s.best = s.cur.Clone()
	s.bestLen = cost
	if cost <= s.globalLB {
		return errOptimal
	}
	return nil
}

// usefulMoves lists in s.moves the moves (u,v,t) where u has t, v lacks
// it, and v can still forward t toward (or is itself) a wanter, and in
// s.wants whether v itself wants t.
func (s *eocdSearch) usefulMoves() {
	s.moves, s.arcOf, s.wants = s.moves[:0], s.arcOf[:0], s.wants[:0]
	for i, a := range s.arcs {
		s.useful.SetDifference(s.possess[a.From], s.possess[a.To])
		for t := s.useful.First(); t >= 0; t = s.useful.NextAfter(t) {
			if s.relSink[t].Has(a.To) {
				s.moves = append(s.moves, core.Move{From: a.From, To: a.To, Token: t})
				s.arcOf = append(s.arcOf, i)
				s.wants = append(s.wants, s.inst.Want[a.To].Has(t))
			}
		}
	}
}

// lastStepCovers counts, stopping at two, the exact covers of the node's
// lb missing wanted pairs: choices of one wanted candidate move per pair
// that fit the arc capacities together. It writes the first cover found,
// in candidate order, to f.arena.
//
// These are the smallest done children. A done child delivers every
// pair, and dropping all its moves but one per pair leaves it done and
// within capacity, so a done child exists only if a cover does, and every
// smallest one is a cover of exactly lb moves.
func (s *eocdSearch) lastStepCovers(f *frame, lb int) int {
	pairs := 0
	for i, w := range s.wants {
		if w {
			p := s.pairOf(i)
			if s.picks[p] == 0 {
				pairs++
			}
			s.picks[p]++
		}
	}
	covers := 0
	if pairs == lb { // otherwise some pair has no candidate
		covers = s.cover(f, 0, lb, 0)
	}
	for i, w := range s.wants {
		if w {
			s.picks[s.pairOf(i)] = 0
		}
	}
	return covers
}

// pairOf is the (vertex, token) pair candidate i delivers, indexed
// v·NumTokens+t as in s.picks.
func (s *eocdSearch) pairOf(i int) int {
	return s.moves[i].To*s.inst.NumTokens + s.moves[i].Token
}

// cover extends the partial cover in s.pick with candidates from index i
// on, need pairs still uncovered, and returns covers plus the covers it
// finds, stopping at two. s.picks holds, for an uncovered pair, how many
// of its candidates lie at i or later, and 0 for a covered one; s.used
// holds the partial cover's per-arc usage. Both are restored on return.
func (s *eocdSearch) cover(f *frame, i, need, covers int) int {
	if need == 0 {
		if covers == 0 {
			f.arena = append(f.arena, s.pick...)
		}
		return covers + 1
	}
	// Skip to the next candidate of an uncovered pair; each such pair
	// keeps one ahead, so i stays in range.
	for !s.wants[i] || s.picks[s.pairOf(i)] == 0 {
		i++
	}
	p := s.pairOf(i)
	ahead := s.picks[p]
	if a := s.arcOf[i]; s.used[a] < s.arcs[a].Cap {
		s.used[a]++
		s.picks[p] = 0
		s.pick = append(s.pick, s.moves[i])
		covers = s.cover(f, i+1, need-1, covers)
		s.pick = s.pick[:len(s.pick)-1]
		s.picks[p] = ahead
		s.used[a]--
	}
	if covers < 2 && ahead > 1 {
		s.picks[p] = ahead - 1
		covers = s.cover(f, i+1, need, covers)
		s.picks[p] = ahead
	}
	return covers
}

// enumerateSubsets appends to f every non-empty subset of s.moves that
// extends the picked prefix with moves from index i on and respects
// per-arc capacities, taking each move before leaving it out. gain is the
// number of distinct wanted (vertex, token) pairs the prefix delivers;
// each span records its subset's.
func (s *eocdSearch) enumerateSubsets(f *frame, i, gain int) {
	if i == len(s.moves) {
		if len(s.pick) > 0 {
			lo := len(f.arena)
			f.arena = append(f.arena, s.pick...)
			f.spans = append(f.spans, span{lo: lo, hi: len(f.arena), gain: gain})
		}
		return
	}
	if a := s.arcOf[i]; s.used[a] < s.arcs[a].Cap {
		mv, with := s.moves[i], gain
		pair := -1
		if s.wants[i] {
			pair = s.pairOf(i)
			if s.picks[pair] == 0 {
				with++
			}
			s.picks[pair]++
		}
		s.used[a]++
		s.pick = append(s.pick, mv)
		s.enumerateSubsets(f, i+1, with)
		s.pick = s.pick[:len(s.pick)-1]
		s.used[a]--
		if pair >= 0 {
			s.picks[pair]--
		}
	}
	s.enumerateSubsets(f, i+1, gain)
}

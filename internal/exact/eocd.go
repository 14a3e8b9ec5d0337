package exact

import (
	"errors"
	"fmt"
	"math"

	"ocd/internal/core"
	"ocd/internal/graph"
	"ocd/internal/steiner"
	"ocd/internal/tokenset"
)

// errOptimal is an internal sentinel: the incumbent has met the §3.3
// Steiner-forest bound of the initial possession (steiner.ForestBound),
// which no schedule beats, so the rest of the search tree cannot improve
// on it and the whole search stops early. internal/ilp applies the same
// certificate to its branch-and-bound loop.
var errOptimal = errors.New("exact: incumbent meets global lower bound")

// SolveEOCD returns a successful schedule using the minimum number of moves
// (the EOCD optimum) among schedules of length at most horizon. With
// horizon ≥ the Theorem 1 bound m·(n−1) this is the unconstrained EOCD
// optimum; smaller horizons explore the §3.4 time/bandwidth tradeoff (the
// Figure 1 tension).
//
// The search branches per timestep over subsets of *useful and relevant*
// moves: a move (u,v,t) is relevant only if some wanter of t lies within
// the steps left after it, counted in hops from v (the horizon test
// internal/ilp presolves with), and a subset never delivers one (vertex,
// token) pair twice. Cost is bounded below by the §3.3 Steiner-forest
// bound (steiner.ForestBound): from the initial possession it certifies
// an incumbent optimal, and from a child's possession it prunes the
// child. The §5.1 count of missing wanted pairs, which the forest bound
// never falls below, decides the cheaper tests made before a child is
// applied.
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
	forest := steiner.NewForestBound(inst)
	globalLB, ok := forest.Bound(inst.Have)
	if !ok {
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
		toWanter: inst.WanterDistances(),
		forest:   forest,
		globalLB: globalLB,
		bestLen:  noIncumbent,
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
	if err := s.dfs(horizon, 0, core.BandwidthLowerBound(inst, nil)); err != nil && !errors.Is(err, errOptimal) {
		return nil, err
	}
	if s.bestLen == noIncumbent {
		return nil, fmt.Errorf("%w within %d steps", ErrUnsatisfiable, horizon)
	}
	return s.incumbent(), nil
}

// noIncumbent is bestLen before the search finds a schedule: no cost
// reaches it, so every cut test passes while there is none.
const noIncumbent = math.MaxInt

type memoKey struct {
	hash uint64
	left int
}

type eocdSearch struct {
	inst   *core.Instance
	budget int
	nodes  int
	cur    core.Schedule // the path to the current node; steps alias the frames
	// bestMoves and bestEnds hold the incumbent, overwritten at each
	// improvement: its moves in schedule order, and where in bestMoves
	// each of its steps ends. bestLen is its cost, noIncumbent until
	// there is one.
	bestMoves []core.Move
	bestEnds  []int
	bestLen   int
	// memo maps (possession, stepsLeft) → best cost-so-far seen; states
	// revisited with equal or higher cost are pruned.
	memo map[memoKey]int
	// toWanter[t][v] is the hop distance from v to the nearest wanter of
	// t, or −1 when none is reachable: a move delivering t to v with
	// left steps to go can help only if that distance is 0 to left−1.
	toWanter [][]int
	// forest computes the §3.3 Steiner-forest bound of a possession;
	// globalLB is its value at the initial possession, a certificate of
	// optimality for any incumbent that reaches it.
	forest   *steiner.ForestBound
	globalLB int
	// possess is the possession at the current node, mutated in place.
	possess []tokenset.Set
	// arcs is the arc list in (From, To) order, sorted once per solve.
	arcs   []graph.Arc
	frames *frames
	// lastStep[k] counts the nodes with one step left that had no exact
	// cover (k = 0) and those that had one (k = 1); see lastStepCover.
	lastStep [2]int
	// Enumeration scratch, consumed before the search descends: the
	// candidate moves with the index in arcs of each and whether its
	// receiver wants its token, the subset being built, per-arc usage of
	// that subset, and how many of its moves deliver each (vertex, token)
	// pair, indexed v·NumTokens+t (0 or 1, as a subset delivers a pair at
	// most once). The cover search reuses pick and used for its partial
	// cover and picks as its pair marker; all three are empty or zero
	// between uses.
	useful tokenset.Set
	moves  []core.Move
	arcOf  []int
	wants  []bool
	pick   []core.Move
	used   []int
	picks  []int
}

// dfs expands the node at the end of s.cur: cost moves so far, left ≥ 1
// steps to go and lb > 0 wanted (vertex, token) pairs still missing. Its
// parent has counted it against the budget and tested it against the
// incumbent, so the node starts at the memo.
//
// The node's children are the non-empty subsets of its candidate moves
// (see usefulMoves) that respect arc capacities and deliver no (vertex,
// token) pair twice, tried largest first and, among equal sizes, in the
// order enumerateSubsets lists them. Each is decided from its size and
// gain, the number of missing wanted pairs it delivers, before possession
// is touched: the child's count bound is lb−gain, so it is done when
// gain = lb and otherwise cut when cost+size+lb−gain ≥ bestLen. A done
// child becomes the incumbent if it is cheaper. Any other child counts
// as a node, and one that the count does not cut is applied and then cut
// when cost+size plus its Steiner-forest bound reaches bestLen; only a
// child that survives both cuts is expanded. enumerateSubsets leaves out
// the subsets the count would cut against the incumbent the node starts
// with, so those count no node.
//
// With one step left every candidate delivers a missing wanted pair, so
// the done children are exactly the node's exact covers, all of lb moves,
// and the first in that order is the incumbent the loop would leave;
// lastStepCover finds it without enumerating the rest.
func (s *eocdSearch) dfs(left, cost, lb int) error {
	key := memoKey{hash: possessionHash(s.possess), left: left}
	if seen, ok := s.memo[key]; ok && seen <= cost {
		return nil
	}
	s.memo[key] = cost

	s.usefulMoves(left)
	if len(s.moves) == 0 {
		return nil
	}
	f := s.frames.at(len(s.cur.Steps))
	if left == 1 {
		if !s.lastStepCover(f, lb) {
			s.lastStep[0]++
			return nil
		}
		s.lastStep[1]++
		// The parent's cut test left cost+lb < bestLen.
		//ocd:scratchok the step leaves the schedule before this frame is refilled; an incumbent is copied out
		s.cur.Append(f.arena[:lb:lb])
		err := s.improve(cost + lb)
		s.cur.Steps = s.cur.Steps[:len(s.cur.Steps)-1]
		return err
	}
	// Enumerate subsets of candidate moves respecting arc capacities,
	// largest subsets first so a good incumbent is found early. Empty
	// subsets are excluded: an idle step is never cheaper than skipping it.
	// The parent's cut test left cost+lb < bestLen, so relays ≥ 0.
	s.enumerateSubsets(f, 0, 0, s.bestLen-cost-lb-1)
	f.sortBySize()
	for _, sp := range f.sorted {
		size, done := sp.hi-sp.lo, sp.gain == lb
		if done {
			if cost+size >= s.bestLen {
				continue
			}
		} else {
			s.nodes++
			if s.nodes > s.budget {
				return ErrBudget
			}
			if cost+size+lb-sp.gain >= s.bestLen {
				continue
			}
		}
		st := f.arena[sp.lo:sp.hi:sp.hi]
		if !done {
			f.undo = apply(s.possess, st, f.undo[:0])
			// The child's possession is reachable from a satisfiable one.
			if rest, _ := s.forest.Bound(s.possess); cost+size+rest >= s.bestLen {
				revert(s.possess, f.undo)
				continue
			}
		}
		//ocd:scratchok the step leaves the schedule before this frame is refilled; an incumbent is copied out
		s.cur.Append(st)
		var err error
		if done {
			err = s.improve(cost + size)
		} else {
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

// improve makes s.cur, a complete schedule of cost moves, the incumbent,
// copying it over the previous one. It returns errOptimal once the
// incumbent meets the global lower bound.
func (s *eocdSearch) improve(cost int) error {
	s.bestMoves, s.bestEnds = s.bestMoves[:0], s.bestEnds[:0]
	for _, st := range s.cur.Steps {
		s.bestMoves = append(s.bestMoves, st...)
		s.bestEnds = append(s.bestEnds, len(s.bestMoves))
	}
	s.bestLen = cost
	if cost <= s.globalLB {
		return errOptimal
	}
	return nil
}

// incumbent returns a schedule of its own holding the incumbent.
func (s *eocdSearch) incumbent() *core.Schedule {
	sched := &core.Schedule{Steps: make([]core.Step, len(s.bestEnds))}
	lo := 0
	for i, hi := range s.bestEnds {
		sched.Steps[i] = append(core.Step(nil), s.bestMoves[lo:hi]...)
		lo = hi
	}
	return sched
}

// usefulMoves lists in s.moves the candidate moves of a node with left
// steps to go: the moves (u,v,t) where u has t, v lacks it, and some
// wanter of t is at most left−1 hops from v, so that t can still reach it
// within the horizon; s.wants records whether v itself wants t.
//
// No optimal schedule makes any other move. If v is further than that
// from every wanter, so is every vertex t reaches from v in the steps
// left, so the move and every later move of t that only it enables serve
// no wanter, and dropping them all leaves a valid, still successful
// schedule with fewer moves.
func (s *eocdSearch) usefulMoves(left int) {
	s.moves, s.arcOf, s.wants = s.moves[:0], s.arcOf[:0], s.wants[:0]
	for i, a := range s.arcs {
		s.useful.SetDifference(s.possess[a.From], s.possess[a.To])
		for t := s.useful.First(); t >= 0; t = s.useful.NextAfter(t) {
			if d := s.toWanter[t][a.To]; d >= 0 && d < left {
				s.moves = append(s.moves, core.Move{From: a.From, To: a.To, Token: t})
				s.arcOf = append(s.arcOf, i)
				s.wants = append(s.wants, d == 0)
			}
		}
	}
}

// lastStepCover writes to f.arena the first exact cover, in candidate
// order, of the node's lb missing wanted pairs: a choice of one candidate
// move per pair that fits the arc capacities. It reports whether one
// exists. With one step left every candidate delivers a missing wanted
// pair (usefulMoves admits only receivers that want the token), so the
// covers are the node's done children.
func (s *eocdSearch) lastStepCover(f *frame, lb int) bool {
	pairs := 0
	for i := range s.moves {
		p := s.pairOf(i)
		if s.picks[p] == 0 {
			pairs++
		}
		s.picks[p]++
	}
	// Otherwise some pair has no candidate.
	found := pairs == lb && s.cover(f, 0, lb)
	for i := range s.moves {
		s.picks[s.pairOf(i)] = 0
	}
	return found
}

// pairOf is the (vertex, token) pair candidate i delivers, indexed
// v·NumTokens+t as in s.picks.
func (s *eocdSearch) pairOf(i int) int {
	return s.moves[i].To*s.inst.NumTokens + s.moves[i].Token
}

// cover extends the partial cover in s.pick with candidates from index i
// on, need pairs still uncovered, and reports whether it completes one,
// writing the first it completes to f.arena. s.picks holds, for an
// uncovered pair, how many of its candidates lie at i or later, and 0 for
// a covered one; s.used holds the partial cover's per-arc usage. Both are
// restored on return.
func (s *eocdSearch) cover(f *frame, i, need int) bool {
	if need == 0 {
		f.arena = append(f.arena, s.pick...)
		return true
	}
	// Skip to the next candidate of an uncovered pair; each such pair
	// keeps one ahead, so i stays in range.
	for s.picks[s.pairOf(i)] == 0 {
		i++
	}
	p := s.pairOf(i)
	ahead := s.picks[p]
	found := false
	if a := s.arcOf[i]; s.used[a] < s.arcs[a].Cap {
		s.used[a]++
		s.picks[p] = 0
		s.pick = append(s.pick, s.moves[i])
		found = s.cover(f, i+1, need-1)
		s.pick = s.pick[:len(s.pick)-1]
		s.picks[p] = ahead
		s.used[a]--
	}
	if !found && ahead > 1 {
		s.picks[p] = ahead - 1
		found = s.cover(f, i+1, need)
		s.picks[p] = ahead
	}
	return found
}

// enumerateSubsets appends to f every non-empty subset of s.moves that
// extends the picked prefix with moves from index i on, respects per-arc
// capacities, delivers no (vertex, token) pair twice and takes at most
// relays more relay moves, those that deliver no wanted pair, taking each
// move before leaving it out. gain is the number of wanted pairs the
// prefix delivers; each span records its subset's.
//
// A subset that delivers a pair twice reaches the same possession as the
// one without its second delivery, at one move more, so no optimal
// schedule contains it. A subset of size moves and gain wanted pairs
// leaves a child whose count bound is lb−gain, so the child's cost plus
// bound is cost+lb plus its size−gain relay moves; dfs passes the relays
// that keep that below bestLen. Each move adds a relay or a gain, so once
// a prefix has used its relays every extension is cut as well, done
// children included, and none is listed.
func (s *eocdSearch) enumerateSubsets(f *frame, i, gain, relays int) {
	if i == len(s.moves) {
		if len(s.pick) > 0 {
			lo := len(f.arena)
			f.arena = append(f.arena, s.pick...)
			f.spans = append(f.spans, span{lo: lo, hi: len(f.arena), gain: gain})
		}
		return
	}
	p := s.pairOf(i)
	with, spare := gain+1, relays
	if !s.wants[i] {
		with, spare = gain, relays-1
	}
	if a := s.arcOf[i]; s.picks[p] == 0 && s.used[a] < s.arcs[a].Cap && spare >= 0 {
		s.picks[p] = 1
		s.used[a]++
		s.pick = append(s.pick, s.moves[i])
		s.enumerateSubsets(f, i+1, with, spare)
		s.pick = s.pick[:len(s.pick)-1]
		s.used[a]--
		s.picks[p] = 0
	}
	s.enumerateSubsets(f, i+1, gain, relays)
}

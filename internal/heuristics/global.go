package heuristics

import (
	"math/rand"

	"ocd/internal/core"
	"ocd/internal/sim"
	"ocd/internal/tokenset"
)

// Global builds the §5.1 global heuristic: the general case of Local where
// vertices coordinate within each timestep to maximize diversity. The
// coordination removes the need for requests — the planner sees everything
// and guarantees a destination receives a token at most once per turn.
//
// As in the paper, the planner is a greedy selection over tokens and edges
// rather than an exhaustive matching ("not guaranteed to maximize
// diversity … to allow the heuristic to function at large scale"): it runs
// interleaved rounds in which every destination claims one more token,
// choosing the token with the lowest effective rarity, where copies already
// scheduled this turn count heavily against a token. Wanted tokens are
// claimed before diversity-only tokens.
var Global sim.Factory = newGlobal

// globalStrategy owns the per-run scratch: the per-destination claim sets
// and the per-token scores are cleared and refilled at the top of every
// Plan call instead of being reallocated.
type globalStrategy struct {
	rem residual
	// score[t] is counts[t] plus n for every copy of t scheduled this turn,
	// the effective rarity pickDiverse minimizes: a token already scheduled
	// counts as more common than any unscheduled one.
	//ocd:scratch
	score []int
	//ocd:scratch
	scheduled []tokenset.Set
	//ocd:scratch
	wantedLeft []tokenset.Set
	//ocd:scratch
	lackLeft []tokenset.Set
	// obtainable[v] is what v could still pull this turn: the union of the
	// possession of its in-neighbors with residual capacity, minus p(v)
	// and scheduled[v]. Only v's claims consume v's in-arcs, so it is
	// computed once per Plan, loses each token v claims, and is recomputed
	// only when a claim saturates one of v's in-arcs; closed[v] records
	// that none has capacity left.
	//ocd:scratch
	obtainable []tokenset.Set
	//ocd:scratch
	closed []bool
	//ocd:scratch
	pickable tokenset.Set
	//ocd:scratch
	perm  []int
	moves []core.Move
}

func newGlobal(inst *core.Instance, _ *rand.Rand) (sim.Strategy, error) {
	n, m := inst.N(), inst.NumTokens
	g := &globalStrategy{
		score:      make([]int, m),
		scheduled:  make([]tokenset.Set, n),
		wantedLeft: make([]tokenset.Set, n),
		lackLeft:   make([]tokenset.Set, n),
		obtainable: make([]tokenset.Set, n),
		closed:     make([]bool, n),
		pickable:   tokenset.New(m),
	}
	for v := 0; v < n; v++ {
		g.scheduled[v] = tokenset.New(m)
		g.wantedLeft[v] = tokenset.New(m)
		g.lackLeft[v] = tokenset.New(m)
		g.obtainable[v] = tokenset.New(m)
	}
	return g, nil
}

func (g *globalStrategy) Name() string { return "global" }

func (g *globalStrategy) Plan(st *sim.State) []core.Move {
	inst := st.Inst
	n := inst.N()
	g.rem.reset(inst.G)
	copy(g.score, st.HaveCounts())
	g.moves = g.moves[:0]

	// scheduled[v] tracks tokens already planned for delivery to v this
	// turn; missing/lacking shrink as rounds assign tokens.
	for v := 0; v < n; v++ {
		g.scheduled[v].Clear()
		st.MissingInto(v, g.wantedLeft[v])
		st.LackingInto(v, g.lackLeft[v])
		g.lackLeft[v].DifferenceWith(g.wantedLeft[v])
		g.collect(st, v)
	}

	g.perm = permInto(g.perm, st.Rand, n)
	for {
		assigned := false
		for _, v := range g.perm {
			if g.closed[v] {
				continue
			}
			t := pickDiverse(g.pickable, g.obtainable[v], g.wantedLeft[v], g.lackLeft[v], g.score, st.Rand)
			if t == -1 {
				continue
			}
			// Claim t from the holder neighbor with the most spare capacity.
			in := inst.G.In(v)
			inIDs := inst.G.InArcIDs(v)
			best, bestLeft := -1, 0
			var bestID int32
			for i, a := range in {
				if !st.Possess[a.From].Has(t) {
					continue
				}
				if l := g.rem.leftID(inIDs[i]); l > bestLeft {
					best, bestLeft, bestID = a.From, l, inIDs[i]
				}
			}
			if best == -1 {
				continue
			}
			g.rem.takeID(bestID)
			g.scheduled[v].Add(t)
			g.wantedLeft[v].Remove(t)
			g.lackLeft[v].Remove(t)
			g.obtainable[v].Remove(t)
			g.score[t] += n
			if g.rem.leftID(bestID) == 0 {
				g.collect(st, v)
			}
			g.moves = append(g.moves, core.Move{From: best, To: v, Token: t})
			assigned = true
		}
		if !assigned {
			break
		}
	}
	return g.moves
}

// collect recomputes obtainable[v] and closed[v] from the residual
// capacity of v's in-arcs.
func (g *globalStrategy) collect(st *sim.State, v int) {
	obt := g.obtainable[v]
	obt.Clear()
	closed := true
	inIDs := st.Inst.G.InArcIDs(v)
	for i, a := range st.Inst.G.In(v) {
		if g.rem.leftID(inIDs[i]) > 0 {
			obt.UnionWith(st.Possess[a.From])
			closed = false
		}
	}
	obt.DifferenceWith(st.Possess[v])
	obt.DifferenceWith(g.scheduled[v])
	g.closed[v] = closed
}

// pickDiverse selects the next token for a destination: among wanted tokens
// if any are obtainable, otherwise among diversity tokens; within the class
// it minimizes score[t], breaking ties by reservoir sampling. Returns -1
// when nothing is obtainable. scratch is overwritten with class ∩
// obtainable so the scoring loop only visits pickable tokens instead of
// probing obtainable.Has per class member.
func pickDiverse(scratch, obtainable, wanted, lack tokenset.Set, score []int, rng *rand.Rand) int {
	for _, class := range []tokenset.Set{wanted, lack} {
		scratch.SetIntersection(class, obtainable)
		best, bestScore, seen := -1, 0, 0
		scratch.ForEach(func(t int) bool {
			switch {
			case best == -1 || score[t] < bestScore:
				best, bestScore, seen = t, score[t], 1
			case score[t] == bestScore:
				// Reservoir-sample ties for the rarest-*random* behaviour.
				seen++
				if rng.Intn(seen) == 0 {
					best = t
				}
			}
			return true
		})
		if best != -1 {
			return best
		}
	}
	return -1
}

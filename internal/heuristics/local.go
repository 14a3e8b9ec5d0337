package heuristics

import (
	"math/bits"
	"math/rand"

	"ocd/internal/core"
	"ocd/internal/graph"
	"ocd/internal/sim"
	"ocd/internal/tokenset"
)

// Local builds the §5.1 "rarest random" heuristic. At the start of every
// timestep the aggregate have/want vectors are distributed to all vertices
// (the paper assumes a multicast tree does this). Each vertex then requests
// the tokens it lacks from its in-neighbors, rarest first, subdividing its
// needs across distinct neighbors so that two peers do not send the same
// rare token to the same destination. Tokens the vertex actually wants are
// requested before tokens fetched only to increase diversity (the general-
// problem extension: both the want aggregate and the not-have aggregate are
// distributed).
var Local sim.Factory = newLocal

// localStrategy owns the per-run holder masks, which it keeps current
// across turns, and scratch buffers that every Plan call overwrites, so a
// run's steady state plans a whole timestep without heap allocation (beyond
// the returned moves growing once to their high-water mark).
type localStrategy struct {
	changes sim.Changes
	rem     residual
	sorter  raritySorter
	// holders keeps one bitmask per (vertex, token) over the vertex's
	// in-arc positions in the planning graph: bit j of row (v, t) is set
	// when the tail of In(v)[j] holds t. A row is words wide, enough for
	// the base graph's largest in-degree (a step view never has more), and
	// row (v, t) starts at word (v·numTokens + t)·words. Deliveries set
	// bits; a wipe or an arc-set change rebuilds every row.
	holders   []uint64
	words     int
	numTokens int
	// inPos[id] is the position of arc id in its head's in-arc list.
	inPos []int32
	// open masks the in-arcs of the requesting vertex that have residual
	// capacity.
	//ocd:scratch
	open []uint64
	//ocd:scratch
	perm []int
	//ocd:scratch
	wanted tokenset.Set
	//ocd:scratch
	other tokenset.Set
	//ocd:scratch
	tokens []int
	moves  []core.Move
}

func newLocal(inst *core.Instance, _ *rand.Rand) (sim.Strategy, error) {
	n, m := inst.N(), inst.NumTokens
	maxIn := 0
	for v := 0; v < n; v++ {
		maxIn = max(maxIn, inst.G.InDegree(v))
	}
	words := (maxIn + 63) / 64
	return &localStrategy{
		holders:   make([]uint64, n*m*words),
		words:     words,
		numTokens: m,
		inPos:     make([]int32, inst.G.NumArcs()),
		open:      make([]uint64, words),
		wanted:    tokenset.New(m),
		other:     tokenset.New(m),
	}, nil
}

func (l *localStrategy) Name() string { return "local" }

func (l *localStrategy) Plan(st *sim.State) []core.Move {
	if l.changes.Delta(st) {
		for _, mv := range st.Delivered {
			l.gain(st.Inst.G, mv.To, mv.Token)
		}
	} else {
		l.rebuild(st)
	}
	counts := st.HaveCounts()
	l.rem.reset(st.Inst.G)
	l.moves = l.moves[:0]
	l.perm = permInto(l.perm, st.Rand, st.Inst.N())
	for _, v := range l.perm {
		l.appendRequests(st, counts, v)
	}
	return l.moves
}

// gain records that u now holds t: one bit at each of u's out-neighbors.
func (l *localStrategy) gain(g *graph.Graph, u, t int) {
	ids := g.OutArcIDs(u)
	for i, a := range g.Out(u) {
		p := int(l.inPos[ids[i]])
		l.holders[(a.To*l.numTokens+t)*l.words+p>>6] |= 1 << (p & 63)
	}
}

// rebuild recomputes every holder mask from the current possession and
// arc set.
func (l *localStrategy) rebuild(st *sim.State) {
	g := st.Inst.G
	clear(l.holders)
	for v := range st.Possess {
		for j, id := range g.InArcIDs(v) {
			l.inPos[id] = int32(j)
		}
	}
	for u := range st.Possess {
		l.tokens = st.Possess[u].AppendTo(l.tokens[:0])
		for _, t := range l.tokens {
			l.gain(g, u, t)
		}
	}
}

// appendRequests assigns vertex v's missing tokens to in-neighbor holders
// with residual capacity, wanted tokens first, rarest first within each
// class.
func (l *localStrategy) appendRequests(st *sim.State, counts []int, v int) {
	inIDs := st.Inst.G.InArcIDs(v)
	if len(inIDs) == 0 {
		return
	}
	clear(l.open)
	for j, id := range inIDs {
		if l.rem.leftID(id) > 0 {
			l.open[j>>6] |= 1 << (j & 63)
		}
	}
	st.MissingInto(v, l.wanted)
	st.LackingInto(v, l.other)
	l.other.DifferenceWith(l.wanted)
	// Both classes are shuffled before any holder is drawn, matching the
	// rand-stream order of the original two-slice formulation.
	n := st.Inst.N()
	l.tokens = appendTokensByRarity(&l.sorter, l.tokens[:0], l.wanted, counts, n, st.Rand)
	wantedEnd := len(l.tokens)
	l.tokens = appendTokensByRarity(&l.sorter, l.tokens, l.other, counts, n, st.Rand)
	// Wanted tokens before diversity tokens. Passing the two reslices as
	// plain call arguments keeps the scratch buffer out of any composite
	// literal, which scratchalias cannot prove transient.
	l.requestClass(st, v, l.tokens[:wantedEnd])
	l.requestClass(st, v, l.tokens[wantedEnd:])
}

// requestClass assigns each token in class to a random in-neighbor holder
// of v with residual capacity, in class order. The eligible in-arcs are
// the set bits of the token's holder mask and the open mask; reservoir
// sampling over them in ascending position draws the same Intn sequence
// as a scan of In(v) in list order.
func (l *localStrategy) requestClass(st *sim.State, v int, class []int) {
	in := st.Inst.G.In(v)
	inIDs := st.Inst.G.InArcIDs(v)
	for _, t := range class {
		row := (v*l.numTokens + t) * l.words
		best, seen := -1, 0
		for k, open := range l.open {
			for set := l.holders[row+k] & open; set != 0; set &= set - 1 {
				seen++
				if st.Rand.Intn(seen) == 0 {
					best = k<<6 | bits.TrailingZeros64(set)
				}
			}
		}
		if best == -1 {
			continue
		}
		id := inIDs[best]
		l.rem.takeID(id)
		if l.rem.leftID(id) == 0 {
			l.open[best>>6] &^= 1 << (best & 63)
		}
		l.moves = append(l.moves, core.Move{From: in[best].From, To: v, Token: t})
	}
}

package heuristics

import (
	"fmt"
	"math"
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

// LocalDelayed builds the §5.1 relaxation of the Local heuristic in which
// peers know each other's state as of `delay` turns ago instead of the
// current turn ("further exploration may also relax this requirement,
// instead allowing peers to know about the state 'k' turns ago"). A
// non-positive delay is Local itself.
//
// Without faults possession is monotone, so a stale view is a subset of
// the truth: requests planned from it remain valid, but rarity estimates
// lag and deliveries may duplicate what a peer already obtained meanwhile
// — the cost of stale knowledge that the delay ablation measures.
func LocalDelayed(delay int) sim.Factory {
	if delay <= 0 {
		return Local
	}
	return func(inst *core.Instance, _ *rand.Rand) (sim.Strategy, error) {
		l := newLocalStrategy(inst)
		l.counts = make([]int, inst.NumTokens)
		l.ring = make([][]tokenset.Set, delay+1)
		for i := range l.ring {
			l.ring[i] = make([]tokenset.Set, inst.N())
			for v := range l.ring[i] {
				l.ring[i][v] = tokenset.New(inst.NumTokens)
			}
		}
		return l, nil
	}
}

// ProtocolLocal builds Local as a message-passing protocol, closing the
// gap §5.1 leaves open ("How a vertex would know this information is an
// implementation problem"): instead of per-turn global aggregates, every
// vertex keeps a versioned table about every vertex and exchanges it with
// its neighbors once per turn, the §4.1 LOCD model in which k_{i+1}(v) is
// a function of k_i(v) and the neighbors' k_i. Knowledge therefore lags
// reality by graph distance, and the first turn is necessarily idle; run
// it with IdlePatience of at least the graph diameter.
//
// drop, when non-nil, suppresses the table message from→to of a turn
// (fault.GossipLoss is the deterministic model). Dropped gossip only
// delays knowledge, so the strategy degrades to extra turns rather than
// wrong moves; scale IdlePatience up with the drop rate. A nil drop is
// lossless.
func ProtocolLocal(drop func(step, from, to int) bool) sim.Factory {
	return func(inst *core.Instance, _ *rand.Rand) (sim.Strategy, error) {
		l := newLocalStrategy(inst)
		l.counts = make([]int, inst.NumTokens)
		l.gossip = newGossip(inst, drop)
		return l, nil
	}
}

// localStrategy is the one implementation of Local's request rule. Its
// three variants differ only in what each requester believes its
// in-neighbors hold and how rare it thinks each token is: Local reads live
// possession, LocalDelayed a snapshot delay turns old (ring), and
// ProtocolLocal each requester's own gossip rows (gossip).
//
// It owns the per-run holder masks and scratch buffers that every Plan
// call overwrites, so a run's steady state plans a whole timestep without
// heap allocation (beyond the returned moves growing once to their
// high-water mark, and ProtocolLocal's own-row snapshots).
type localStrategy struct {
	changes sim.Changes
	rem     residual
	sorter  raritySorter
	// holders keeps one bitmask per (vertex, token) over the vertex's
	// in-arc positions in the planning graph: bit j of row (v, t) is set
	// when v believes the tail of In(v)[j] holds t. A row is words wide,
	// enough for the base graph's largest in-degree (a step view never has
	// more), and row (v, t) starts at word (v·numTokens + t)·words. On live
	// possession deliveries set bits, and a wipe or an arc-set change
	// rebuilds every row; the other variants rebuild every Plan.
	holders   []uint64
	words     int
	numTokens int
	// inPos[id] is the position of arc id in its head's in-arc list.
	inPos []int32
	// ring holds LocalDelayed's delay+1 possession snapshots, refilled in
	// place; plans counts the Plan calls that filled it.
	ring  [][]tokenset.Set
	plans int
	// gossip holds ProtocolLocal's knowledge tables.
	gossip *gossip
	// counts holds the believed have-counts of the variants that do not
	// plan from live possession.
	counts []int
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
	return newLocalStrategy(inst), nil
}

func newLocalStrategy(inst *core.Instance) *localStrategy {
	n, m := inst.N(), inst.NumTokens
	maxIn := 0
	for v := 0; v < n; v++ {
		maxIn = max(maxIn, inst.G.InDegree(v))
	}
	words := (maxIn + 63) / 64
	return &localStrategy{
		// Counts lie in [0, n] and a vertex sorts at most m tokens, so the
		// sorter's scratch never grows.
		sorter:    raritySorter{bucket: make([]int, n+2), tmp: make([]int, m)},
		holders:   make([]uint64, n*m*words),
		words:     words,
		numTokens: m,
		inPos:     make([]int32, inst.G.NumArcs()),
		open:      make([]uint64, words),
		wanted:    tokenset.New(m),
		other:     tokenset.New(m),
	}
}

func (l *localStrategy) Name() string {
	switch {
	case l.gossip != nil:
		return "protocol-local"
	case l.ring != nil:
		return fmt.Sprintf("local-delayed-%d", len(l.ring)-1)
	}
	return "local"
}

func (l *localStrategy) Plan(st *sim.State) []core.Move {
	g, n := st.Inst.G, st.Inst.N()
	counts := l.counts
	switch {
	case l.gossip != nil:
		l.gossip.exchange(st)
		l.fill(st, l.gossip.have, n)
	case l.ring != nil:
		view := l.stale(st)
		l.fill(st, view, 0)
		l.count(view)
	default:
		if l.changes.Delta(st) {
			for _, mv := range st.Delivered {
				l.gain(g, mv.To, mv.Token)
			}
		} else {
			l.rebuild(st)
		}
		counts = st.HaveCounts()
	}
	l.rem.reset(g)
	l.moves = l.moves[:0]
	l.perm = permInto(l.perm, st.Rand, n)
	for _, v := range l.perm {
		if l.gossip != nil {
			// Rarity as v believes it, from its own rows.
			l.count(l.gossip.have[v*n : (v+1)*n])
		}
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

// rebuild recomputes the arc positions and the holder masks from the
// current possession and arc set.
func (l *localStrategy) rebuild(st *sim.State) {
	for v := range st.Possess {
		for j, id := range st.Inst.G.InArcIDs(v) {
			l.inPos[id] = int32(j)
		}
	}
	l.fill(st, st.Possess, 0)
}

// fill recomputes the holder masks from rows: bit j of row (v, t) is set
// when rows[v·stride + u] holds t, for u the tail of In(v)[j]. A stride of
// 0 gives every requester the same view of its in-neighbors. Only the
// rows of tokens v lacks are filled, since v requests no other; on live
// possession that stays true until a wipe, which rebuilds. The wanted and
// other sets serve as scratch until appendRequests overwrites them.
func (l *localStrategy) fill(st *sim.State, rows []tokenset.Set, stride int) {
	g := st.Inst.G
	clear(l.holders)
	for v := 0; v < g.N(); v++ {
		st.LackingInto(v, l.other)
		for j, a := range g.In(v) {
			l.wanted.SetIntersection(rows[v*stride+a.From], l.other)
			l.tokens = l.wanted.AppendTo(l.tokens[:0])
			for _, t := range l.tokens {
				l.holders[(v*l.numTokens+t)*l.words+j>>6] |= 1 << (j & 63)
			}
		}
	}
}

// count overwrites l.counts with the number of rows holding each token.
func (l *localStrategy) count(rows []tokenset.Set) {
	clear(l.counts)
	for _, r := range rows {
		l.tokens = r.AppendTo(l.tokens[:0])
		for _, t := range l.tokens {
			l.counts[t]++
		}
	}
}

// stale records the current possession in the ring and returns the
// snapshot taken delay Plan calls ago, or the first one while fewer have
// been taken.
func (l *localStrategy) stale(st *sim.State) []tokenset.Set {
	k := len(l.ring)
	for v, p := range st.Possess {
		l.ring[l.plans%k][v].CopyFrom(p)
	}
	view := l.ring[max(0, l.plans-(k-1))%k]
	l.plans++
	return view
}

// appendRequests assigns vertex v's missing tokens to in-neighbor holders
// with residual capacity, wanted tokens first, rarest first within each
// class. The classes come from live possession: v always knows itself.
// Only the kept subsequence of each class reaches requestClass: the
// tokens some open in-arc's tail holds. The rest could never draw a
// holder this turn.
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
	l.tokens = l.appendMovable(l.tokens[:0], v, l.wanted, counts, st.Rand)
	wantedEnd := len(l.tokens)
	l.tokens = l.appendMovable(l.tokens, v, l.other, counts, st.Rand)
	// Wanted tokens before diversity tokens. Passing the two reslices as
	// plain call arguments keeps the scratch buffer out of any composite
	// literal, which scratchalias cannot prove transient.
	l.requestClass(st, v, l.tokens[:wantedEnd])
	l.requestClass(st, v, l.tokens[wantedEnd:])
}

// appendMovable appends to buf the tokens of set that v can request this
// turn, ordered by ascending count (rarest first), and returns the
// extended buffer. Every token of set is Fisher-Yates shuffled with rng,
// then only those with a holder on an open in-arc of v are kept, in
// shuffled order, and a stable sort keyed by count orders them; stability
// preserves the shuffled order among equal-rarity tokens, which is the
// tie-diversification the §5.1 rarest-random family relies on.
//
// The filter changes no request. Called at the start of v's turn, every
// present in-arc of v is open (only v's requests draw on them), and
// during the turn v's holder rows stay fixed while open only loses bits,
// so a token dropped here would find no eligible holder in requestClass,
// which skips it without a draw. Filtering a stably sorted list keeps the
// same order as sorting the filtered one. The shuffle still covers the
// whole set, so the PRNG draws are unchanged.
func (l *localStrategy) appendMovable(buf []int, v int, set tokenset.Set, counts []int, rng *rand.Rand) []int {
	start := len(buf)
	buf = set.AppendTo(buf)
	tokens := buf[start:]
	for i := len(tokens) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		tokens[i], tokens[j] = tokens[j], tokens[i]
	}
	kept, lo, hi := 0, math.MaxInt, math.MinInt
	for _, t := range tokens {
		row := l.holders[(v*l.numTokens+t)*l.words:]
		for k, open := range l.open {
			if row[k]&open != 0 {
				tokens[kept] = t
				kept++
				lo, hi = min(lo, counts[t]), max(hi, counts[t])
				break
			}
		}
	}
	l.sorter.sortByCount(tokens[:kept], counts, lo, hi)
	return buf[:start+kept]
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

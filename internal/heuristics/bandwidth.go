package heuristics

import (
	"math/bits"
	"math/rand"

	"ocd/internal/core"
	"ocd/internal/sim"
	"ocd/internal/tokenset"
)

// Bandwidth builds the §5.1 bandwidth-conserving heuristic: an online
// strategy, albeit with global knowledge, that "more cautiously adds tokens
// to a move". A vertex obtains a token in the next turn only if it will
// eventually use it, meaning either
//
//  1. it needs (wants and lacks) the token, or
//  2. it is the closest one-hop-knowledge vertex to a node that needs it,
//     where a one-hop-knowledge vertex for token t is one that could obtain
//     t in a single turn (it lacks t but has an in-neighbor possessing it).
//
// "Closest" is resolved with one labeled multi-source BFS per token (every
// one-hop vertex floods forward; each needer adopts the first one-hop
// vertex to reach it, and the flood stops once every needer has one). A
// token's request targets depend only on its holders and the present arcs,
// so they are cached per token, and a turn recomputes only the tokens the
// previous turn delivered (all of them after a wipe or an arc-set change;
// see sim.Changes). A token's needers are kept the same way, as a set of
// the wanters that lack it, so recomputing a token walks that set instead
// of testing every wanter's possession. A turn therefore costs O(n +
// arcs) per delivered token rather than per token, which keeps the
// heuristic cheap on the paper's 1000-vertex sweeps.
var Bandwidth sim.Factory = newBandwidth

type bandwidthStrategy struct {
	changes sim.Changes
	rem     residual
	// Vertex sets, words wide each: out holds every vertex's out-neighbors
	// in the planning graph, held every token's holders, oneHop every
	// token's one-hop-knowledge vertices (out-neighbors of a holder that do
	// not hold it), and lacking every token's needers (wanters that do not
	// hold it). Set u of out starts at word u·words, set t of the others
	// at word t·words. Deliveries update held, oneHop and lacking; a
	// rebuild recomputes all four.
	words                      int
	out, held, oneHop, lacking []uint64
	// wanters[t] lists the vertices that want t in ascending order; wants
	// never change, so it is built once per run and seeds lacking on every
	// rebuild.
	wanters [][]int32
	// targets[t] caches token t's request targets in needer order. A token
	// has at most one target per needer, so each is carved from one
	// backing array with capacity len(wanters[t]).
	targets [][]int32
	// retargeted marks the tokens already recomputed from one step's
	// deliveries.
	//ocd:scratch
	retargeted tokenset.Set
	// BFS scratch. label[v] is the one-hop vertex that reached v first;
	// need, reached and picked are generation stamps (one generation per
	// recomputed token) marking needers, BFS-visited vertices and targets.
	//ocd:scratch
	label []int32
	//ocd:scratch
	need []uint32
	//ocd:scratch
	reached []uint32
	//ocd:scratch
	picked []uint32
	gen    uint32
	//ocd:scratch
	tokens []int
	//ocd:scratch
	needers []int32
	//ocd:scratch
	queue []int32
	moves []core.Move
}

func newBandwidth(inst *core.Instance, _ *rand.Rand) (sim.Strategy, error) {
	n, m := inst.N(), inst.NumTokens
	words := (n + 63) / 64
	b := &bandwidthStrategy{
		words:      words,
		out:        make([]uint64, n*words),
		held:       make([]uint64, m*words),
		oneHop:     make([]uint64, m*words),
		lacking:    make([]uint64, m*words),
		wanters:    make([][]int32, m),
		targets:    make([][]int32, m),
		retargeted: tokenset.New(m),
		label:      make([]int32, n),
		need:       make([]uint32, n),
		reached:    make([]uint32, n),
		picked:     make([]uint32, n),
		queue:      make([]int32, 0, n),
	}
	count := make([]int, m)
	total := 0
	for v := 0; v < n; v++ {
		inst.Want[v].ForEach(func(t int) bool {
			count[t]++
			total++
			return true
		})
	}
	wanted, targeted := make([]int32, total), make([]int32, total)
	off := 0
	for t, c := range count {
		b.wanters[t] = wanted[off : off : off+c]
		b.targets[t] = targeted[off : off : off+c]
		off += c
	}
	for v := 0; v < n; v++ {
		inst.Want[v].ForEach(func(t int) bool {
			b.wanters[t] = append(b.wanters[t], int32(v))
			return true
		})
	}
	return b, nil
}

func (b *bandwidthStrategy) Name() string { return "bandwidth" }

func (b *bandwidthStrategy) Plan(st *sim.State) []core.Move {
	if b.changes.Delta(st) {
		for _, mv := range st.Delivered {
			b.gain(mv.To, mv.Token)
		}
		b.retargeted.Clear()
		for _, mv := range st.Delivered {
			if !b.retargeted.Has(mv.Token) {
				b.retargeted.Add(mv.Token)
				b.retarget(st, mv.Token)
			}
		}
	} else {
		b.rebuild(st)
		for t := range b.targets {
			b.retarget(st, t)
		}
	}

	// Assign each (vertex, token) request, in token order, to a holder
	// in-neighbor with residual capacity, preferring the neighbor with the
	// most spare capacity so rare slots are saved for constrained arcs.
	inst := st.Inst
	b.rem.reset(inst.G)
	b.moves = b.moves[:0]
	for t, targets := range b.targets {
		for _, v := range targets {
			in := inst.G.In(int(v))
			inIDs := inst.G.InArcIDs(int(v))
			best, bestLeft := -1, 0
			var bestID int32
			for i, a := range in {
				if !st.Possess[a.From].Has(t) {
					continue
				}
				if l := b.rem.leftID(inIDs[i]); l > bestLeft {
					best, bestLeft, bestID = a.From, l, inIDs[i]
				}
			}
			if best == -1 {
				continue
			}
			b.rem.takeID(bestID)
			b.moves = append(b.moves, core.Move{From: best, To: int(v), Token: t})
		}
	}
	return b.moves
}

// gain records that u now holds t: u joins t's holders and leaves its
// needers, and u's out-neighbors that lack t become one-hop-knowledge
// vertices for it.
func (b *bandwidthStrategy) gain(u, t int) {
	w := b.words
	held, hop := b.held[t*w:(t+1)*w], b.oneHop[t*w:(t+1)*w]
	if held[u>>6]&(1<<(u&63)) != 0 {
		return
	}
	held[u>>6] |= 1 << (u & 63)
	b.lacking[t*w+u>>6] &^= 1 << (u & 63)
	for k, out := range b.out[u*w : (u+1)*w] {
		hop[k] = (hop[k] | out) &^ held[k]
	}
}

// rebuild recomputes the out-neighbor, holder, one-hop and needer sets
// from the planning graph, the wants and the current possession.
func (b *bandwidthStrategy) rebuild(st *sim.State) {
	g := st.Inst.G
	clear(b.out)
	clear(b.held)
	clear(b.oneHop)
	clear(b.lacking)
	for u := range st.Possess {
		for _, a := range g.Out(u) {
			b.out[u*b.words+a.To>>6] |= 1 << (a.To & 63)
		}
	}
	// Every wanter needs its tokens until gain finds it holding them.
	for t, wanters := range b.wanters {
		for _, v := range wanters {
			b.lacking[t*b.words+int(v)>>6] |= 1 << (v & 63)
		}
	}
	for u := range st.Possess {
		b.tokens = st.Possess[u].AppendTo(b.tokens[:0])
		for _, t := range b.tokens {
			b.gain(u, t)
		}
	}
}

// retarget recomputes token t's request targets from its current holders:
// each needer's closest one-hop-knowledge vertex, deduplicated in needer
// order.
func (b *bandwidthStrategy) retarget(st *sim.State, t int) {
	b.gen++
	if b.gen == 0 { // generation counter wrapped: reset the stamps
		clear(b.need)
		clear(b.reached)
		clear(b.picked)
		b.gen = 1
	}
	gen := b.gen
	// The needers in ascending order, as the wanters are listed.
	b.needers = b.needers[:0]
	for k, set := range b.lacking[t*b.words : (t+1)*b.words] {
		for ; set != 0; set &= set - 1 {
			v := int32(k<<6 | bits.TrailingZeros64(set))
			b.needers = append(b.needers, v)
			b.need[v] = gen
		}
	}
	targets := b.targets[t][:0]
	if len(b.needers) == 0 {
		b.targets[t] = targets
		return
	}
	// Seed the one-hop-knowledge vertices in ascending ID order, so
	// distance ties break toward lower IDs deterministically.
	left := len(b.needers)
	b.queue = b.queue[:0]
	for k, set := range b.oneHop[t*b.words : (t+1)*b.words] {
		for ; set != 0; set &= set - 1 {
			v := k<<6 | bits.TrailingZeros64(set)
			b.reached[v], b.label[v] = gen, int32(v)
			if b.need[v] == gen {
				left--
			}
			b.queue = append(b.queue, int32(v))
		}
	}
	// Labeled BFS. A vertex's label is final when it is first reached, so
	// the flood stops once every needer has one.
	g := st.Inst.G
	for head := 0; left > 0 && head < len(b.queue); head++ {
		u := b.queue[head]
		for _, a := range g.Out(int(u)) {
			if b.reached[a.To] != gen {
				b.reached[a.To], b.label[a.To] = gen, b.label[u]
				if b.need[a.To] == gen {
					left--
				}
				b.queue = append(b.queue, int32(a.To))
			}
		}
	}
	for _, d := range b.needers {
		if b.reached[d] != gen {
			continue // no one-hop vertex reaches this needer yet
		}
		// d itself if it is one-hop, else its closest one-hop vertex.
		if target := b.label[d]; b.picked[target] != gen {
			b.picked[target] = gen
			targets = append(targets, target)
		}
	}
	b.targets[t] = targets
}

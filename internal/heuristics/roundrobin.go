package heuristics

import (
	"math/rand"

	"ocd/internal/core"
	"ocd/internal/sim"
)

// RoundRobin builds the paper's simplest heuristic: each vertex cycles a
// circular queue of token IDs per outgoing arc, sending the next tokens it
// possesses up to the arc capacity. It needs no knowledge beyond the local
// token store and the per-arc cursor, and consequently re-sends tokens the
// peer already has and duplicates what other peers send (§5.1).
var RoundRobin sim.Factory = newRoundRobin

type roundRobin struct {
	// cursor holds, per arc ID, the token ID after the last one sent. It
	// persists across timesteps: every engine's step graph shares the base
	// graph's arc IDs.
	cursor []int
	//ocd:scratch
	toks  []int
	moves []core.Move
}

func newRoundRobin(inst *core.Instance, _ *rand.Rand) (sim.Strategy, error) {
	return &roundRobin{cursor: make([]int, inst.G.NumArcs())}, nil
}

func (r *roundRobin) Name() string { return "roundrobin" }

// Plan sends, on each out-arc, the next tokens the sender has in cyclic
// order from the arc's cursor, up to the arc's capacity, and moves the
// cursor past the last one sent. The set's word walk skips the tokens the
// sender lacks a word at a time, so an arc costs the tokens it sends, not
// a test per token of the queue.
func (r *roundRobin) Plan(st *sim.State) []core.Move {
	m := st.Inst.NumTokens
	moves := r.moves[:0]
	for u := 0; u < st.Inst.N(); u++ {
		have := st.Possess[u]
		if have.Empty() {
			continue
		}
		ids := st.Inst.G.OutArcIDs(u)
		for i, a := range st.Inst.G.Out(u) {
			id := ids[i]
			r.toks = have.AppendCyclic(r.toks[:0], r.cursor[id], a.Cap)
			for _, t := range r.toks {
				moves = append(moves, core.Move{From: u, To: a.To, Token: t})
			}
			if len(r.toks) > 0 {
				r.cursor[id] = (r.toks[len(r.toks)-1] + 1) % m
			}
		}
	}
	r.moves = moves
	return moves
}

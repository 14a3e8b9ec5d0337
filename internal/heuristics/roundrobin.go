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
	moves  []core.Move
}

func newRoundRobin(inst *core.Instance, _ *rand.Rand) (sim.Strategy, error) {
	return &roundRobin{cursor: make([]int, inst.G.NumArcs())}, nil
}

func (r *roundRobin) Name() string { return "roundrobin" }

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
			cur := r.cursor[id]
			sent := 0
			// One full cycle at most: skip tokens u does not have.
			for scanned := 0; scanned < m && sent < a.Cap; scanned++ {
				t := (cur + scanned) % m
				if !have.Has(t) {
					continue
				}
				moves = append(moves, core.Move{From: u, To: a.To, Token: t})
				sent++
				r.cursor[id] = (t + 1) % m
			}
		}
	}
	r.moves = moves
	return moves
}

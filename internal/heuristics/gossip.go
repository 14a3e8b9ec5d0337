package heuristics

import (
	"ocd/internal/core"
	"ocd/internal/sim"
	"ocd/internal/tokenset"
)

// gossip is ProtocolLocal's knowledge (§4.1): every vertex keeps one
// versioned row per vertex, what it believes that vertex holds and the
// turn the belief was current at, and merges its in- and out-neighbors'
// tables once per turn (the model lets knowledge flow against arc
// direction).
type gossip struct {
	n    int
	drop func(step, from, to int) bool
	// have[v·n + w] is v's belief about w's possession, current as of turn
	// version[v·n + w]; a vertex w that v never heard of holds nothing,
	// at version −1. Rows share their sets: a set is never written after it
	// becomes a row, so merging copies references.
	have    []tokenset.Set
	version []int
	// beforeHave and beforeVersion hold the tables as they stood before
	// this turn's exchange, so that every vertex merges its neighbors' old
	// rows (the exchange is simultaneous).
	beforeHave    []tokenset.Set
	beforeVersion []int
}

// newGossip gives every vertex the self-knowledge k_0(v): its own row at
// version 0.
func newGossip(inst *core.Instance, drop func(step, from, to int) bool) *gossip {
	n := inst.N()
	g := &gossip{n: n, drop: drop, have: make([]tokenset.Set, n*n), version: make([]int, n*n)}
	none := tokenset.New(inst.NumTokens)
	for i := range g.version {
		g.have[i], g.version[i] = none, -1
	}
	for v := 0; v < n; v++ {
		g.have[v*n+v] = inst.Have[v].Clone()
		g.version[v*n+v] = 0
	}
	return g
}

// exchange runs one turn of the protocol: k_i(v) is computed from the
// k_{i−1} of v and its neighbors, so nothing has been exchanged when
// timestep 0 is planned. Then every vertex refreshes its own row from
// ground truth, since a vertex always knows itself.
func (g *gossip) exchange(st *sim.State) {
	if st.Step > 0 {
		g.beforeHave = append(g.beforeHave[:0], g.have...)
		g.beforeVersion = append(g.beforeVersion[:0], g.version...)
		for v := 0; v < g.n; v++ {
			for _, a := range st.Inst.G.In(v) {
				g.merge(st.Step, a.From, v)
			}
			for _, a := range st.Inst.G.Out(v) {
				g.merge(st.Step, a.To, v)
			}
		}
	}
	for v, p := range st.Possess {
		i := v*g.n + v
		// Other tables may share the old row, so a change takes a copy.
		if !g.have[i].Equal(p) {
			g.have[i] = p.Clone()
		}
		g.version[i] = st.Step + 1
	}
}

// merge delivers u's table to v unless the turn's message u→v is dropped:
// v takes every row u had heard more recently.
func (g *gossip) merge(step, u, v int) {
	if g.drop != nil && g.drop(step, u, v) {
		return
	}
	from, to := g.beforeVersion[u*g.n:(u+1)*g.n], v*g.n
	for w, ver := range from {
		if ver > g.version[to+w] {
			g.version[to+w] = ver
			g.have[to+w] = g.beforeHave[u*g.n+w]
		}
	}
}

// Package locd formalizes the knowledge model of the Local-knowledge
// Overlay Content Distribution problem (§4.1): k_0(v) is a function of
// vertex v's immediate surroundings (neighbors, incident capacities, h(v),
// w(v)), and k_{i+1}(v) is computable from k_i(v) and the knowledge of v's
// neighbors — information travels bidirectionally along edges even when an
// edge is unidirectional, because "want" information flows back to the
// sender.
//
// The package computes how knowledge propagates and certifies the §4.2
// observation that after at most the knowledge diameter of the graph,
// every vertex can possess full information about the initial state — the
// basis of the additive-diameter online algorithm.
package locd

import (
	"ocd/internal/graph"
	"ocd/internal/tokenset"
)

// Propagate simulates §4.1 knowledge exchange for `steps` timesteps and
// returns know[i][v] = the set of vertices whose initial state v can have
// learned by the start of timestep i (know[0][v] = {v}). Knowledge crosses
// every edge in both directions once per timestep.
func Propagate(g *graph.Graph, steps int) [][]tokenset.Set {
	n := g.N()
	know := make([][]tokenset.Set, steps+1)
	know[0] = make([]tokenset.Set, n)
	for v := 0; v < n; v++ {
		know[0][v] = tokenset.New(n)
		know[0][v].Add(v)
	}
	for i := 1; i <= steps; i++ {
		know[i] = make([]tokenset.Set, n)
		for v := 0; v < n; v++ {
			next := know[i-1][v].Clone()
			for _, a := range g.In(v) {
				next.UnionWith(know[i-1][a.From])
			}
			for _, a := range g.Out(v) {
				next.UnionWith(know[i-1][a.To])
			}
			know[i][v] = next
		}
	}
	return know
}

// KnowledgeDiameter returns the diameter of the bidirectional knowledge
// graph (edges usable in both directions): the number of timesteps after
// which Propagate gives every vertex the initial state of every other, and
// so the listening delay of the §4.2 propagate-then-plan algorithm. It is
// 0 for n ≤ 1 and −1 when the knowledge graph is disconnected.
func KnowledgeDiameter(g *graph.Graph) int {
	// Build the undirected closure and reuse the graph diameter.
	u := graph.New(g.N())
	for _, a := range g.Arcs() {
		if !u.HasArc(a.From, a.To) {
			_ = u.AddArc(a.From, a.To, 1) // valid arcs by construction
		}
		if !u.HasArc(a.To, a.From) {
			_ = u.AddArc(a.To, a.From, 1)
		}
	}
	return u.Diameter()
}

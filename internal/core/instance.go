// Package core defines the Overlay Content Distribution problem exactly as
// formalized in §3.1 of the paper: a weighted directed graph, a token
// universe, per-vertex have/want sets, and distribution schedules made of
// per-timestep move sets subject to the Capacity and Possession constraints.
//
// It also implements the schedule machinery the evaluation section relies
// on: validation, metrics (makespan and bandwidth), the §5.1 pruning
// post-pass, and the §5.1 lower-bound estimators for remaining bandwidth
// and remaining timesteps.
package core

import (
	"errors"
	"fmt"

	"ocd/internal/graph"
	"ocd/internal/tokenset"
)

// Instance is an OCD problem instance (G, T, h, w).
type Instance struct {
	// G is the overlay graph; arc weights are per-timestep capacities.
	G *graph.Graph
	// NumTokens is |T|; tokens are identified by integers in [0, NumTokens).
	NumTokens int
	// Have holds h(v): the tokens vertex v initially possesses.
	Have []tokenset.Set
	// Want holds w(v): the tokens vertex v must eventually possess.
	Want []tokenset.Set
}

// NewInstance returns an instance over g with m tokens and empty have/want
// sets.
func NewInstance(g *graph.Graph, m int) *Instance {
	n := g.N()
	inst := &Instance{
		G:         g,
		NumTokens: m,
		Have:      make([]tokenset.Set, n),
		Want:      make([]tokenset.Set, n),
	}
	for v := 0; v < n; v++ {
		inst.Have[v] = tokenset.New(m)
		inst.Want[v] = tokenset.New(m)
	}
	return inst
}

// Clone returns a deep copy of the instance (sharing the immutable graph).
func (in *Instance) Clone() *Instance {
	c := &Instance{
		G:         in.G,
		NumTokens: in.NumTokens,
		Have:      make([]tokenset.Set, len(in.Have)),
		Want:      make([]tokenset.Set, len(in.Want)),
	}
	for v := range in.Have {
		c.Have[v] = in.Have[v].Clone()
		c.Want[v] = in.Want[v].Clone()
	}
	return c
}

// N returns the number of vertices.
func (in *Instance) N() int { return in.G.N() }

// Check verifies internal consistency: set universes match NumTokens and
// every token is initially possessed by at least one vertex if wanted.
func (in *Instance) Check() error {
	if in.G == nil {
		return errors.New("core: instance has nil graph")
	}
	if len(in.Have) != in.N() || len(in.Want) != in.N() {
		return fmt.Errorf("core: have/want length %d/%d != n=%d",
			len(in.Have), len(in.Want), in.N())
	}
	holders := tokenset.New(in.NumTokens)
	wanted := tokenset.New(in.NumTokens)
	for v := 0; v < in.N(); v++ {
		if in.Have[v].Universe() != in.NumTokens || in.Want[v].Universe() != in.NumTokens {
			return fmt.Errorf("core: vertex %d set universe != %d tokens", v, in.NumTokens)
		}
		holders.UnionWith(in.Have[v])
		wanted.UnionWith(in.Want[v])
	}
	if !wanted.SubsetOf(holders) {
		missing := wanted.Difference(holders)
		return fmt.Errorf("core: wanted tokens %v are held by no vertex", missing)
	}
	return nil
}

// Satisfiable reports whether every wanted token can reach every wanter,
// i.e. for each vertex v and token t ∈ w(v)\h(v) some holder of t reaches v.
func (in *Instance) Satisfiable() bool {
	return NewArrivals(in, nil).Satisfiable()
}

// Done reports whether possession already satisfies every want set.
func Done(inst *Instance, possess []tokenset.Set) bool {
	for v := range possess {
		if !inst.Want[v].SubsetOf(possess[v]) {
			return false
		}
	}
	return true
}

// InitialPossession returns a fresh copy of the have sets, the p_0 function
// of §3.1.
func (in *Instance) InitialPossession() []tokenset.Set {
	p := make([]tokenset.Set, in.N())
	for v := range p {
		p[v] = in.Have[v].Clone()
	}
	return p
}

// TheoremOneHorizon returns m·(n−1), the move (and hence timestep) horizon
// within which any satisfiable instance completes (Theorem 1).
func (in *Instance) TheoremOneHorizon() int {
	return in.NumTokens * (in.N() - 1)
}

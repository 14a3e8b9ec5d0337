// Package flow implements the classical network-flow machinery the paper
// positions OCD against (§2): Edmonds–Karp max-flow / min-cut over the
// overlay's capacities.
//
// Flow conservation does not hold in OCD — tokens are stored and
// duplicated — so flow does not *solve* the problem, but min-cuts still
// yield admissible bounds: every token a receiver is missing must cross
// the minimum cut separating the token's holders from the receiver, at
// most cut-capacity tokens per timestep. FlowMakespanLowerBound combines
// this with hop distance into a bound that is incomparable with (sometimes
// tighter than, sometimes looser than) the §5.1 radius bound, and the two
// compose by taking the maximum.
package flow

import (
	"fmt"

	"ocd/internal/core"
	"ocd/internal/graph"
)

// MaxFlow computes the maximum s→t flow value in g (arc weights as
// capacities) with Edmonds–Karp, and returns the flow value together with
// the source side of a minimum cut.
func MaxFlow(g *graph.Graph, s, t int) (int, []int, error) {
	n := g.N()
	if s < 0 || s >= n || t < 0 || t >= n {
		return 0, nil, fmt.Errorf("flow: endpoints (%d,%d) out of range n=%d", s, t, n)
	}
	if s == t {
		return 0, nil, fmt.Errorf("flow: source equals sink (%d)", s)
	}
	// Residual capacities: forward arcs seeded from g, reverse arcs at 0.
	residual := make(map[[2]int]int, 2*g.NumArcs())
	for _, a := range g.Arcs() {
		residual[[2]int{a.From, a.To}] += a.Cap
	}
	// Adjacency over the union of forward and reverse arcs.
	adj := make([][]int, n)
	seen := make(map[[2]int]bool, 2*g.NumArcs())
	addAdj := func(u, v int) {
		if !seen[[2]int{u, v}] {
			seen[[2]int{u, v}] = true
			adj[u] = append(adj[u], v)
		}
	}
	for _, a := range g.Arcs() {
		addAdj(a.From, a.To)
		addAdj(a.To, a.From)
	}

	total := 0
	parent := make([]int, n)
	for {
		// BFS for an augmenting path in the residual graph.
		for i := range parent {
			parent[i] = -2
		}
		parent[s] = -1
		queue := []int{s}
		for len(queue) > 0 && parent[t] == -2 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if parent[v] == -2 && residual[[2]int{u, v}] > 0 {
					parent[v] = u
					queue = append(queue, v)
				}
			}
		}
		if parent[t] == -2 {
			break
		}
		// Bottleneck along the path.
		bottleneck := -1
		for v := t; parent[v] != -1; v = parent[v] {
			r := residual[[2]int{parent[v], v}]
			if bottleneck == -1 || r < bottleneck {
				bottleneck = r
			}
		}
		for v := t; parent[v] != -1; v = parent[v] {
			residual[[2]int{parent[v], v}] -= bottleneck
			residual[[2]int{v, parent[v]}] += bottleneck
		}
		total += bottleneck
	}

	// Min cut: vertices reachable from s in the final residual graph.
	var cut []int
	mark := make([]bool, n)
	mark[s] = true
	queue := []int{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		cut = append(cut, u)
		for _, v := range adj[u] {
			if !mark[v] && residual[[2]int{u, v}] > 0 {
				mark[v] = true
				queue = append(queue, v)
			}
		}
	}
	return total, cut, nil
}

// MinCutToVertex returns the capacity of the minimum cut separating the
// merged holder set of token t from vertex v: the per-timestep ceiling on
// how fast copies of t (or any fixed token set held by exactly those
// holders) can stream toward v. Holders are merged with a virtual
// super-source connected by infinite-capacity arcs.
func MinCutToVertex(inst *core.Instance, holders []int, v int) (int, error) {
	n := inst.N()
	aug := graph.New(n + 1)
	super := n
	for _, a := range inst.G.Arcs() {
		if err := aug.AddArc(a.From, a.To, a.Cap); err != nil {
			return 0, err
		}
	}
	infinite := inst.G.NumArcs()*maxCap(inst.G) + 1
	for _, h := range holders {
		if h == v {
			continue
		}
		if err := aug.AddArc(super, h, infinite); err != nil {
			return 0, err
		}
	}
	value, _, err := MaxFlow(aug, super, v)
	return value, err
}

func maxCap(g *graph.Graph) int {
	m := 1
	for _, a := range g.Arcs() {
		if a.Cap > m {
			m = a.Cap
		}
	}
	return m
}

// FlowMakespanLowerBound is the min-cut bound on the remaining timesteps:
// for each vertex v missing k tokens, all k must cross the minimum cut
// separating the holders of v's missing tokens from v, at most cut
// tokens per step, and none can arrive before the hop distance from the
// nearest holder, the smallest d_t(v) of core.Arrivals. The bound is max
// over v of max(ceil(k/cut), dist).
//
// It is admissible, and incomparable with core.MakespanLowerBound: the
// radius bound sees in-capacity and token spread, the flow bound sees
// global bottleneck cuts. Take the maximum of the two for the sharpest
// cheap bound.
func FlowMakespanLowerBound(inst *core.Instance) (int, error) {
	arrivals := core.NewArrivals(inst, nil)
	best := 0
	for v := 0; v < inst.N(); v++ {
		missing := inst.Want[v].Difference(inst.Have[v])
		k := missing.Count()
		if k == 0 {
			continue
		}
		// Holders of any missing token (merged: the cut must pass all k
		// tokens regardless of which holder sources them).
		var holders []int
		for u := 0; u < inst.N(); u++ {
			if u != v && inst.Have[u].Intersects(missing) {
				holders = append(holders, u)
			}
		}
		if len(holders) == 0 {
			continue // unsatisfiable vertex; Satisfiable() reports it
		}
		cut, err := MinCutToVertex(inst, holders, v)
		if err != nil {
			return 0, err
		}
		if cut == 0 {
			continue
		}
		bound := (k + cut - 1) / cut
		if d := arrivals.Nearest(v); d > bound {
			bound = d
		}
		if bound > best {
			best = bound
		}
	}
	return best, nil
}

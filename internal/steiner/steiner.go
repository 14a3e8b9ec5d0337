// Package steiner implements the Steiner-tree machinery §3.3 relates to
// EOCD: distributing one token with minimum bandwidth is exactly a
// generalized Steiner tree from the token's sources to its wanters over
// unit-cost arcs (multiple sources are handled with the paper's 0-cost
// merge trick, realized here as a virtual root).
//
// The package provides both sides of that tree. ForestBound is the lower
// side: per token, the fewest arcs of a forest rooted at the token's
// holders that reaches every wanter lacking it, computed exactly by the
// Dreyfus–Wagner dynamic program. internal/exact and internal/ilp certify
// and prune their EOCD searches with it. The upper side is the classical
// metric-closure 2-approximation and a serial per-token schedule builder
// that realizes §3.3's observation that optimal bandwidth is achievable by
// distributing each token serially over its tree (at the price of many
// timesteps).
package steiner

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"ocd/internal/core"
	"ocd/internal/graph"
	"ocd/internal/tokenset"
)

// ErrUnreachable indicates some terminal cannot be reached from any source.
var ErrUnreachable = errors.New("steiner: terminal unreachable from sources")

// Tree is a set of arcs forming an out-tree (or forest rooted at the
// sources) covering all terminals.
type Tree struct {
	Arcs []graph.Arc
}

// Cost returns the number of arcs (unit-cost bandwidth of one token).
func (t *Tree) Cost() int { return len(t.Arcs) }

// Approximate computes a Steiner tree connecting sources to every terminal
// using the metric-closure 2-approximation: build shortest-path distances
// from the (virtually merged) sources and between terminals, take a minimum
// spanning tree of the metric closure over {root} ∪ terminals, and expand
// its edges into shortest paths, de-duplicating shared arcs.
func Approximate(g *graph.Graph, sources, terminals []int) (*Tree, error) {
	if len(sources) == 0 {
		return nil, errors.New("steiner: no sources")
	}
	// Hop distances from the merged source set.
	srcDist, srcPrev := multiSourceBFS(g, sources)
	for _, t := range terminals {
		if srcDist[t] < 0 {
			return nil, fmt.Errorf("%w: terminal %d", ErrUnreachable, t)
		}
	}

	// Nodes of the metric closure: virtual root (−1) plus terminals.
	type edge struct {
		u, v int // closure endpoints; −1 is the root
		w    int
	}
	var edges []edge
	for _, t := range terminals {
		edges = append(edges, edge{u: -1, v: t, w: srcDist[t]})
	}
	termDist := make(map[int][]int, len(terminals))
	termPrev := make(map[int][]int, len(terminals))
	for _, t := range terminals {
		d, prev := singleSourceBFS(g, t)
		termDist[t] = d
		termPrev[t] = prev
	}
	for i, a := range terminals {
		for _, b := range terminals[i+1:] {
			if d := termDist[a][b]; d >= 0 {
				edges = append(edges, edge{u: a, v: b, w: d})
			}
			if d := termDist[b][a]; d >= 0 {
				edges = append(edges, edge{u: b, v: a, w: d})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].w < edges[j].w })

	// Prim-like growth from the root over the closure, directed outward.
	inTree := map[int]bool{-1: true}
	arcSet := make(map[[2]int]bool)
	for len(inTree) < len(terminals)+1 {
		grown := false
		for _, e := range edges {
			if inTree[e.u] && !inTree[e.v] {
				// Expand e into graph arcs along the shortest path.
				var path [][2]int
				if e.u == -1 {
					path = walk(srcPrev, e.v)
				} else {
					path = walkFrom(termPrev[e.u], e.v)
				}
				for _, arc := range path {
					arcSet[arc] = true
				}
				inTree[e.v] = true
				grown = true
				break
			}
		}
		if !grown {
			return nil, fmt.Errorf("%w: closure disconnected", ErrUnreachable)
		}
	}

	arcs := make([]graph.Arc, 0, len(arcSet))
	for arc := range arcSet {
		arcs = append(arcs, graph.Arc{From: arc[0], To: arc[1], Cap: g.Cap(arc[0], arc[1])})
	}
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].From != arcs[j].From {
			return arcs[i].From < arcs[j].From
		}
		return arcs[i].To < arcs[j].To
	})
	return &Tree{Arcs: arcs}, nil
}

// multiSourceBFS returns distances and BFS predecessors from a merged
// source set, following arc direction.
func multiSourceBFS(g *graph.Graph, sources []int) (dist, prev []int) {
	n := g.N()
	dist = make([]int, n)
	prev = make([]int, n)
	for i := range dist {
		dist[i] = -1
		prev[i] = -1
	}
	var queue []int
	for _, s := range sources {
		if dist[s] == -1 {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range g.Out(u) {
			if dist[a.To] == -1 {
				dist[a.To] = dist[u] + 1
				prev[a.To] = u
				queue = append(queue, a.To)
			}
		}
	}
	return dist, prev
}

func singleSourceBFS(g *graph.Graph, src int) (dist, prev []int) {
	return multiSourceBFS(g, []int{src})
}

// walk reconstructs the arc list from a BFS predecessor array down to v.
func walk(prev []int, v int) [][2]int {
	var arcs [][2]int
	for prev[v] != -1 {
		arcs = append(arcs, [2]int{prev[v], v})
		v = prev[v]
	}
	return arcs
}

func walkFrom(prev []int, v int) [][2]int { return walk(prev, v) }

// SerialSchedule realizes §3.3: distribute each token serially over its
// (approximate) Steiner tree — bandwidth near-optimal, makespan awful. The
// returned schedule moves one token along one tree level per timestep,
// token after token.
func SerialSchedule(inst *core.Instance) (*core.Schedule, error) {
	sched := &core.Schedule{}
	for t := 0; t < inst.NumTokens; t++ {
		var sources, terminals []int
		for v := 0; v < inst.N(); v++ {
			if inst.Have[v].Has(t) {
				sources = append(sources, v)
			}
			if inst.Want[v].Has(t) && !inst.Have[v].Has(t) {
				terminals = append(terminals, v)
			}
		}
		if len(terminals) == 0 {
			continue
		}
		tree, err := Approximate(inst.G, sources, terminals)
		if err != nil {
			return nil, fmt.Errorf("token %d: %w", t, err)
		}
		appendTreeSchedule(sched, inst, tree, t, sources)
	}
	return sched, nil
}

// appendTreeSchedule appends the level-by-level distribution of token t
// over the tree to the schedule.
func appendTreeSchedule(sched *core.Schedule, inst *core.Instance, tree *Tree, t int, sources []int) {
	has := make([]bool, inst.N())
	for _, s := range sources {
		has[s] = true
	}
	remaining := append([]graph.Arc(nil), tree.Arcs...)
	for len(remaining) > 0 {
		var step core.Step
		var rest []graph.Arc
		for _, a := range remaining {
			if has[a.From] && !has[a.To] {
				step = append(step, core.Move{From: a.From, To: a.To, Token: t})
			} else {
				rest = append(rest, a)
			}
		}
		if len(step) == 0 {
			// Arcs whose heads are already covered (shared-path overlap) or
			// unreachable leftovers; drop them.
			break
		}
		for _, mv := range step {
			has[mv.To] = true
		}
		sched.Append(step)
		remaining = rest
	}
}

// exactTerminals is the most lacking wanters a token may have for
// ForestBound to run Dreyfus–Wagner on it, whose table has 2^k rows.
// Above it the bound falls back to max(k, farthest terminal).
const exactTerminals = 10

// unreached stands for an infinite distance or forest cost; three of them
// still add up without overflow.
const unreached = math.MaxInt / 4

// ForestBound computes the §3.3 lower bound on the moves that remain from
// a possession: for each token t, the fewest arcs in a forest rooted at
// t's holders that reaches every wanter lacking t, summed over tokens.
//
// The bound is admissible at any horizon and any capacity. Trace each
// such wanter's delivering move back to a vertex that held t, and the
// first move into each vertex on the way forms a forest of that kind,
// one in-arc per vertex it reaches, so every schedule that completes
// makes at least as many moves. It is never below the §5.1 count
// (core.BandwidthLowerBound), since each lacking wanter needs its own
// in-arc.
//
// A token with k ≥ 2 lacking wanters costs one Dreyfus–Wagner table
// (Networks 1971) over a virtual root joined to every holder by a
// zero-cost arc: O(3^k·n + 2^k·n²). One lacking wanter costs its distance
// from the nearest holder. Above exactTerminals lacking wanters the token
// costs max(k, farthest terminal), which is admissible but not exact.
//
// A ForestBound holds the hop-distance table of its instance and the
// scratch of the table, sized once, so Bound does not allocate. It is not
// safe for concurrent use.
type ForestBound struct {
	inst *core.Instance
	n    int
	// hops[u·n+v] is the hop distance from u to v, −1 when unreachable.
	hops []int
	// Scratch for one token: its lacking wanters, the hops from its
	// nearest holder to each vertex, the Dreyfus–Wagner table (one row of
	// n+1 costs per terminal subset, the virtual root last) and one row of
	// split costs.
	terms []int
	near  []int
	table []int
	split []int
}

// NewForestBound returns a ForestBound for inst, with its hop-distance
// table and scratch.
func NewForestBound(inst *core.Instance) *ForestBound {
	n := inst.N()
	f := &ForestBound{
		inst:  inst,
		n:     n,
		hops:  make([]int, n*n),
		terms: make([]int, 0, n),
		near:  make([]int, n),
		split: make([]int, n+1),
	}
	// No token has more lacking wanters than wanters.
	k := 0
	for t := 0; t < inst.NumTokens; t++ {
		wanters := 0
		for v := 0; v < n; v++ {
			if inst.Want[v].Has(t) {
				wanters++
			}
		}
		k = max(k, wanters)
	}
	if k = min(k, exactTerminals); k >= 2 {
		f.table = make([]int, (1<<k)*(n+1))
	}
	queue := make([]int, n)
	for u := 0; u < n; u++ {
		dist := f.hops[u*n : (u+1)*n]
		for v := range dist {
			dist[v] = -1
		}
		dist[u] = 0
		queue[0] = u
		for head, tail := 0, 1; head < tail; head++ {
			x := queue[head]
			for _, a := range inst.G.Out(x) {
				if dist[a.To] == -1 {
					dist[a.To] = dist[x] + 1
					queue[tail] = a.To
					tail++
				}
			}
		}
	}
	return f
}

// Bound returns the forest bound from possess, the possession of every
// vertex. It reports false when some wanter lacking a token cannot be
// reached from any holder of it: then no schedule completes.
func (f *ForestBound) Bound(possess []tokenset.Set) (int, bool) {
	total := 0
	for t := 0; t < f.inst.NumTokens; t++ {
		cost, ok := f.token(possess, t)
		if !ok {
			return 0, false
		}
		total += cost
	}
	return total, true
}

// token returns the cost of token t's minimum forest from possess, and
// false if a lacking wanter is unreachable.
func (f *ForestBound) token(possess []tokenset.Set, t int) (int, bool) {
	n := f.n
	f.terms = f.terms[:0]
	for v := 0; v < n; v++ {
		if f.inst.Want[v].Has(t) && !possess[v].Has(t) {
			f.terms = append(f.terms, v)
		}
	}
	k := len(f.terms)
	if k == 0 {
		return 0, true
	}
	for v := range f.near {
		f.near[v] = unreached
	}
	for h := 0; h < n; h++ {
		if !possess[h].Has(t) {
			continue
		}
		for v, d := range f.hops[h*n : (h+1)*n] {
			if d >= 0 && d < f.near[v] {
				f.near[v] = d
			}
		}
	}
	far := 0
	for _, w := range f.terms {
		if f.near[w] == unreached {
			return 0, false
		}
		far = max(far, f.near[w])
	}
	switch {
	case k == 1:
		return far, true
	case k > exactTerminals:
		return max(k, far), true
	}
	return f.dreyfusWagner(), true
}

// dreyfusWagner returns the cost of the cheapest forest rooted at the
// holders that reaches every terminal in f.terms, from f.near. Row S of
// the table holds, for each vertex v, the cheapest tree rooted at v that
// reaches the terminal subset S, and in column n the cheapest forest
// rooted at the holders, that is, a tree from the virtual root r whose
// arcs to the holders cost nothing, so that d(r, u) = near[u]. A singleton
// costs the distance to its terminal. A larger S branches somewhere: the
// tree runs from its root along a path to the first vertex u that is a
// terminal or has two children, and splits S there into two non-empty
// parts, each reached by a tree rooted at u.
func (f *ForestBound) dreyfusWagner() int {
	n, k := f.n, len(f.terms)
	w, full := n+1, 1<<k-1
	row := func(s int) []int { return f.table[s*w : (s+1)*w] }
	for i, term := range f.terms {
		r := row(1 << i)
		for v := 0; v < n; v++ {
			r[v] = unreached
			if d := f.hops[v*n+term]; d >= 0 {
				r[v] = d
			}
		}
		r[n] = f.near[term]
	}
	for s := 3; s <= full; s++ {
		if s&(s-1) == 0 {
			continue // a singleton
		}
		// split[u]: the cheapest two trees rooted at u that together
		// reach s, each split listed once by the part holding s's
		// lowest terminal.
		for u := range f.split {
			f.split[u] = unreached
		}
		low := s & -s
		for part := (s - 1) & s; part > 0; part = (part - 1) & s {
			if part&low == 0 {
				continue
			}
			a, b := row(part), row(s^part)
			for u, c := range a {
				f.split[u] = min(f.split[u], c+b[u])
			}
		}
		r := row(s)
		if s < full { // only the root's forest of the full set is read
			for v := 0; v < n; v++ {
				best := unreached
				for u, d := range f.hops[v*n : (v+1)*n] {
					if d >= 0 {
						best = min(best, d+f.split[u])
					}
				}
				r[v] = best
			}
		}
		best := f.split[n]
		for u := 0; u < n; u++ {
			best = min(best, f.near[u]+f.split[u])
		}
		r[n] = best
	}
	return row(full)[n]
}

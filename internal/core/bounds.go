package core

import "ocd/internal/tokenset"

// BandwidthLowerBound returns the §5.1 remaining-bandwidth bound: every
// token that is wanted but not possessed requires at least one move, so the
// bound is Σ_v |w(v) \ p(v)|. With possess == nil the instance's initial
// possession is used.
func BandwidthLowerBound(inst *Instance, possess []tokenset.Set) int {
	if possess == nil {
		possess = inst.Have
	}
	total := 0
	for v := 0; v < inst.N(); v++ {
		total += inst.Want[v].DifferenceCount(possess[v])
	}
	return total
}

// MakespanLowerBound returns the §5.1 radius-closure bound on the remaining
// number of timesteps. For a vertex v and radius i, let k_i(v) be the number
// of tokens v wants that no vertex within distance i of v possesses. Those
// tokens cannot start arriving before timestep i+1, and all of v's missing
// tokens must cross v's in-arcs at no more than InCapacity(v) per step, so
//
//	M_i(v) = i + ceil(k_i(v) / InCapacity(v))
//
// is admissible (the paper divides by indegree; dividing by in-capacity
// keeps the bound admissible when capacities exceed one). The bound is
// max over v and i with k_i(v) > 0, read off an Arrivals table. With
// possess == nil the initial possession is used.
func MakespanLowerBound(inst *Instance, possess []tokenset.Set) int {
	return NewArrivals(inst, possess).Bound()
}

// Arrivals is the per-token arrival-distance table behind the §5.1
// makespan bound. For every token t that some vertex is missing it holds
// d_t(v), the hop distance from the nearest holder of t to v, which is all
// the bound needs: k_i(v) counts v's missing tokens with d_t(v) > i.
// Tokens with the same holder set form a holder group and share one
// forward multi-source BFS, so a single-file instance costs one BFS
// instead of one per receiver, and a query about v costs one intersection
// count per group.
//
// A table is built for one instance and refilled in place by Refresh. Once
// its buffers have grown, Refresh and the queries allocate nothing, except
// that M(v) of a vertex missing a token no holder reaches runs one
// Graph.BFSTo. A table is not safe for concurrent use.
type Arrivals struct {
	inst    *Instance
	possess []tokenset.Set
	// Holder group r holds the tokens members[r]; group[t] is token t's
	// group, or -1 when no vertex misses t. dist[r*n+v] is the distance
	// from group r's nearest holder to v, or -1 when no holder reaches v.
	rows    int
	members []tokenset.Set
	group   []int32
	dist    []int32
	// classes is the partition-refinement tree Refresh groups tokens
	// with; queue, hist, tokens and the sets are per-call scratch.
	classes []class
	queue   []int32
	hist    []int32
	tokens  []int
	needed  tokenset.Set
	scratch tokenset.Set
}

// class is one node of the refinement tree: the tokens held by exactly
// the vertices on its path from the root. A class splits off a child at
// vertex u for its tokens that u holds.
type class struct {
	parent, vertex int32 // the class split from and the holder added
	child, stamp   int32 // the child split off at vertex stamp-1
	size           int32 // tokens currently in the class
	row            int32 // the holder group's row, for non-empty classes
}

// NewArrivals returns the arrival table of inst under possession possess
// (nil = the initial possession).
func NewArrivals(inst *Instance, possess []tokenset.Set) *Arrivals {
	n, m := inst.N(), inst.NumTokens
	a := &Arrivals{
		inst:    inst,
		group:   make([]int32, m),
		queue:   make([]int32, 0, n),
		hist:    make([]int32, n),
		needed:  tokenset.New(m),
		scratch: tokenset.New(m),
	}
	a.Refresh(possess)
	return a
}

// Refresh recomputes the table in place for possession possess (nil = the
// initial possession). The queries read possess, so it must not change
// until the next Refresh.
func (a *Arrivals) Refresh(possess []tokenset.Set) {
	inst := a.inst
	if possess == nil {
		possess = inst.Have
	}
	a.possess = possess
	n := inst.N()
	// Only tokens some vertex misses enter the bound.
	a.needed.Clear()
	for v := 0; v < n; v++ {
		a.scratch.SetDifference(inst.Want[v], possess[v])
		a.needed.UnionWith(a.scratch)
	}
	for t := range a.group {
		a.group[t] = -1
	}
	a.tokens = a.needed.AppendTo(a.tokens[:0])
	a.classes = append(a.classes[:0], class{parent: -1, vertex: -1, size: int32(len(a.tokens))})
	for _, t := range a.tokens {
		a.group[t] = 0
	}
	// Refine the one class of needed tokens by every vertex's possession
	// in turn: each token moves to its class's child at every holder, so
	// the leaves that keep tokens are exactly the holder groups.
	for u := 0; u < n; u++ {
		a.scratch.SetIntersection(possess[u], a.needed)
		a.tokens = a.scratch.AppendTo(a.tokens[:0])
		for _, t := range a.tokens {
			c := a.group[t]
			if a.classes[c].stamp != int32(u+1) {
				a.classes[c].stamp = int32(u + 1)
				a.classes[c].child = int32(len(a.classes))
				a.classes = append(a.classes, class{parent: c, vertex: int32(u)})
			}
			child := a.classes[c].child
			a.classes[c].size--
			a.classes[child].size++
			a.group[t] = child
		}
	}
	a.rows = 0
	for c := range a.classes {
		if a.classes[c].size > 0 {
			a.classes[c].row = int32(a.rows)
			a.rows++
		}
	}
	for len(a.members) < a.rows {
		a.members = append(a.members, tokenset.New(inst.NumTokens))
	}
	if need := a.rows * n; cap(a.dist) < need {
		a.dist = make([]int32, need)
	} else {
		a.dist = a.dist[:need]
	}
	for c := range a.classes {
		if a.classes[c].size > 0 {
			a.members[a.classes[c].row].Clear()
			a.spread(int32(c))
		}
	}
	for t, c := range a.group {
		if c >= 0 {
			r := a.classes[c].row
			a.group[t] = r
			a.members[r].Add(t)
		}
	}
}

// spread fills class c's row of dist by one forward BFS from its holders,
// the vertices on the class's path to the refinement root.
func (a *Arrivals) spread(c int32) {
	g := a.inst.G
	n := g.N()
	dist := a.dist[int(a.classes[c].row)*n:][:n]
	for v := range dist {
		dist[v] = -1
	}
	a.queue = a.queue[:0]
	for h := c; h > 0; h = a.classes[h].parent {
		u := a.classes[h].vertex
		dist[u] = 0
		a.queue = append(a.queue, u)
	}
	for i := 0; i < len(a.queue); i++ {
		u := a.queue[i]
		for _, arc := range g.Out(int(u)) {
			if dist[arc.To] == -1 {
				dist[arc.To] = dist[u] + 1
				a.queue = append(a.queue, int32(arc.To))
			}
		}
	}
}

// Dist returns d_t(v), the hop distance from the nearest holder of token t
// to v, or -1 when no holder of t reaches v. The table keeps distances
// only for tokens some vertex is missing; it reports -1 for any other.
func (a *Arrivals) Dist(t, v int) int {
	r := a.group[t]
	if r < 0 {
		return -1
	}
	return int(a.dist[int(r)*a.inst.N()+v])
}

// missing leaves v's missing tokens, w(v) \ p(v), in a.scratch and reports
// whether there are any.
func (a *Arrivals) missing(v int) bool {
	a.scratch.SetDifference(a.inst.Want[v], a.possess[v])
	return !a.scratch.Empty()
}

// Receiver returns M(v) = max_i (i + ceil(k_i(v) / InCapacity(v))) over the
// radii i with k_i(v) > 0: v's own term of the makespan bound. It is 0 when
// v misses nothing and the Theorem 1 horizon when v misses a token but has
// no in-capacity, since no finite bound exists then.
func (a *Arrivals) Receiver(v int) int {
	if !a.missing(v) {
		return 0
	}
	inCap := a.inst.G.InCapacity(v)
	if inCap == 0 {
		return a.inst.TheoremOneHorizon()
	}
	// hist[d] counts the missing tokens at distance d ≥ 1 (v holds none of
	// them); lost counts those no holder reaches.
	n := a.inst.N()
	far, lost := 0, 0
	for r := 0; r < a.rows; r++ {
		k := a.scratch.IntersectionCount(a.members[r])
		if k == 0 {
			continue
		}
		if d := a.dist[r*n+v]; d < 0 {
			lost += k
		} else {
			a.hist[d] += int32(k)
			far = max(far, int(d))
		}
	}
	best := 0
	if lost > 0 {
		// The unreachable tokens stay in k_i up to the largest radius at
		// which any vertex reaches v, where they are all that is left.
		reach := 0
		for _, d := range a.inst.G.BFSTo(v) {
			reach = max(reach, d)
		}
		best = reach + (lost+inCap-1)/inCap
	}
	// k_i is constant between distances, so walking i down from the
	// farthest token visits every term.
	k := lost
	for i := far - 1; i >= 0; i-- {
		k += int(a.hist[i+1])
		a.hist[i+1] = 0
		best = max(best, i+(k+inCap-1)/inCap)
	}
	return best
}

// Bound returns max_v M(v), the §5.1 makespan bound MakespanLowerBound
// returns, or the Theorem 1 horizon when a vertex misses a token but has no
// in-capacity.
func (a *Arrivals) Bound() int {
	best := 0
	for v := range a.possess {
		m := a.Receiver(v)
		if m > 0 && a.inst.G.InCapacity(v) == 0 {
			return m
		}
		best = max(best, m)
	}
	return best
}

// Stranded reports whether v misses a token that no holder reaches.
func (a *Arrivals) Stranded(v int) bool {
	if !a.missing(v) {
		return false
	}
	n := a.inst.N()
	for r := 0; r < a.rows; r++ {
		if a.dist[r*n+v] < 0 && a.scratch.Intersects(a.members[r]) {
			return true
		}
	}
	return false
}

// Satisfiable reports whether no vertex is stranded: every missing token
// can still reach every vertex that misses it.
func (a *Arrivals) Satisfiable() bool {
	for v := range a.possess {
		if a.Stranded(v) {
			return false
		}
	}
	return true
}

// Nearest returns the smallest d_t(v) over v's missing tokens t that some
// holder reaches, or -1 when there is none.
func (a *Arrivals) Nearest(v int) int {
	best := -1
	if !a.missing(v) {
		return best
	}
	n := a.inst.N()
	for r := 0; r < a.rows; r++ {
		d := int(a.dist[r*n+v])
		if d >= 0 && (best < 0 || d < best) && a.scratch.Intersects(a.members[r]) {
			best = d
		}
	}
	return best
}

// OneStepRetrievable returns, for vertex v, the tokens that could arrive in
// a single timestep given current possession: the union of the possession
// of v's in-neighbors. This is the "one-hop-knowledge" notion of §5.1 used
// by the Bandwidth heuristic and the special-case one-step lookahead bound.
func OneStepRetrievable(inst *Instance, possess []tokenset.Set, v int) tokenset.Set {
	out := tokenset.New(inst.NumTokens)
	for _, a := range inst.G.In(v) {
		out.UnionWith(possess[a.From])
	}
	return out
}

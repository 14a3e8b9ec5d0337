// Package graph implements the simple weighted directed graphs over which
// the Overlay Content Distribution problem is defined (paper §3.1).
//
// Arc weights are capacities: the number of tokens that can cross the arc in
// a single timestep. Multi-arcs are merged by summing capacities, as the
// paper permits. The package also provides the reachability machinery the
// heuristics and lower bounds need: BFS distance fields, all-pairs
// distances and diameter.
package graph

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Arc is a directed capacitated edge.
type Arc struct {
	From int
	To   int
	Cap  int
}

// Graph is a simple directed graph with integer arc capacities.
// Construct with New and AddArc; the accessor methods are read-only and
// safe for concurrent use once construction is complete.
//
// Every distinct arc is assigned a dense arc ID in [0, NumArcs()) at
// insertion time. The IDs let per-timestep engines keep arc-indexed state
// (residual capacity, usage counters) in flat slices instead of maps — the
// simulation hot path allocates nothing per arc lookup. IDs are stable for
// the lifetime of the graph and deterministic for a deterministic
// construction order. A View's graph shares its base's IDs.
type Graph struct {
	n        int
	out      [][]Arc
	in       [][]Arc
	outID    [][]int32
	inID     [][]int32
	ids      map[uint64]int32 // arcKey(u, v) → arc ID
	capsByID []int
	// view marks the read-only graph of a View: AddArc is rejected and
	// arcs whose capacity is 0 are masked out of every accessor.
	view bool
	// arcGen counts a View's changes to its set of present arcs (see
	// ArcGeneration).
	arcGen uint64
}

// arcKey packs an in-range vertex pair into the ID index's key.
func arcKey(u, v int) uint64 { return uint64(u)<<32 | uint64(v) }

// ErrVertexRange indicates an arc endpoint outside [0, n).
var ErrVertexRange = errors.New("graph: vertex out of range")

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{
		n:     n,
		out:   make([][]Arc, n),
		in:    make([][]Arc, n),
		outID: make([][]int32, n),
		inID:  make([][]int32, n),
		ids:   make(map[uint64]int32),
	}
}

// AddArc inserts the directed arc u→v with the given capacity. Adding an arc
// that already exists merges capacities by summation (multi-arc rule, §3.1).
// Self-loops, non-positive capacities and arcs added to a View's graph are
// rejected.
func (g *Graph) AddArc(u, v, capacity int) error {
	if g.view {
		return fmt.Errorf("graph: AddArc(%d,%d) on a read-only capacity view", u, v)
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("%w: (%d,%d) with n=%d", ErrVertexRange, u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop (%d,%d) not allowed", u, v)
	}
	if capacity <= 0 {
		return fmt.Errorf("graph: capacity %d on (%d,%d) must be positive", capacity, u, v)
	}
	key := arcKey(u, v)
	if id, ok := g.ids[key]; ok {
		merged := g.capsByID[id] + capacity
		g.capsByID[id] = merged
		g.setListCap(u, v, merged)
		return nil
	}
	id := int32(len(g.capsByID))
	g.ids[key] = id
	g.capsByID = append(g.capsByID, capacity)
	g.out[u] = append(g.out[u], Arc{From: u, To: v, Cap: capacity})
	g.in[v] = append(g.in[v], Arc{From: u, To: v, Cap: capacity})
	g.outID[u] = append(g.outID[u], id)
	g.inID[v] = append(g.inID[v], id)
	return nil
}

// AddEdge inserts both u→v and v→u with the same capacity.
func (g *Graph) AddEdge(u, v, capacity int) error {
	if err := g.AddArc(u, v, capacity); err != nil {
		return err
	}
	return g.AddArc(v, u, capacity)
}

func (g *Graph) setListCap(u, v, capacity int) {
	for i := range g.out[u] {
		if g.out[u][i].To == v {
			g.out[u][i].Cap = capacity
			break
		}
	}
	for i := range g.in[v] {
		if g.in[v][i].From == u {
			g.in[v][i].Cap = capacity
			break
		}
	}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// NumArcs returns the number of distinct directed arcs — the size of the
// arc-ID space. A View's graph counts its masked arcs too, since it shares
// its base's IDs.
func (g *Graph) NumArcs() int { return len(g.capsByID) }

// lookup returns the ID of arc u→v, or -1 if the arc does not exist or is
// masked. A base graph's capacities are always positive, so only a view
// masks anything.
func (g *Graph) lookup(u, v int) int32 {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return -1
	}
	id, ok := g.ids[arcKey(u, v)]
	if !ok || g.capsByID[id] <= 0 {
		return -1
	}
	return id
}

// Cap returns the capacity of arc u→v, or 0 if the arc does not exist.
func (g *Graph) Cap(u, v int) int {
	id := g.lookup(u, v)
	if id < 0 {
		return 0
	}
	return g.capsByID[id]
}

// HasArc reports whether the arc u→v exists.
func (g *Graph) HasArc(u, v int) bool { return g.lookup(u, v) >= 0 }

// ArcID returns the dense arc ID of u→v in [0, NumArcs()), or -1 if the
// arc does not exist. IDs are assigned in insertion order and never change.
func (g *Graph) ArcID(u, v int) int { return int(g.lookup(u, v)) }

// ArcRun resolves the arcs of a sequence of moves, looking an arc up only
// when its (From, To) pair differs from the previous call's. Strategies
// propose their moves in runs on one arc and schedules keep those runs, so
// an admission or replay loop that holds one ArcRun as a local pays one
// lookup per run instead of one per move. Runs from one tail mostly follow
// its out-list (Round Robin and Random propose in the order of their step
// graph's Out(u), which a View lists as a subsequence of the base's), so a
// new head of the same tail is first looked for further along Out(u) and
// only then in the ID index; a tail change always goes to the index. It
// has resolved no pair when made, so its first call always looks up. The
// graph must not change while an ArcRun of it is in use.
type ArcRun struct {
	g        *Graph
	from, to int
	id       int
	resolved bool
	// next is where in Out(from) the next head of the same tail is looked
	// for: just past the arc a scan found last, or 0 after an index lookup.
	next int
}

// ArcRun returns a run resolver over g that has resolved no pair yet.
func (g *Graph) ArcRun() ArcRun { return ArcRun{g: g} }

// ID returns ArcID(u, v), reusing the previous answer while (u, v) is the
// pair it last resolved.
func (r *ArcRun) ID(u, v int) int {
	if r.resolved && u == r.from && v == r.to {
		return r.id
	}
	return r.resolve(u, v)
}

// resolve answers a new pair: along the rest of the tail's out-list when
// the tail is the one resolved last, else, or when that misses, from the
// ID index. Kept out of ID so that the common case, a repeated pair,
// inlines into the caller's loop.
func (r *ArcRun) resolve(u, v int) int {
	if r.resolved && u == r.from && u >= 0 && u < r.g.n {
		out := r.g.out[u]
		for j := r.next; j < len(out); j++ {
			if out[j].To == v {
				r.to, r.id, r.next = v, int(r.g.outID[u][j]), j+1
				return r.id
			}
		}
	}
	r.from, r.to, r.id, r.resolved, r.next = u, v, r.g.ArcID(u, v), true, 0
	return r.id
}

// ArcGeneration returns a counter that a View's Refresh advances whenever
// it masks or unmasks an arc; a graph under construction is not planned
// against, so AddArc leaves it alone. A capacity change on an arc that
// stays present leaves it alone too, so state derived from the adjacency
// lists alone (in-arc positions, BFS layers) is still valid while the
// graph and its generation are.
func (g *Graph) ArcGeneration() uint64 { return g.arcGen }

// CapByID returns the capacity of the arc with the given dense ID.
func (g *Graph) CapByID(id int) int { return g.capsByID[id] }

// CapsByID returns the capacities of all arcs indexed by arc ID (0 for a
// View's masked arcs). The returned slice is the graph's own storage:
// callers must copy it (e.g. into a per-timestep residual buffer) and must
// not modify it.
func (g *Graph) CapsByID() []int { return g.capsByID }

// OutArcIDs returns the dense arc IDs of u's outgoing arcs, parallel to
// Out(u). The returned slice must not be modified.
func (g *Graph) OutArcIDs(u int) []int32 { return g.outID[u] }

// InArcIDs returns the dense arc IDs of v's incoming arcs, parallel to
// In(v). The returned slice must not be modified.
func (g *Graph) InArcIDs(v int) []int32 { return g.inID[v] }

// Out returns the outgoing arcs of u. The returned slice must not be
// modified.
func (g *Graph) Out(u int) []Arc { return g.out[u] }

// In returns the incoming arcs of v. The returned slice must not be
// modified.
func (g *Graph) In(v int) []Arc { return g.in[v] }

// OutDegree returns the number of outgoing arcs of u.
func (g *Graph) OutDegree(u int) int { return len(g.out[u]) }

// InDegree returns the number of incoming arcs of v.
func (g *Graph) InDegree(v int) int { return len(g.in[v]) }

// InCapacity returns the total capacity of arcs entering v.
func (g *Graph) InCapacity(v int) int {
	total := 0
	for _, a := range g.in[v] {
		total += a.Cap
	}
	return total
}

// OutCapacity returns the total capacity of arcs leaving u.
func (g *Graph) OutCapacity(u int) int {
	total := 0
	for _, a := range g.out[u] {
		total += a.Cap
	}
	return total
}

// Arcs returns all arcs sorted by (From, To). The slice is freshly
// allocated.
func (g *Graph) Arcs() []Arc {
	arcs := make([]Arc, 0, len(g.capsByID))
	for u := 0; u < g.n; u++ {
		arcs = append(arcs, g.out[u]...)
	}
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].From != arcs[j].From {
			return arcs[i].From < arcs[j].From
		}
		return arcs[i].To < arcs[j].To
	})
	return arcs
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for _, a := range g.Arcs() {
		_ = c.AddArc(a.From, a.To, a.Cap) // valid arcs by construction
	}
	return c
}

// BFSFrom returns the hop distance from src to every vertex following arc
// direction; unreachable vertices get -1.
func (g *Graph) BFSFrom(src int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= g.n {
		return dist
	}
	dist[src] = 0
	queue := make([]int, 0, g.n)
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range g.out[u] {
			if dist[a.To] == -1 {
				dist[a.To] = dist[u] + 1
				queue = append(queue, a.To)
			}
		}
	}
	return dist
}

// BFSTo returns the hop distance from every vertex to dst following arc
// direction (i.e. BFS over reversed arcs); unreachable vertices get -1.
func (g *Graph) BFSTo(dst int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	if dst < 0 || dst >= g.n {
		return dist
	}
	dist[dst] = 0
	queue := make([]int, 0, g.n)
	queue = append(queue, dst)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, a := range g.in[v] {
			if dist[a.From] == -1 {
				dist[a.From] = dist[v] + 1
				queue = append(queue, a.From)
			}
		}
	}
	return dist
}

// MultiSourceBFSFrom returns, for every vertex v, the hop distance to v
// from the nearest vertex in sources (following arc direction).
// Unreachable vertices get -1.
func (g *Graph) MultiSourceBFSFrom(sources []int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int, 0, g.n)
	for _, s := range sources {
		if s >= 0 && s < g.n && dist[s] == -1 {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range g.out[u] {
			if dist[a.To] == -1 {
				dist[a.To] = dist[u] + 1
				queue = append(queue, a.To)
			}
		}
	}
	return dist
}

// MultiSourceBFSTo returns, for every vertex v, the hop distance from v to
// the nearest vertex in targets (following arc direction). Unreachable
// vertices get -1.
func (g *Graph) MultiSourceBFSTo(targets []int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int, 0, g.n)
	for _, t := range targets {
		if t >= 0 && t < g.n && dist[t] == -1 {
			dist[t] = 0
			queue = append(queue, t)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, a := range g.in[v] {
			if dist[a.From] == -1 {
				dist[a.From] = dist[v] + 1
				queue = append(queue, a.From)
			}
		}
	}
	return dist
}

// AllPairs returns the full hop-distance matrix d[u][v]; -1 marks
// unreachable pairs. O(n·(n+m)).
func (g *Graph) AllPairs() [][]int {
	d := make([][]int, g.n)
	for u := 0; u < g.n; u++ {
		d[u] = g.BFSFrom(u)
	}
	return d
}

// Diameter returns the longest finite shortest-path distance in the graph;
// if any ordered pair is unreachable it returns -1.
func (g *Graph) Diameter() int {
	diam := 0
	for u := 0; u < g.n; u++ {
		dist := g.BFSFrom(u)
		for v, dv := range dist {
			if v == u {
				continue
			}
			if dv == -1 {
				return -1
			}
			if dv > diam {
				diam = dv
			}
		}
	}
	return diam
}

// StronglyConnected reports whether every vertex can reach every other
// vertex following arc directions.
func (g *Graph) StronglyConnected() bool {
	if g.n == 0 {
		return true
	}
	for _, dv := range g.BFSFrom(0) {
		if dv == -1 {
			return false
		}
	}
	for _, dv := range g.BFSTo(0) {
		if dv == -1 {
			return false
		}
	}
	return true
}

// DOT renders the graph in Graphviz DOT format under the quoted name, with
// capacities as labels.
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	for _, a := range g.Arcs() {
		fmt.Fprintf(&b, "  %d -> %d [label=%d];\n", a.From, a.To, a.Cap)
	}
	b.WriteString("}\n")
	return b.String()
}

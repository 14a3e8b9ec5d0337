package graph

// View is a read-only capacity-masked view of a base graph: the graph a
// per-timestep engine hands its strategies when arc capacities change from
// step to step. The view's graph shares the base's dense arc IDs and ID
// index, so arc-indexed state (usage counters, round-robin cursors) stays
// valid across steps, and Refresh rewrites it in place without allocating.
//
// After a Refresh the view's graph reads exactly like a graph built with
// New and AddArc over the base arcs of positive capacity in (From, To)
// order: Out(u) lists arcs by ascending To, In(v) by ascending From, and a
// masked (zero-capacity) arc answers ArcID −1, HasArc false and Cap 0.
// OutArcIDs, InArcIDs and CapsByID answer in base IDs; NumArcs counts the
// base arcs, masked ones included.
//
// The base must not change after the view is made. Views of one base may
// be used concurrently; a single view may not.
type View struct {
	g *Graph
	// outOrder[u] and inOrder[v] list the base arc IDs of u's out-arcs by
	// ascending head and v's in-arcs by ascending tail; from and to give
	// each ID's endpoints.
	outOrder, inOrder [][]int32
	from, to          []int32
}

// NewView returns a view of base with every arc at its base capacity.
// base must be a graph built with New, not a view's graph.
func NewView(base *Graph) *View {
	n, m := base.n, base.NumArcs()
	g := &Graph{
		n:        n,
		out:      make([][]Arc, n),
		in:       make([][]Arc, n),
		outID:    make([][]int32, n),
		inID:     make([][]int32, n),
		ids:      base.ids,
		capsByID: make([]int, m),
		view:     true,
	}
	v := &View{
		g:        g,
		outOrder: make([][]int32, n),
		inOrder:  make([][]int32, n),
		from:     make([]int32, m),
		to:       make([]int32, m),
	}
	// One backing array per list kind; each vertex's window is capped at
	// its base degree, so appends never spill into the next vertex's.
	outArcs, inArcs := make([]Arc, m), make([]Arc, m)
	outIDs, inIDs := make([]int32, m), make([]int32, m)
	outOrder, inOrder := make([]int32, m), make([]int32, m)
	lo, li := 0, 0
	for u := 0; u < n; u++ {
		hi := lo + len(base.out[u])
		g.out[u], g.outID[u], v.outOrder[u] = outArcs[lo:lo:hi], outIDs[lo:lo:hi], outOrder[lo:lo:hi]
		lo = hi
		hi = li + len(base.in[u])
		g.in[u], g.inID[u], v.inOrder[u] = inArcs[li:li:hi], inIDs[li:li:hi], inOrder[li:li:hi]
		li = hi
	}
	// Visiting heads in ascending order lists every vertex's out-arcs by
	// ascending head, and visiting tails in ascending order lists every
	// vertex's in-arcs by ascending tail: a counting sort.
	for w := 0; w < n; w++ {
		for i, a := range base.in[w] {
			id := base.inID[w][i]
			v.from[id], v.to[id] = int32(a.From), int32(w)
			v.outOrder[a.From] = append(v.outOrder[a.From], id)
		}
	}
	for u := 0; u < n; u++ {
		for i, a := range base.out[u] {
			v.inOrder[a.To] = append(v.inOrder[a.To], base.outID[u][i])
		}
	}
	v.Refresh(base.capsByID)
	return v
}

// Graph returns the view's read-only graph. It is the same *Graph after
// every Refresh.
func (v *View) Graph() *Graph { return v.g }

// Refresh sets every arc's capacity from caps, which holds one entry per
// base arc ID; an arc with capacity ≤ 0 is masked. It advances the graph's
// ArcGeneration only when some arc flips between masked and present, so a
// refresh that merely changes capacities keeps state derived from the
// adjacency lists valid. It allocates nothing.
func (v *View) Refresh(caps []int) {
	g := v.g
	flipped := false
	for id, old := range g.capsByID {
		c := max(caps[id], 0)
		flipped = flipped || (c > 0) != (old > 0)
		g.capsByID[id] = c
	}
	if flipped {
		g.arcGen++
	}
	for u, order := range v.outOrder {
		arcs, ids := g.out[u][:0], g.outID[u][:0]
		for _, id := range order {
			if c := g.capsByID[id]; c > 0 {
				arcs = append(arcs, Arc{From: u, To: int(v.to[id]), Cap: c})
				ids = append(ids, id)
			}
		}
		g.out[u], g.outID[u] = arcs, ids
	}
	for w, order := range v.inOrder {
		arcs, ids := g.in[w][:0], g.inID[w][:0]
		for _, id := range order {
			if c := g.capsByID[id]; c > 0 {
				arcs = append(arcs, Arc{From: int(v.from[id]), To: w, Cap: c})
				ids = append(ids, id)
			}
		}
		g.in[w], g.inID[w] = arcs, ids
	}
}

// Package topology generates the network graphs used in the paper's
// evaluation (§5.2–5.3): Erdős–Rényi random graphs with connection
// probability 2·ln n/n, and transit-stub graphs in the style of the GT-ITM
// generator the authors used. GT-ITM itself is 1990s C code with
// unpublished parameters, so we re-implement the transit-stub *model*:
// a connected random core of transit domains, each transit node sponsoring
// several stub domains, with all arcs capacitated uniformly in [MinCap,
// MaxCap] (the paper draws weights "randomly between 3 and 15").
//
// All generators are deterministic given a seed and always return strongly
// connected graphs (the paper's instances must be satisfiable for every
// receiver set, which requires reachability).
package topology

import (
	"fmt"
	"math"
	"math/rand"

	"ocd/internal/graph"
)

// CapRange is the inclusive range from which edge capacities are drawn.
// Defaults mirror the paper's 3..15 tokens per timestep.
type CapRange struct {
	Min int
	Max int
}

// DefaultCaps is the capacity range used throughout the paper's evaluation.
var DefaultCaps = CapRange{Min: 3, Max: 15}

func (c CapRange) draw(rng *rand.Rand) int {
	if c.Max <= c.Min {
		return c.Min
	}
	return c.Min + rng.Intn(c.Max-c.Min+1)
}

func (c CapRange) validate() error {
	if c.Min <= 0 {
		return fmt.Errorf("topology: capacity min %d must be positive", c.Min)
	}
	if c.Max < c.Min {
		return fmt.Errorf("topology: capacity range [%d,%d] inverted", c.Min, c.Max)
	}
	return nil
}

// Random generates an undirected Erdős–Rényi graph G(n, p) with
// p = 2·ln n / n (the paper's choice, keeping the edge count O(n·ln n) and
// the graph connected w.h.p.), realized as symmetric directed arcs with a
// shared random capacity per edge. If the sampled graph is disconnected the
// components are stitched with extra random edges so the returned graph is
// always strongly connected.
func Random(n int, caps CapRange, seed int64) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: random graph needs n >= 2, got %d", n)
	}
	if err := caps.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	p := 2 * math.Log(float64(n)) / float64(n)
	if p > 1 {
		p = 1
	}
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				if err := g.AddEdge(u, v, caps.draw(rng)); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := connect(g, caps, rng); err != nil {
		return nil, err
	}
	return g, nil
}

// connect stitches undirected components together until the graph is
// strongly connected. Because every edge is symmetric, weak connectivity
// equals strong connectivity here.
func connect(g *graph.Graph, caps CapRange, rng *rand.Rand) error {
	n := g.N()
	comp := components(g)
	for len(comp) > 1 {
		// Join each subsequent component to the first with one random edge.
		a := comp[0][rng.Intn(len(comp[0]))]
		b := comp[1][rng.Intn(len(comp[1]))]
		if err := g.AddEdge(a, b, caps.draw(rng)); err != nil {
			return err
		}
		comp = components(g)
	}
	_ = n
	return nil
}

// components returns the weakly connected components as vertex lists.
func components(g *graph.Graph) [][]int {
	n := g.N()
	seen := make([]bool, n)
	var comps [][]int
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		queue := []int{s}
		seen[s] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			comp = append(comp, u)
			for _, a := range g.Out(u) {
				if !seen[a.To] {
					seen[a.To] = true
					queue = append(queue, a.To)
				}
			}
			for _, a := range g.In(u) {
				if !seen[a.From] {
					seen[a.From] = true
					queue = append(queue, a.From)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// TransitStubParams controls the transit-stub generator. The defaults are
// chosen so that TransitStubN can hit an arbitrary target vertex count.
type TransitStubParams struct {
	// TransitDomains is the number of transit (backbone) domains.
	TransitDomains int
	// TransitSize is the number of routers per transit domain.
	TransitSize int
	// StubsPerTransit is the number of stub domains attached to each
	// transit router.
	StubsPerTransit int
	// StubSize is the number of hosts per stub domain.
	StubSize int
	// IntraP is the probability of extra intra-domain edges beyond the
	// spanning structure.
	IntraP float64
	// ExtraStubEdgeP is the probability a stub domain gets a second,
	// redundant link into the transit core.
	ExtraStubEdgeP float64
	// Caps is the capacity range for every edge.
	Caps CapRange
}

// DefaultTransitStub returns parameters that produce a graph of roughly n
// vertices with a realistic transit/stub ratio (~1 transit router per 10
// hosts, mirroring GT-ITM's canonical configurations).
func DefaultTransitStub(n int) TransitStubParams {
	p := TransitStubParams{
		TransitDomains:  1,
		TransitSize:     4,
		StubsPerTransit: 3,
		StubSize:        3,
		IntraP:          0.3,
		ExtraStubEdgeP:  0.25,
		Caps:            DefaultCaps,
	}
	// One transit domain of size t sponsors t·s stub domains of size z:
	// total = t + t·s·z per domain. Scale domain count then transit size.
	perDomain := p.TransitSize + p.TransitSize*p.StubsPerTransit*p.StubSize
	if n > perDomain {
		p.TransitDomains = (n + perDomain - 1) / perDomain
	}
	return p
}

// TransitStub generates a hierarchical transit-stub graph:
//
//   - Each transit domain is a connected random subgraph of TransitSize
//     routers; domains are chained and randomly cross-linked so the core is
//     connected.
//   - Each transit router sponsors StubsPerTransit stub domains; each stub
//     domain is a connected random subgraph of StubSize hosts with one
//     (sometimes two) uplinks into the core.
//
// All edges are symmetric with shared random capacities.
func TransitStub(p TransitStubParams, seed int64) (*graph.Graph, error) {
	if p.TransitDomains < 1 || p.TransitSize < 1 || p.StubsPerTransit < 0 || p.StubSize < 1 {
		return nil, fmt.Errorf("topology: invalid transit-stub params %+v", p)
	}
	if err := p.Caps.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	total := p.TransitDomains*p.TransitSize +
		p.TransitDomains*p.TransitSize*p.StubsPerTransit*p.StubSize
	g := graph.New(total)
	next := 0
	alloc := func(k int) []int {
		ids := make([]int, k)
		for i := range ids {
			ids[i] = next
			next++
		}
		return ids
	}

	var transitAll []int
	var domains [][]int
	for d := 0; d < p.TransitDomains; d++ {
		dom := alloc(p.TransitSize)
		if err := randomConnected(g, dom, p.IntraP, p.Caps, rng); err != nil {
			return nil, err
		}
		domains = append(domains, dom)
		transitAll = append(transitAll, dom...)
	}
	// Chain transit domains plus occasional extra cross links.
	for d := 1; d < len(domains); d++ {
		a := domains[d-1][rng.Intn(len(domains[d-1]))]
		b := domains[d][rng.Intn(len(domains[d]))]
		if err := g.AddEdge(a, b, p.Caps.draw(rng)); err != nil {
			return nil, err
		}
		if len(domains) > 2 && rng.Float64() < 0.5 {
			c := domains[rng.Intn(d)][0]
			e := domains[d][rng.Intn(len(domains[d]))]
			if c != e && !g.HasArc(c, e) {
				if err := g.AddEdge(c, e, p.Caps.draw(rng)); err != nil {
					return nil, err
				}
			}
		}
	}
	// Stub domains.
	for _, router := range transitAll {
		for s := 0; s < p.StubsPerTransit; s++ {
			stub := alloc(p.StubSize)
			if err := randomConnected(g, stub, p.IntraP, p.Caps, rng); err != nil {
				return nil, err
			}
			up := stub[rng.Intn(len(stub))]
			if err := g.AddEdge(up, router, p.Caps.draw(rng)); err != nil {
				return nil, err
			}
			if rng.Float64() < p.ExtraStubEdgeP {
				other := transitAll[rng.Intn(len(transitAll))]
				from := stub[rng.Intn(len(stub))]
				if other != from && !g.HasArc(from, other) {
					if err := g.AddEdge(from, other, p.Caps.draw(rng)); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return g, nil
}

// TransitStubN generates a transit-stub graph with approximately n vertices
// using DefaultTransitStub parameters. Like Random, it rejects n < 2.
func TransitStubN(n int, caps CapRange, seed int64) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: transit-stub graph needs n >= 2, got %d", n)
	}
	p := DefaultTransitStub(n)
	p.Caps = caps
	return TransitStub(p, seed)
}

// randomConnected wires the given vertex IDs into a connected random
// subgraph: a random spanning tree plus extra edges with probability p.
func randomConnected(g *graph.Graph, ids []int, p float64, caps CapRange, rng *rand.Rand) error {
	if len(ids) <= 1 {
		return nil
	}
	perm := rng.Perm(len(ids))
	for i := 1; i < len(perm); i++ {
		u := ids[perm[i]]
		v := ids[perm[rng.Intn(i)]]
		if err := g.AddEdge(u, v, caps.draw(rng)); err != nil {
			return err
		}
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if !g.HasArc(ids[i], ids[j]) && rng.Float64() < p {
				if err := g.AddEdge(ids[i], ids[j], caps.draw(rng)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Line returns a path graph 0–1–…–(n−1) with uniform capacity.
func Line(n, capacity int) (*graph.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: line needs n >= 1, got %d", n)
	}
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1, capacity); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Ring returns a cycle graph with uniform capacity.
func Ring(n, capacity int) (*graph.Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("topology: ring needs n >= 3, got %d", n)
	}
	g, err := Line(n, capacity)
	if err != nil {
		return nil, err
	}
	if err := g.AddEdge(n-1, 0, capacity); err != nil {
		return nil, err
	}
	return g, nil
}

// Star returns a star with vertex 0 at the center and uniform capacity.
func Star(n, capacity int) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: star needs n >= 2, got %d", n)
	}
	g := graph.New(n)
	for i := 1; i < n; i++ {
		if err := g.AddEdge(0, i, capacity); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Complete returns the complete graph K_n with uniform capacity.
func Complete(n, capacity int) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: complete graph needs n >= 2, got %d", n)
	}
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if err := g.AddEdge(u, v, capacity); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// Grid returns a rows×cols 4-neighbour mesh with uniform capacity.
func Grid(rows, cols, capacity int) (*graph.Graph, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("topology: grid needs positive dims, got %dx%d", rows, cols)
	}
	g := graph.New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				if err := g.AddEdge(id(r, c), id(r, c+1), capacity); err != nil {
					return nil, err
				}
			}
			if r+1 < rows {
				if err := g.AddEdge(id(r, c), id(r+1, c), capacity); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// Package underlay implements the paper's §6 "Realistic topologies" open
// problem: overlay links are logical paths over a shared physical network,
// so their capacities are not independent. Routers forward but do not
// participate in the overlay.
//
// A Network maps each overlay arc onto the shortest physical path. The
// overlay graph advertises the optimistic per-link capacity (the
// bottleneck along the path, what an overlay-only model assumes); the
// underlay-constrained engine charges every move against each physical
// link it traverses, exposing how much the overlay-only estimate
// overpromises when logical links share wires.
package underlay

import (
	"errors"
	"fmt"

	"ocd/internal/core"
	"ocd/internal/graph"
	"ocd/internal/sim"
	"ocd/internal/tokenset"
)

// Network couples a physical topology with an overlay built on top of it.
type Network struct {
	// Phys is the physical graph; all vertices can forward.
	Phys *graph.Graph
	// Hosts are the physical vertices participating in the overlay;
	// overlay vertex i is physical vertex Hosts[i].
	Hosts []int
	// Overlay is the logical graph on len(Hosts) vertices. Capacities are
	// the per-path bottlenecks (the optimistic overlay-only view).
	Overlay *graph.Graph
	// paths maps each overlay arc (i,j) to the physical arcs of its route.
	paths map[[2]int][][2]int
}

// ErrNoPath indicates an overlay edge between physically disconnected
// hosts.
var ErrNoPath = errors.New("underlay: no physical path for overlay edge")

// errForeignInstance rejects an instance that Run or Validate is given over
// a graph other than the network's overlay.
var errForeignInstance = errors.New("underlay: instance not built over this network's overlay")

// Build constructs a network: each overlay edge (i, j) — indices into
// hosts — is routed over the shortest physical path in both directions.
func Build(phys *graph.Graph, hosts []int, overlayEdges [][2]int) (*Network, error) {
	for _, h := range hosts {
		if h < 0 || h >= phys.N() {
			return nil, fmt.Errorf("underlay: host %d outside physical graph", h)
		}
	}
	n := &Network{
		Phys:    phys,
		Hosts:   append([]int(nil), hosts...),
		Overlay: graph.New(len(hosts)),
		paths:   make(map[[2]int][][2]int),
	}
	for _, e := range overlayEdges {
		for _, dir := range [][2]int{{e[0], e[1]}, {e[1], e[0]}} {
			if err := n.addOverlayArc(dir[0], dir[1]); err != nil {
				return nil, err
			}
		}
	}
	return n, nil
}

func (n *Network) addOverlayArc(i, j int) error {
	if i < 0 || i >= len(n.Hosts) || j < 0 || j >= len(n.Hosts) || i == j {
		return fmt.Errorf("underlay: overlay edge (%d,%d) out of range", i, j)
	}
	if n.Overlay.HasArc(i, j) {
		return nil
	}
	src, dst := n.Hosts[i], n.Hosts[j]
	path, bottleneck, err := shortestPath(n.Phys, src, dst)
	if err != nil {
		return fmt.Errorf("%w: hosts %d→%d", ErrNoPath, src, dst)
	}
	n.paths[[2]int{i, j}] = path
	return n.Overlay.AddArc(i, j, bottleneck)
}

// shortestPath returns the physical arcs of a BFS shortest path and the
// minimum capacity along it.
func shortestPath(g *graph.Graph, src, dst int) ([][2]int, int, error) {
	prev := make([]int, g.N())
	for i := range prev {
		prev[i] = -2
	}
	prev[src] = -1
	queue := []int{src}
	for len(queue) > 0 && prev[dst] == -2 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range g.Out(u) {
			if prev[a.To] == -2 {
				prev[a.To] = u
				queue = append(queue, a.To)
			}
		}
	}
	if prev[dst] == -2 {
		return nil, 0, ErrNoPath
	}
	var path [][2]int
	bottleneck := 0
	for v := dst; prev[v] != -1; v = prev[v] {
		u := prev[v]
		path = append(path, [2]int{u, v})
		if c := g.Cap(u, v); bottleneck == 0 || c < bottleneck {
			bottleneck = c
		}
	}
	// Reverse into src→dst order.
	for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
		path[l], path[r] = path[r], path[l]
	}
	return path, bottleneck, nil
}

// Path returns the physical arcs of overlay arc (i, j).
func (n *Network) Path(i, j int) [][2]int { return n.paths[[2]int{i, j}] }

// SharingFactor reports how oversubscribed the physical network is: the
// maximum, over physical arcs, of (sum of overlay bottleneck capacities
// routed across the arc) / (physical capacity). Values above 1 mean the
// overlay-only view overpromises.
func (n *Network) SharingFactor() float64 {
	load := make(map[[2]int]int)
	for key, path := range n.paths {
		c := n.Overlay.Cap(key[0], key[1])
		for _, pa := range path {
			load[pa] += c
		}
	}
	worst := 0.0
	for pa, l := range load {
		phys := n.Phys.Cap(pa[0], pa[1])
		if phys == 0 {
			continue
		}
		if f := float64(l) / float64(phys); f > worst {
			worst = f
		}
	}
	return worst
}

// Run executes a strategy over the overlay instance while charging every
// move against the physical links its overlay arc traverses. The instance
// must be built over n.Overlay. The kernel's own admission covers token
// range, overlay arc existence, overlay capacity, and possession; the
// Admit hook layers the shared physical-link charging on top. Completion
// is the static predicate, so a custom Options.Done is rejected. MaxSteps
// of 0 defaults to 4× the Theorem 1 horizon plus IdlePatience.
func (n *Network) Run(inst *core.Instance, factory sim.Factory, opts sim.Options) (*sim.Result, error) {
	if inst.G != n.Overlay {
		return nil, errForeignInstance
	}
	if opts.Done != nil {
		return nil, errors.New("underlay: Options.Done is not supported; completion on the shared underlay is the static predicate")
	}
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 4*inst.TheoremOneHorizon() + opts.IdlePatience
	}
	res, _, _, err := sim.Exec(inst, factory, opts, sim.Engine{Admit: n.newAdmitter().admit})
	return res, err
}

// admitter charges accepted moves against the physical links their overlay
// arc traverses. Physical usage lives in a dense slice indexed by the
// physical graph's arc IDs, cleared lazily on the first admission of each
// step; paths are pre-resolved to physical arc IDs per overlay arc ID. One
// admitter serves one run — Network itself stays read-only and safe for
// concurrent runs.
type admitter struct {
	pathIDs  [][]int32 // overlay arc ID → physical arc IDs along its route
	physCaps []int
	physUsed []int
	lastStep int
}

func (n *Network) newAdmitter() *admitter {
	a := &admitter{
		pathIDs:  make([][]int32, n.Overlay.NumArcs()),
		physCaps: n.Phys.CapsByID(),
		physUsed: make([]int, n.Phys.NumArcs()),
		lastStep: -1,
	}
	//ocd:orderinvariant — each path lands in its own dense slot.
	for key, path := range n.paths {
		ids := make([]int32, len(path))
		for i, pa := range path {
			ids[i] = int32(n.Phys.ArcID(pa[0], pa[1]))
		}
		a.pathIDs[n.Overlay.ArcID(key[0], key[1])] = ids
	}
	return a
}

// admit is the kernel Admit hook: every physical link along the overlay
// arc's route must have residual capacity, and an accepted move charges
// them all.
func (a *admitter) admit(step int, _ core.Move, id int) bool {
	if step != a.lastStep {
		clear(a.physUsed)
		a.lastStep = step
	}
	path := a.pathIDs[id]
	for _, pid := range path {
		if a.physUsed[pid] >= a.physCaps[pid] {
			return false
		}
	}
	for _, pid := range path {
		a.physUsed[pid]++
	}
	return true
}

// Validate replays a schedule with core.Replay, which checks each move
// against the overlay, and adds the shared physical links: every move is
// charged to each link on its overlay arc's route in the route table, and
// a move that would load a link beyond its capacity in one step is
// rejected. The charge is written here rather than shared with the
// engine's admitter, so that the replay stays an independent check on the
// engine. As for Run, the instance must be built over n.Overlay. The
// schedule must satisfy every want, or Validate returns
// core.ErrUnsuccessful.
func (n *Network) Validate(inst *core.Instance, sched *core.Schedule) error {
	if inst.G != n.Overlay {
		return errForeignInstance
	}
	// route holds the physical arc IDs of each overlay arc's route, filled
	// on the arc's first move; used counts this step's moves per physical arc.
	route := make([][]int, n.Overlay.NumArcs())
	used := make([]int, n.Phys.NumArcs())
	final, err := core.Replay(inst, sched, core.Rules{
		BeginStep: func(int, []tokenset.Set) { clear(used) },
		CheckMove: func(_ int, mv core.Move, id int) (int, string) {
			if route[id] == nil {
				for _, pa := range n.Path(mv.From, mv.To) {
					route[id] = append(route[id], n.Phys.ArcID(pa[0], pa[1]))
				}
			}
			for k, pid := range route[id] {
				if c := n.Phys.CapByID(pid); used[pid] >= c {
					pa := n.Path(mv.From, mv.To)[k]
					return 0, fmt.Sprintf("physical link %d->%d capacity %d exceeded", pa[0], pa[1], c)
				}
			}
			for _, pid := range route[id] {
				used[pid]++
			}
			return n.Overlay.CapByID(id), ""
		},
	})
	if err != nil {
		return err
	}
	if !core.Done(inst, final) {
		return core.ErrUnsuccessful
	}
	return nil
}

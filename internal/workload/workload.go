// Package workload constructs the OCD instances used in the paper's
// evaluation (§5.2–5.3): single-source single-file distribution to all or a
// density-chosen subset of receivers, and the multi-file subdivision
// scenarios with single or random multiple senders. It also draws the
// seeded tiny instances that the exact solvers certify.
package workload

import (
	"fmt"
	"math/rand"

	"ocd/internal/core"
	"ocd/internal/graph"
)

// SingleFile builds the §5.2 workload: one file of m tokens at a single
// source (vertex 0), wanted by every other vertex.
func SingleFile(g *graph.Graph, m int) *core.Instance {
	inst := core.NewInstance(g, m)
	inst.Have[0].AddRange(0, m)
	for v := 1; v < g.N(); v++ {
		inst.Want[v].AddRange(0, m)
	}
	return inst
}

// ReceiverDensity builds the §5.2 receiver-density workload: one file of m
// tokens at vertex 0; every other vertex draws a uniform score and joins
// the want set iff its score is below threshold. At threshold 1 this is
// SingleFile; at 0 no vertex wants anything. At least one receiver is
// always selected so the run is non-trivial.
func ReceiverDensity(g *graph.Graph, m int, threshold float64, seed int64) *core.Instance {
	rng := rand.New(rand.NewSource(seed))
	inst := core.NewInstance(g, m)
	inst.Have[0].AddRange(0, m)
	any := false
	for v := 1; v < g.N(); v++ {
		if rng.Float64() < threshold {
			inst.Want[v].AddRange(0, m)
			any = true
		}
	}
	if !any && g.N() > 1 {
		v := 1 + rng.Intn(g.N()-1)
		inst.Want[v].AddRange(0, m)
	}
	return inst
}

// MultiFile builds the §5.3 subdivision workload: m tokens at a single
// source are split into `files` equal files, the non-source vertices are
// split into `files` equal groups, and group i wants exactly file i. The
// total token mass distributed from the source is constant across the
// subdivision sweep, as in the paper. files must divide m and be at most
// the number of non-source vertices.
func MultiFile(g *graph.Graph, m, files int) (*core.Instance, error) {
	n := g.N()
	if files < 1 || m%files != 0 {
		return nil, fmt.Errorf("workload: %d files must evenly divide %d tokens", files, m)
	}
	if files > n-1 {
		return nil, fmt.Errorf("workload: %d files exceed %d receivers", files, n-1)
	}
	inst := core.NewInstance(g, m)
	inst.Have[0].AddRange(0, m)
	perFile := m / files
	receivers := n - 1
	for i := 0; i < receivers; i++ {
		v := i + 1
		file := i * files / receivers
		inst.Want[v].AddRange(file*perFile, (file+1)*perFile)
	}
	return inst, nil
}

// MultiSender builds the §5.3 multiple-senders workload: like MultiFile,
// but the source of each file is a random vertex drawn from the set of
// vertices that do not want that file.
func MultiSender(g *graph.Graph, m, files int, seed int64) (*core.Instance, error) {
	inst, err := MultiFile(g, m, files)
	if err != nil {
		return nil, err
	}
	// Clear the single source and re-seed each file at a random non-wanter.
	inst.Have[0].Clear()
	rng := rand.New(rand.NewSource(seed))
	perFile := m / files
	n := g.N()
	for f := 0; f < files; f++ {
		lo, hi := f*perFile, (f+1)*perFile
		var candidates []int
		for v := 0; v < n; v++ {
			if !inst.Want[v].Has(lo) {
				candidates = append(candidates, v)
			}
		}
		src := candidates[rng.Intn(len(candidates))]
		inst.Have[src].AddRange(lo, hi)
	}
	return inst, nil
}

// PointToPoint builds a minimal sender/receiver instance: src has all m
// tokens, dst wants them all. Used by the competitive-analysis experiments.
func PointToPoint(g *graph.Graph, m, src, dst int) *core.Instance {
	inst := core.NewInstance(g, m)
	inst.Have[src].AddRange(0, m)
	inst.Want[dst].AddRange(0, m)
	return inst
}

// RandomTinyInstances draws count seeded instances from a single RNG
// stream. The benchmark's solver workload, ilp-vs-bnb, bounds-quality and
// the solver packages' reference tests and work ceilings share this
// generator, so "the pinned solver set" names the same instances
// everywhere; changing the stream changes the benchmark's output digest
// and every pinned solver count.
func RandomTinyInstances(seed int64, count, n, m int) []*core.Instance {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*core.Instance, count)
	for i := range out {
		out[i] = randomTinyInstance(rng, n, m)
	}
	return out
}

// randomTinyInstance builds a connected random instance small enough for
// both exact solvers.
func randomTinyInstance(rng *rand.Rand, n, m int) *core.Instance {
	g := graph.New(n)
	// Random spanning tree plus a few extra arcs, capacities 1..2.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u, v := perm[i], perm[rng.Intn(i)]
		_ = g.AddEdge(u, v, 1+rng.Intn(2))
	}
	for e := 0; e < n/2; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasArc(u, v) {
			_ = g.AddEdge(u, v, 1+rng.Intn(2))
		}
	}
	inst := core.NewInstance(g, m)
	for t := 0; t < m; t++ {
		inst.Have[rng.Intn(n)].Add(t)
		// Each token is wanted by one or two vertices. The loop bound is
		// drawn again on every test, and the stream depends on those draws.
		for w := 0; w < 1+rng.Intn(2); w++ {
			inst.Want[rng.Intn(n)].Add(t)
		}
	}
	return inst
}

package core_test

// The functions below are the per-receiver implementations that the
// Arrivals table replaced, kept verbatim under renamed identifiers as the
// reference for TestArrivalsMatchReference and FuzzMakespanLowerBound: the
// radius bound ran one reverse BFS per receiver, Satisfiable one more, and
// the flow bound a third for its nearest holder.

import (
	"fmt"
	"math/rand"
	"testing"

	"ocd/internal/core"
	"ocd/internal/experiments"
	"ocd/internal/flow"
	"ocd/internal/graph"
	"ocd/internal/tokenset"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

func refMakespanLowerBound(inst *core.Instance, possess []tokenset.Set) int {
	if possess == nil {
		possess = inst.Have
	}
	best := 0
	for v := 0; v < inst.N(); v++ {
		missing := inst.Want[v].Difference(possess[v])
		if missing.Empty() {
			continue
		}
		inCap := inst.G.InCapacity(v)
		if inCap == 0 {
			// Unsatisfiable vertex; no finite bound, report the horizon.
			return inst.TheoremOneHorizon()
		}
		if m := refVertexRadiusBound(inst, possess, v, missing, inCap); m > best {
			best = m
		}
	}
	return best
}

// refVertexRadiusBound computes max_i (i + ceil(k_i / inCap)) for one vertex.
func refVertexRadiusBound(inst *core.Instance, possess []tokenset.Set, v int, missing tokenset.Set, inCap int) int {
	dist := inst.G.BFSTo(v)
	maxDist := 0
	for _, d := range dist {
		if d > maxDist {
			maxDist = d
		}
	}
	// within[i] = tokens possessed at distance ≤ i of v. Build incrementally.
	within := tokenset.New(inst.NumTokens)
	// Bucket vertices by distance.
	buckets := make([][]int, maxDist+1)
	for u, d := range dist {
		if d >= 0 {
			buckets[d] = append(buckets[d], u)
		}
	}
	best := 0
	for i := 0; i <= maxDist; i++ {
		for _, u := range buckets[i] {
			within.UnionWith(possess[u])
		}
		k := missing.DifferenceCount(within)
		if k == 0 {
			break
		}
		m := i + (k+inCap-1)/inCap
		if m > best {
			best = m
		}
	}
	// Tokens beyond every radius (unreachable) are caught by Satisfiable;
	// here they simply stop contributing once within saturates.
	return best
}

// refReceiver is one receiver's term of refMakespanLowerBound: 0 when v
// misses nothing and the horizon when v has no in-capacity.
func refReceiver(inst *core.Instance, possess []tokenset.Set, v int) int {
	missing := inst.Want[v].Difference(possess[v])
	if missing.Empty() {
		return 0
	}
	inCap := inst.G.InCapacity(v)
	if inCap == 0 {
		return inst.TheoremOneHorizon()
	}
	return refVertexRadiusBound(inst, possess, v, missing, inCap)
}

func refSatisfiable(in *core.Instance) bool {
	for v := 0; v < in.N(); v++ {
		need := in.Want[v].Difference(in.Have[v])
		if need.Empty() {
			continue
		}
		dist := in.G.BFSTo(v)
		reachable := tokenset.New(in.NumTokens)
		for u := 0; u < in.N(); u++ {
			if dist[u] >= 0 {
				reachable.UnionWith(in.Have[u])
			}
		}
		if !need.SubsetOf(reachable) {
			return false
		}
	}
	return true
}

func refFlowMakespanLowerBound(inst *core.Instance) (int, error) {
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
		cut, err := flow.MinCutToVertex(inst, holders, v)
		if err != nil {
			return 0, err
		}
		if cut == 0 {
			continue
		}
		bound := (k + cut - 1) / cut
		if d := refNearestHolder(inst, holders, v); d > bound {
			bound = d
		}
		if bound > best {
			best = bound
		}
	}
	return best, nil
}

// refNearestHolder returns the hop distance from the nearest holder to v.
func refNearestHolder(inst *core.Instance, holders []int, v int) int {
	dist := inst.G.BFSTo(v)
	bestDist := -1
	for _, h := range holders {
		if dist[h] >= 0 && (bestDist == -1 || dist[h] < bestDist) {
			bestDist = dist[h]
		}
	}
	if bestDist < 0 {
		return 0
	}
	return bestDist
}

// ----------------------------------------------------------------------

// checkBounds compares every answer the table gives for inst under possess
// (nil = the initial possession) with the reference. reused is a table of
// the same instance left over from earlier checks: Refresh must leave no
// trace of the possession it held before. With flows set it also compares
// the flow bound, which reads only the initial possession.
func checkBounds(t *testing.T, name string, inst *core.Instance, possess []tokenset.Set, reused *core.Arrivals, flows bool) {
	t.Helper()
	p := possess
	if p == nil {
		p = inst.Have
	}
	want := refMakespanLowerBound(inst, possess)
	if got := core.MakespanLowerBound(inst, possess); got != want {
		t.Errorf("%s: MakespanLowerBound = %d, reference %d", name, got, want)
	}
	reused.Refresh(possess)
	if got := reused.Bound(); got != want {
		t.Errorf("%s: refreshed Bound = %d, reference %d", name, got, want)
	}
	for v := 0; v < inst.N(); v++ {
		if got, want := reused.Receiver(v), refReceiver(inst, p, v); got != want {
			t.Errorf("%s: M(%d) = %d, reference %d", name, v, got, want)
		}
	}
	if possess != nil {
		return
	}
	if got, want := inst.Satisfiable(), refSatisfiable(inst); got != want {
		t.Errorf("%s: Satisfiable = %v, reference %v", name, got, want)
	}
	if !flows {
		return
	}
	got, err := flow.FlowMakespanLowerBound(inst)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if want, err := refFlowMakespanLowerBound(inst); err != nil || got != want {
		t.Errorf("%s: FlowMakespanLowerBound = %d, reference %d (%v)", name, got, want, err)
	}
}

// randomPossession returns a possession in which every vertex keeps its
// have set and holds each other token with probability p.
func randomPossession(rng *rand.Rand, inst *core.Instance, p float64) []tokenset.Set {
	possess := inst.InitialPossession()
	for v := range possess {
		for tok := 0; tok < inst.NumTokens; tok++ {
			if rng.Float64() < p {
				possess[v].Add(tok)
			}
		}
	}
	return possess
}

// withHave returns a copy of inst whose have sets are possess, so that
// Satisfiable and the flow bound can be compared under a partial
// possession too.
func withHave(inst *core.Instance, possess []tokenset.Set) *core.Instance {
	c := inst.Clone()
	for v := range possess {
		c.Have[v] = possess[v].Clone()
	}
	return c
}

// sparseDigraph draws an instance on a sparse digraph with one-way arcs, so
// that many receivers miss a token no holder reaches: n vertices, m tokens
// each held by one or two random vertices (by none one time in 40) and
// wanted by one to three, and each ordered pair an arc with probability p.
func sparseDigraph(rng *rand.Rand, n, m int, p float64) *core.Instance {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < p {
				_ = g.AddArc(u, v, 1+rng.Intn(3))
			}
		}
	}
	inst := core.NewInstance(g, m)
	for tok := 0; tok < m; tok++ {
		holders := 1 + rng.Intn(2)
		if rng.Intn(40) == 0 {
			holders = 0
		}
		for ; holders > 0; holders-- {
			inst.Have[rng.Intn(n)].Add(tok)
		}
		for w := 1 + rng.Intn(3); w > 0; w-- {
			inst.Want[rng.Intn(n)].Add(tok)
		}
	}
	return inst
}

// TestArrivalsMatchReference pins the table against the per-receiver
// loops it replaced: the makespan bound with and without a possession,
// M(v) of every receiver, Satisfiable and the flow bound, on the
// benchmark's four instance shapes, random partial possessions, sparse
// one-way digraphs (many unsatisfiable) and the tiny solver instances.
func TestArrivalsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := []struct {
		name string
		mk   func(g *graph.Graph, seed int64) (*core.Instance, error)
	}{
		{"single-file", func(g *graph.Graph, _ int64) (*core.Instance, error) { return workload.SingleFile(g, 40), nil }},
		{"density", func(g *graph.Graph, s int64) (*core.Instance, error) {
			return workload.ReceiverDensity(g, 40, 0.2, s), nil
		}},
		{"multifile", func(g *graph.Graph, _ int64) (*core.Instance, error) { return workload.MultiFile(g, 64, 8) }},
		{"multisender", func(g *graph.Graph, s int64) (*core.Instance, error) { return workload.MultiSender(g, 64, 8, s) }},
	}
	kinds := []struct {
		name string
		mk   func(n int, seed int64) (*graph.Graph, error)
	}{
		{"random", func(n int, s int64) (*graph.Graph, error) { return topology.Random(n, topology.DefaultCaps, s) }},
		{"transit-stub", func(n int, s int64) (*graph.Graph, error) { return topology.TransitStubN(n, topology.DefaultCaps, s) }},
	}
	for _, kind := range kinds {
		for _, n := range []int{20, 40} {
			for seed := int64(1); seed <= 2; seed++ {
				g, err := kind.mk(n, seed)
				if err != nil {
					t.Fatal(err)
				}
				for _, shape := range shapes {
					inst, err := shape.mk(g, seed)
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s/%s/n%d/s%d", shape.name, kind.name, n, seed)
					reused := core.NewArrivals(inst, nil)
					checkBounds(t, name, inst, nil, reused, true)
					for i, p := range []float64{0.02, 0.1, 0.4} {
						possess := randomPossession(rng, inst, p)
						checkBounds(t, fmt.Sprintf("%s/p%d", name, i), inst, possess, reused, false)
						held := withHave(inst, possess)
						checkBounds(t, fmt.Sprintf("%s/have%d", name, i), held, nil, core.NewArrivals(held, nil), true)
					}
				}
			}
		}
	}

	unsat := 0
	const digraphs = 240
	for i := 0; i < digraphs; i++ {
		n := 2 + rng.Intn(11)
		inst := sparseDigraph(rng, n, 1+rng.Intn(1+rng.Intn(70)), 0.1+0.5*rng.Float64())
		if !refSatisfiable(inst) {
			unsat++
		}
		name := fmt.Sprintf("digraph%d", i)
		reused := core.NewArrivals(inst, nil)
		checkBounds(t, name, inst, nil, reused, true)
		checkBounds(t, name+"/partial", inst, randomPossession(rng, inst, 0.2), reused, false)
		checkDist(t, name, inst, reused)
	}
	t.Logf("%d of %d sparse digraphs are unsatisfiable", unsat, digraphs)
	if unsat < digraphs/4 {
		t.Errorf("only %d of %d sparse digraphs are unsatisfiable; the stranded case is undertested", unsat, digraphs)
	}

	for _, n := range []int{5, 7} {
		for i, inst := range experiments.RandomTinyInstances(3, 60, n, 3) {
			name := fmt.Sprintf("tiny/n%d/i%d", n, i)
			reused := core.NewArrivals(inst, nil)
			checkBounds(t, name, inst, nil, reused, true)
			checkBounds(t, name+"/partial", inst, randomPossession(rng, inst, 0.3), reused, false)
		}
	}
}

// checkDist compares d_t(v) with the reverse BFS distance from v to the
// nearest holder of t, for every token some vertex misses, after
// refreshing a, a table of inst, to the initial possession.
func checkDist(t *testing.T, name string, inst *core.Instance, a *core.Arrivals) {
	t.Helper()
	a.Refresh(nil)
	needed := tokenset.New(inst.NumTokens)
	for v := 0; v < inst.N(); v++ {
		needed.UnionWith(inst.Want[v].Difference(inst.Have[v]))
	}
	for v := 0; v < inst.N(); v++ {
		back := inst.G.BFSTo(v)
		needed.ForEach(func(tok int) bool {
			want := -1
			for u, d := range back {
				if d >= 0 && inst.Have[u].Has(tok) && (want < 0 || d < want) {
					want = d
				}
			}
			if got := a.Dist(tok, v); got != want {
				t.Errorf("%s: d_%d(%d) = %d, reference %d", name, tok, v, got, want)
			}
			return true
		})
	}
}

package core_test

// The functions below are the per-receiver implementations that the
// Arrivals table replaced, kept verbatim under renamed identifiers as the
// reference for TestArrivalsMatchReference and FuzzMakespanLowerBound: the
// radius bound ran one reverse BFS per receiver, Satisfiable one more, and
// the flow bound a third for its nearest holder. refPrune, the last of
// them, is the Prune that the position buffer replaced, kept the same way
// as the reference for TestPruneMatchesReference and FuzzPrune: it copied
// every first delivery into a per-step slice, and every survivor into a
// second one. refReplayConstraints is the replay that core.Validate and
// core.ValidateConstraints ran before core.Replay, kept the same way as
// the reference for TestReplayMatchesReference.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ocd/internal/core"
	"ocd/internal/experiments"
	"ocd/internal/flow"
	"ocd/internal/graph"
	"ocd/internal/heuristics"
	"ocd/internal/sim"
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

func refPrune(inst *core.Instance, sched *core.Schedule) *core.Schedule {
	// Pass 1: drop duplicate deliveries. A move is redundant if the
	// destination already possesses the token at the moment of delivery
	// (including an earlier kept move in the same timestep). Marking the
	// possession as each move is kept makes the within-step duplicate check
	// the same O(1) set probe as the cross-step one: pass 1 never reads
	// cur[v] for anything except (destination, token) membership, so the
	// early add is indistinguishable from the end-of-step add.
	cur := inst.InitialPossession()
	kept := make([]core.Step, len(sched.Steps))
	for i, st := range sched.Steps {
		for _, mv := range st {
			if cur[mv.To].Has(mv.Token) {
				continue // duplicate delivery
			}
			cur[mv.To].Add(mv.Token)
			kept[i] = append(kept[i], mv)
		}
	}

	// Pass 2: backward sweep. needed[v] holds the tokens vertex v must
	// possess because it wants them or because a kept later move sends
	// them from v.
	needed := make([]tokenset.Set, inst.N())
	for v := range needed {
		needed[v] = inst.Want[v].Clone()
	}
	final := make([]core.Step, len(kept))
	for i := len(kept) - 1; i >= 0; i-- {
		for _, mv := range kept[i] {
			if !needed[mv.To].Has(mv.Token) {
				continue // delivery never used downstream
			}
			final[i] = append(final[i], mv)
		}
		for _, mv := range final[i] {
			// The sender must possess the token before this step; protect
			// its (unique, by pass 1) earlier delivery or initial copy.
			needed[mv.From].Add(mv.Token)
		}
	}

	out := &core.Schedule{}
	for _, st := range final {
		if len(st) > 0 {
			out.Steps = append(out.Steps, st)
		}
	}
	return out
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

// checkPrune compares Prune with refPrune on one schedule, move for move,
// and checks that every output step is capped at its length: appending to
// one step must leave the others unchanged.
func checkPrune(t *testing.T, name string, inst *core.Instance, sched *core.Schedule) {
	t.Helper()
	got, want := core.Prune(inst, sched), refPrune(inst, sched)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Prune kept %d moves in %d steps, reference %d in %d:\n got %v\nwant %v",
			name, got.Moves(), got.Makespan(), want.Moves(), want.Makespan(), got.Steps, want.Steps)
	}
	before := got.Clone()
	for i := range got.Steps {
		_ = append(got.Steps[i], core.Move{From: -1, To: -1, Token: -1})
		for j := range got.Steps {
			if !slices.Equal(got.Steps[j], before.Steps[j]) {
				t.Fatalf("%s: appending to pruned step %d overwrote step %d", name, i, j)
			}
		}
	}
}

// TestPruneMatchesReference pins Prune against the two-pass implementation
// it replaced: random valid and flooded schedules on small random trees,
// and full Round Robin, Random and Global runs on single-file and
// multi-sender instances of Random(60).
func TestPruneMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(6)
		m := 1 + rng.Intn(4)
		g := graph.New(n)
		perm := rng.Perm(n)
		for i := 1; i < n; i++ {
			if err := g.AddEdge(perm[i], perm[rng.Intn(i)], 1+rng.Intn(2)); err != nil {
				t.Fatal(err)
			}
		}
		inst := core.NewInstance(g, m)
		for tok := 0; tok < m; tok++ {
			inst.Have[rng.Intn(n)].Add(tok)
			inst.Want[rng.Intn(n)].Add(tok)
			inst.Want[rng.Intn(n)].Add(tok)
		}
		checkPrune(t, fmt.Sprintf("random-valid/%d", trial), inst, core.RandomValidSchedule(t, inst, rng))
		checkPrune(t, fmt.Sprintf("flood/%d", trial), inst, core.FloodSchedule(inst))
	}

	g, err := topology.Random(60, topology.DefaultCaps, 1)
	if err != nil {
		t.Fatal(err)
	}
	sender, err := workload.MultiSender(g, 64, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		inst *core.Instance
	}{
		{"single-file", workload.SingleFile(g, 40)},
		{"multisender", sender},
	} {
		for _, h := range []string{"roundrobin", "random", "global"} {
			factory, ok := heuristics.Named(h)
			if !ok {
				t.Fatalf("no heuristic %q", h)
			}
			res, err := sim.Run(c.inst, factory, sim.Options{Seed: 1})
			if err != nil || !res.Completed {
				t.Fatalf("%s/%s: completed=%v err=%v", c.name, h, res != nil && res.Completed, err)
			}
			checkPrune(t, c.name+"/"+h, c.inst, res.Schedule)
		}
	}
}

func refReplayConstraints(inst *core.Instance, sched *core.Schedule) ([]tokenset.Set, error) {
	if err := inst.Check(); err != nil {
		return nil, err
	}
	cur := inst.InitialPossession()
	used := make([]int, inst.G.NumArcs())
	arcs := inst.G.ArcRun()
	for i, st := range sched.Steps {
		clear(used)
		for _, mv := range st {
			if mv.Token < 0 || mv.Token >= inst.NumTokens {
				return nil, &core.ValidationError{Step: i, Move: mv, Reason: "token out of range"}
			}
			id := arcs.ID(mv.From, mv.To)
			if id < 0 {
				return nil, &core.ValidationError{Step: i, Move: mv, Reason: "arc does not exist"}
			}
			capacity := inst.G.CapByID(id)
			used[id]++
			if used[id] > capacity {
				return nil, &core.ValidationError{
					Step: i, Move: mv,
					Reason: fmt.Sprintf("capacity %d exceeded", capacity),
				}
			}
			if !cur[mv.From].Has(mv.Token) {
				return nil, &core.ValidationError{
					Step: i, Move: mv,
					Reason: "sender does not possess token at start of timestep",
				}
			}
		}
		for _, mv := range st {
			cur[mv.To].Add(mv.Token)
		}
	}
	return cur, nil
}

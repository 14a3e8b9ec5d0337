package steiner

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"ocd/internal/core"
	"ocd/internal/graph"
	"ocd/internal/tokenset"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

// referenceForest is the forest bound from its definition: for each token
// t, the least |S| over the vertex sets S that contain every wanter
// lacking t, no holder of t, and only vertices that the holders reach
// inside S, that is, in the subgraph on the holders and S. Each vertex of
// S takes one in-arc of the forest. It reports false when no such S
// exists for some token. It enumerates all 2^n sets, so n ≤ 20.
func referenceForest(inst *core.Instance, possess []tokenset.Set) (int, bool) {
	n, total := inst.N(), 0
	for t := 0; t < inst.NumTokens; t++ {
		holders, lacking := 0, 0
		for v := 0; v < n; v++ {
			switch {
			case possess[v].Has(t):
				holders |= 1 << v
			case inst.Want[v].Has(t):
				lacking |= 1 << v
			}
		}
		best := -1
		for s := 0; s < 1<<n; s++ {
			if s&holders != 0 || s&lacking != lacking {
				continue
			}
			if size := bits.OnesCount(uint(s)); (best < 0 || size < best) && reachedInside(inst.G, holders, s) == s {
				best = size
			}
		}
		if best < 0 {
			return 0, false
		}
		total += best
	}
	return total, true
}

// reachedInside returns the vertices of s, as a bitmask, that the vertices
// of from reach along arcs whose heads lie in s.
func reachedInside(g *graph.Graph, from, s int) int {
	reached := from
	for grown := true; grown; {
		grown = false
		for _, a := range g.Arcs() {
			if reached>>a.From&1 == 1 && s>>a.To&1 == 1 && reached>>a.To&1 == 0 {
				reached |= 1 << a.To
				grown = true
			}
		}
	}
	return reached &^ from
}

// randomPossession draws a possession of inst: each (vertex, token) bit
// with probability 1/3, on top of the have sets when keepHave is set.
// Without them a token can lose every holder.
func randomPossession(rng *rand.Rand, inst *core.Instance, keepHave bool) []tokenset.Set {
	p := make([]tokenset.Set, inst.N())
	for v := range p {
		p[v] = tokenset.New(inst.NumTokens)
		if keepHave {
			p[v].UnionWith(inst.Have[v])
		}
		for t := 0; t < inst.NumTokens; t++ {
			if rng.Intn(3) == 0 {
				p[v].Add(t)
			}
		}
	}
	return p
}

// TestForestBoundValues pins the bound on instances small enough to
// solve by hand, one per way the forest can be shaped.
func TestForestBoundValues(t *testing.T) {
	line, err := topology.Line(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	star, err := topology.Star(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	arcs := func(n int, pairs ...[2]int) *graph.Graph {
		g := graph.New(n)
		for _, p := range pairs {
			if err := g.AddArc(p[0], p[1], 1); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	// broom: 0 reaches each of 11 terminals through its own relay, so the
	// forest has 22 arcs; 11 terminals exceed exactTerminals, and the
	// fallback reads max(k = 11, farthest = 2).
	broom := graph.New(23)
	for i := 1; i <= 11; i++ {
		if err := broom.AddArc(0, i, 1); err != nil {
			t.Fatal(err)
		}
		if err := broom.AddArc(i, i+11, 1); err != nil {
			t.Fatal(err)
		}
	}
	one := func(g *graph.Graph, holders, wanters []int) *core.Instance {
		inst := core.NewInstance(g, 1)
		for _, v := range holders {
			inst.Have[v].Add(0)
		}
		for _, v := range wanters {
			inst.Want[v].Add(0)
		}
		return inst
	}
	far := make([]int, 11)
	for i := range far {
		far[i] = 12 + i
	}
	// A line of 23 with its last 11 vertices wanting: past the cap, the
	// farthest terminal (22) dominates and is exact.
	long, err := topology.Line(23, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		inst       *core.Instance
		want, diff int // the bound, and its excess over the §5.1 count
	}{
		// The farthest distance (3) exceeds the terminal count (1).
		{"line, one far wanter", one(line, []int{0}, []int{3}), 3, 2},
		// Five terminals at distance 1: the count is the forest.
		{"star", workload.SingleFile(star, 1), 5, 0},
		// Two wanters behind their own relays: neither max(k, farthest)
		// = 2 nor the count sees the relays.
		{"two relays", one(arcs(5, [2]int{0, 1}, [2]int{1, 3}, [2]int{0, 2}, [2]int{2, 4}), []int{0}, []int{3, 4}), 4, 2},
		// The shared relay 1 is paid once.
		{"shared relay", one(arcs(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{1, 3}), []int{0}, []int{2, 3}), 3, 1},
		// A wanter on the path to another serves as its relay.
		{"wanter relays", one(line, []int{0}, []int{2, 3}), 3, 1},
		// Each wanter is served by its nearer holder: a forest, not a tree.
		{"two holders", one(line, []int{0, 3}, []int{1, 2}), 2, 0},
		// Arc direction counts: 2 reaches 0 only the long way round.
		{"one-way ring", one(arcs(3, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0}), []int{2}, []int{0, 1}), 2, 0},
		{"one-way ring, far", one(arcs(3, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0}), []int{1}, []int{0}), 2, 1},
		{"broom, past the cap", one(broom, []int{0}, far), 11, 0},
		{"line, past the cap", one(long, []int{0}, far), 22, 11},
		{"nothing lacking", one(line, []int{0, 3}, []int{0, 3}), 0, 0},
	} {
		got, ok := NewForestBound(c.inst).Bound(c.inst.Have)
		if !ok || got != c.want {
			t.Errorf("%s: bound %d (ok %v), want %d", c.name, got, ok, c.want)
		}
		if count := core.BandwidthLowerBound(c.inst, nil); got-count != c.diff {
			t.Errorf("%s: bound %d exceeds the count %d by %d, want %d", c.name, got, count, got-count, c.diff)
		}
	}
	// Arcs only lead away from 3, so it cannot be served.
	inst := one(arcs(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{3, 2}), []int{0}, []int{2, 3})
	if got, ok := NewForestBound(inst).Bound(inst.Have); ok {
		t.Errorf("unreachable wanter: bound %d reported reachable", got)
	}
}

// TestForestBoundMatchesReference requires Dreyfus–Wagner to give the
// definitional forest, or the same unreachable verdict, on
// RandomTinyInstances at n = 2–7 from the initial possession and from
// random ones, half of which may strip a token of every holder. Those
// instances give a token at most two wanters, so it also decodes 2,000
// random inputs of FuzzForestBoundMatchesReference: directed, with any
// number of wanters.
func TestForestBoundMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	exact, unreachable, wide := 0, 0, 0
	for i := 0; i < 2000; i++ {
		data := make([]byte, 2+rng.Intn(40))
		rng.Read(data)
		inst, possess := decodeForestInput(data)
		got, ok := NewForestBound(inst).Bound(possess)
		want, wantOK := referenceForest(inst, possess)
		if ok != wantOK || got != want {
			t.Fatalf("input %x: bound %d (ok %v), reference %d (ok %v)", data, got, ok, want, wantOK)
		}
		for tok := 0; tok < inst.NumTokens; tok++ {
			lacking := 0
			for v := 0; v < inst.N(); v++ {
				if inst.Want[v].Has(tok) && !possess[v].Has(tok) {
					lacking++
				}
			}
			if ok && lacking >= 3 {
				wide++
			}
		}
	}
	for n := 2; n <= 7; n++ {
		for i, inst := range workload.RandomTinyInstances(int64(n), 60, n, 1+n%3) {
			f := NewForestBound(inst)
			for k := 0; k < 5; k++ {
				possess := inst.Have
				if k > 0 {
					possess = randomPossession(rng, inst, k%2 == 0)
				}
				got, ok := f.Bound(possess)
				want, wantOK := referenceForest(inst, possess)
				if ok != wantOK || got != want {
					t.Fatalf("n%d/%d possession %d: bound %d (ok %v), reference %d (ok %v)", n, i, k, got, ok, want, wantOK)
				}
				if ok {
					exact++
				} else {
					unreachable++
				}
			}
		}
	}
	t.Logf("%d bounds match the reference, %d unreachable verdicts; %d tokens of the decoded inputs with 3 or more lacking wanters",
		exact, unreachable, wide)
	if exact == 0 || unreachable == 0 || wide == 0 {
		t.Errorf("%d matched bounds, %d unreachable verdicts, %d tokens with 3 or more lacking wanters: the draws no longer cover all three",
			exact, unreachable, wide)
	}
}

// relabeled returns a copy of inst and possess with vertex v renamed
// vperm[v], token t renamed tperm[t] and arc capacities drawn from capOf.
func relabeled(inst *core.Instance, possess []tokenset.Set, vperm, tperm []int, capOf func(graph.Arc) int) (*core.Instance, []tokenset.Set) {
	n, m := inst.N(), inst.NumTokens
	g := graph.New(n)
	for _, a := range inst.G.Arcs() {
		_ = g.AddArc(vperm[a.From], vperm[a.To], capOf(a))
	}
	out := core.NewInstance(g, m)
	p := make([]tokenset.Set, n)
	for v := range p {
		p[vperm[v]] = tokenset.New(m)
		for t := 0; t < m; t++ {
			if inst.Have[v].Has(t) {
				out.Have[vperm[v]].Add(tperm[t])
			}
			if inst.Want[v].Has(t) {
				out.Want[vperm[v]].Add(tperm[t])
			}
			if possess[v].Has(t) {
				p[vperm[v]].Add(tperm[t])
			}
		}
	}
	return out, p
}

// TestForestBoundMetamorphic checks the bound's invariances on
// RandomTinyInstances at n = 3–7 from random possessions that keep the
// have sets: renaming vertices or tokens and changing capacities leave it
// unchanged, one more holder or one fewer want never raises it, and it is
// never below the §5.1 count.
func TestForestBoundMetamorphic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	identity := func(k int) []int {
		p := make([]int, k)
		for i := range p {
			p[i] = i
		}
		return p
	}
	sameCap := func(a graph.Arc) int { return a.Cap }
	for n := 3; n <= 7; n++ {
		for i, inst := range workload.RandomTinyInstances(int64(10+n), 40, n, 3) {
			possess := inst.Have
			if i%2 == 1 {
				possess = randomPossession(rng, inst, true)
			}
			label := fmt.Sprintf("n%d/%d", n, i)
			base, ok := NewForestBound(inst).Bound(possess)
			if !ok {
				t.Fatalf("%s: a wanter is unreachable on a connected graph", label)
			}
			if count := core.BandwidthLowerBound(inst, possess); base < count {
				t.Errorf("%s: bound %d below the count %d", label, base, count)
			}
			for _, variant := range []struct {
				name         string
				vperm, tperm []int
				capOf        func(graph.Arc) int
			}{
				{"vertices renamed", rng.Perm(n), identity(3), sameCap},
				{"tokens renamed", identity(n), rng.Perm(3), sameCap},
				{"capacities drawn", identity(n), identity(3), func(graph.Arc) int { return 1 + rng.Intn(3) }},
			} {
				other, p := relabeled(inst, possess, variant.vperm, variant.tperm, variant.capOf)
				if got, ok := NewForestBound(other).Bound(p); !ok || got != base {
					t.Errorf("%s, %s: bound %d (ok %v), was %d", label, variant.name, got, ok, base)
				}
			}
			v, tok := rng.Intn(n), rng.Intn(3)
			fewer, p := relabeled(inst, possess, identity(n), identity(3), sameCap)
			fewer.Want[v].Remove(tok)
			if got, _ := NewForestBound(fewer).Bound(p); got > base {
				t.Errorf("%s: want (%d, %d) removed, bound rose from %d to %d", label, v, tok, base, got)
			}
			p[v].Add(tok)
			if got, _ := NewForestBound(inst).Bound(p); got > base {
				t.Errorf("%s: holder (%d, %d) added, bound rose from %d to %d", label, v, tok, base, got)
			}
		}
	}
}

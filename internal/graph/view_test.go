package graph_test

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"ocd/internal/graph"
	"ocd/internal/topology"
)

// shuffledGraph builds a random digraph whose arcs are inserted in random
// order, some of them twice so that capacities merge.
func shuffledGraph(t *testing.T, rng *rand.Rand, n int, p float64) *graph.Graph {
	t.Helper()
	var arcs []graph.Arc
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < p {
				arcs = append(arcs, graph.Arc{From: u, To: v, Cap: 1 + rng.Intn(9)})
				if rng.Intn(8) == 0 {
					arcs = append(arcs, graph.Arc{From: u, To: v, Cap: 1 + rng.Intn(3)})
				}
			}
		}
	}
	rng.Shuffle(len(arcs), func(i, j int) { arcs[i], arcs[j] = arcs[j], arcs[i] })
	g := graph.New(n)
	for _, a := range arcs {
		if err := g.AddArc(a.From, a.To, a.Cap); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// rebuilt is the reference a view must match: a fresh graph over the
// base arcs of positive capacity, added in (From, To) order.
func rebuilt(t *testing.T, base *graph.Graph, caps []int) *graph.Graph {
	t.Helper()
	g := graph.New(base.N())
	for _, a := range base.Arcs() {
		if c := caps[base.ArcID(a.From, a.To)]; c > 0 {
			if err := g.AddArc(a.From, a.To, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

// unsortedInsertion reports whether some vertex's base out- or in-list is
// not in endpoint order, i.e. whether the view has to reorder anything.
func unsortedInsertion(g *graph.Graph) bool {
	for u := 0; u < g.N(); u++ {
		out, in := g.Out(u), g.In(u)
		if !sort.SliceIsSorted(out, func(i, j int) bool { return out[i].To < out[j].To }) ||
			!sort.SliceIsSorted(in, func(i, j int) bool { return in[i].From < in[j].From }) {
			return true
		}
	}
	return false
}

// sameArcs compares adjacency lists, treating nil and empty alike.
func sameArcs(a, b []graph.Arc) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

func checkViewMatches(t *testing.T, label string, base, view *graph.Graph, caps []int) {
	t.Helper()
	ref := rebuilt(t, base, caps)
	if !reflect.DeepEqual(view.Arcs(), ref.Arcs()) {
		t.Fatalf("%s: Arcs() = %v, want %v", label, view.Arcs(), ref.Arcs())
	}
	if view.NumArcs() != base.NumArcs() {
		t.Errorf("%s: NumArcs = %d, want the base's %d", label, view.NumArcs(), base.NumArcs())
	}
	for u := 0; u < base.N(); u++ {
		if !sameArcs(view.Out(u), ref.Out(u)) || !sameArcs(view.In(u), ref.In(u)) {
			t.Fatalf("%s: vertex %d: Out %v In %v, want Out %v In %v",
				label, u, view.Out(u), view.In(u), ref.Out(u), ref.In(u))
		}
		if view.OutDegree(u) != ref.OutDegree(u) || view.InDegree(u) != ref.InDegree(u) ||
			view.OutCapacity(u) != ref.OutCapacity(u) || view.InCapacity(u) != ref.InCapacity(u) {
			t.Fatalf("%s: vertex %d: degrees or capacities differ from the rebuilt graph", label, u)
		}
		for i, a := range view.Out(u) {
			if got := int(view.OutArcIDs(u)[i]); got != base.ArcID(a.From, a.To) {
				t.Fatalf("%s: OutArcIDs(%d)[%d] = %d, want base ID %d", label, u, i, got, base.ArcID(a.From, a.To))
			}
		}
		for i, a := range view.In(u) {
			if got := int(view.InArcIDs(u)[i]); got != base.ArcID(a.From, a.To) {
				t.Fatalf("%s: InArcIDs(%d)[%d] = %d, want base ID %d", label, u, i, got, base.ArcID(a.From, a.To))
			}
		}
	}
	if !reflect.DeepEqual(view.BFSFrom(0), ref.BFSFrom(0)) {
		t.Errorf("%s: BFSFrom(0) differs from the rebuilt graph", label)
	}
	for _, a := range base.Arcs() {
		id := base.ArcID(a.From, a.To)
		c := max(caps[id], 0)
		if got := view.CapsByID()[id]; got != c {
			t.Errorf("%s: CapsByID()[%d] = %d, want %d", label, id, got, c)
		}
		wantID := id
		if c == 0 {
			wantID = -1
		}
		if got := view.ArcID(a.From, a.To); got != wantID {
			t.Errorf("%s: ArcID(%d,%d) = %d, want %d", label, a.From, a.To, got, wantID)
		}
		if view.HasArc(a.From, a.To) != (c > 0) || view.Cap(a.From, a.To) != c {
			t.Errorf("%s: arc %d→%d: HasArc %v Cap %d, want capacity %d",
				label, a.From, a.To, view.HasArc(a.From, a.To), view.Cap(a.From, a.To), c)
		}
	}
	// 1<<32 in either slot would alias an in-range pair in the packed key
	// if lookups did not range-check first.
	for _, uv := range [][2]int{{-1, 0}, {0, -1}, {base.N(), 0}, {0, base.N()}, {1 << 32, 1}, {0, 1 << 32}} {
		if view.ArcID(uv[0], uv[1]) != -1 || view.HasArc(uv[0], uv[1]) || view.Cap(uv[0], uv[1]) != 0 {
			t.Errorf("%s: out-of-range pair %v answered as an arc", label, uv)
		}
	}
}

// TestViewMatchesRebuiltGraph checks a refreshed view against the graph
// the fault engine used to rebuild every step, over graphs whose arcs
// were not inserted in endpoint order and capacity vectors with zeros.
func TestViewMatchesRebuiltGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var bases []*graph.Graph
	for i := 0; i < 12; i++ {
		bases = append(bases, shuffledGraph(t, rng, 2+rng.Intn(24), 0.1+0.4*rng.Float64()))
	}
	for seed := int64(1); seed <= 4; seed++ {
		ts, err := topology.TransitStubN(40+20*int(seed), topology.DefaultCaps, seed)
		if err != nil {
			t.Fatal(err)
		}
		r, err := topology.Random(30, topology.DefaultCaps, seed)
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, ts, r)
	}
	unsorted := 0
	for bi, base := range bases {
		if unsortedInsertion(base) {
			unsorted++
		}
		v := graph.NewView(base)
		view := v.Graph()
		checkViewMatches(t, "fresh view", base, view, base.CapsByID())
		caps := make([]int, base.NumArcs())
		for round := 0; round < 6; round++ {
			zeroP := rng.Float64()
			for id := range caps {
				switch {
				case rng.Float64() < zeroP:
					caps[id] = 0
				case rng.Intn(10) == 0:
					caps[id] = -1 - rng.Intn(3) // a model may undershoot; the view clamps
				default:
					caps[id] = 1 + rng.Intn(12)
				}
			}
			v.Refresh(caps)
			checkViewMatches(t, "refresh", base, view, caps)
		}
		// Masking everything and then restoring the base must leave no
		// stale arcs behind in either direction.
		clear(caps)
		v.Refresh(caps)
		checkViewMatches(t, "all masked", base, view, caps)
		v.Refresh(base.CapsByID())
		checkViewMatches(t, "restored", base, view, base.CapsByID())
		if v.Graph() != view {
			t.Fatalf("graph %d: Refresh replaced the view's graph", bi)
		}
		if err := view.AddArc(0, 1, 1); err == nil {
			t.Fatalf("graph %d: AddArc on a view succeeded", bi)
		}
		if allocs := testing.AllocsPerRun(10, func() { v.Refresh(caps) }); allocs != 0 {
			t.Errorf("graph %d: Refresh allocated %.0f times", bi, allocs)
		}
	}
	if unsorted < len(bases)/2 {
		t.Fatalf("only %d of %d base graphs have out-of-order adjacency; the test no longer exercises reordering",
			unsorted, len(bases))
	}
}

// TestViewsOfOneBaseConcurrently refreshes and reads several views of one
// base from separate goroutines, as concurrent fault-engine cells do;
// under -race it shows that views share nothing mutable.
func TestViewsOfOneBaseConcurrently(t *testing.T) {
	base, err := topology.TransitStubN(60, topology.DefaultCaps, 3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			v := graph.NewView(base)
			caps := make([]int, base.NumArcs())
			for round := 0; round < 50; round++ {
				for id := range caps {
					caps[id] = rng.Intn(3) * base.CapByID(id)
				}
				v.Refresh(caps)
				for _, a := range base.Arcs() {
					id := base.ArcID(a.From, a.To)
					if got := v.Graph().Cap(a.From, a.To); got != caps[id] {
						t.Errorf("worker %d: Cap(%d,%d) = %d, want %d", seed, a.From, a.To, got, caps[id])
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestViewArcGeneration pins the arc-set generation that strategy caches
// key on: a Refresh that only changes capacities of present arcs leaves it
// alone, and one that masks or unmasks any arc advances it.
func TestViewArcGeneration(t *testing.T) {
	base := shuffledGraph(t, rand.New(rand.NewSource(5)), 12, 0.3)
	view := graph.NewView(base)
	g := view.Graph()
	caps := append([]int(nil), base.CapsByID()...)
	steps := []struct {
		what    string
		edit    func()
		advance bool
	}{
		{"same capacities", func() {}, false},
		{"capacity change, arc stays present", func() { caps[0] += 3 }, false},
		{"arc masked", func() { caps[1] = 0 }, true},
		{"masked arc stays masked at a negative capacity", func() { caps[1] = -2 }, false},
		{"arc unmasked", func() { caps[1] = 1 }, true},
	}
	for _, s := range steps {
		before := g.ArcGeneration()
		s.edit()
		view.Refresh(caps)
		if got := g.ArcGeneration() != before; got != s.advance {
			t.Errorf("%s: generation advanced = %v, want %v", s.what, got, s.advance)
		}
	}
}

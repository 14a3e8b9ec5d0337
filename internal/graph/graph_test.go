package graph

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

func mustAdd(t *testing.T, g *Graph, u, v, c int) {
	t.Helper()
	if err := g.AddArc(u, v, c); err != nil {
		t.Fatalf("AddArc(%d,%d,%d): %v", u, v, c, err)
	}
}

func TestAddArcBasics(t *testing.T) {
	g := New(3)
	mustAdd(t, g, 0, 1, 5)
	if !g.HasArc(0, 1) || g.HasArc(1, 0) {
		t.Error("arc direction wrong")
	}
	if got := g.Cap(0, 1); got != 5 {
		t.Errorf("Cap = %d, want 5", got)
	}
	if got := g.NumArcs(); got != 1 {
		t.Errorf("NumArcs = %d, want 1", got)
	}
	if got := g.OutDegree(0); got != 1 {
		t.Errorf("OutDegree(0) = %d", got)
	}
	if got := g.InDegree(1); got != 1 {
		t.Errorf("InDegree(1) = %d", got)
	}
}

func TestMultiArcMergesCapacity(t *testing.T) {
	g := New(2)
	mustAdd(t, g, 0, 1, 3)
	mustAdd(t, g, 0, 1, 4)
	if got := g.Cap(0, 1); got != 7 {
		t.Errorf("merged Cap = %d, want 7", got)
	}
	if got := g.NumArcs(); got != 1 {
		t.Errorf("NumArcs after merge = %d, want 1", got)
	}
	// The adjacency lists must agree with the merged capacity.
	if got := g.Out(0)[0].Cap; got != 7 {
		t.Errorf("Out list Cap = %d, want 7", got)
	}
	if got := g.In(1)[0].Cap; got != 7 {
		t.Errorf("In list Cap = %d, want 7", got)
	}
}

func TestAddArcErrors(t *testing.T) {
	g := New(3)
	if err := g.AddArc(0, 3, 1); !errors.Is(err, ErrVertexRange) {
		t.Errorf("out-of-range arc: err = %v", err)
	}
	if err := g.AddArc(-1, 0, 1); !errors.Is(err, ErrVertexRange) {
		t.Errorf("negative vertex: err = %v", err)
	}
	if err := g.AddArc(1, 1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddArc(0, 1, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if err := g.AddArc(0, 1, -2); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestAddEdgeSymmetric(t *testing.T) {
	g := New(2)
	if err := g.AddEdge(0, 1, 4); err != nil {
		t.Fatal(err)
	}
	if g.Cap(0, 1) != 4 || g.Cap(1, 0) != 4 {
		t.Error("AddEdge not symmetric")
	}
}

// line returns 0→1→…→n−1 (directed one way only).
func line(t *testing.T, n int) *Graph {
	t.Helper()
	g := New(n)
	for i := 0; i+1 < n; i++ {
		mustAdd(t, g, i, i+1, 1)
	}
	return g
}

func TestBFSFrom(t *testing.T) {
	g := line(t, 4)
	dist := g.BFSFrom(0)
	want := []int{0, 1, 2, 3}
	for v, d := range want {
		if dist[v] != d {
			t.Errorf("dist[%d] = %d, want %d", v, dist[v], d)
		}
	}
	// Reverse direction is unreachable.
	if d := g.BFSFrom(3); d[0] != -1 {
		t.Errorf("BFSFrom(3)[0] = %d, want -1", d[0])
	}
}

func TestBFSTo(t *testing.T) {
	g := line(t, 4)
	dist := g.BFSTo(3)
	want := []int{3, 2, 1, 0}
	for v, d := range want {
		if dist[v] != d {
			t.Errorf("distTo[%d] = %d, want %d", v, dist[v], d)
		}
	}
}

func TestMultiSourceBFSFrom(t *testing.T) {
	g := line(t, 5)
	dist := g.MultiSourceBFSFrom([]int{0, 3})
	want := []int{0, 1, 2, 0, 1}
	for v, d := range want {
		if dist[v] != d {
			t.Errorf("multi distFrom[%d] = %d, want %d", v, dist[v], d)
		}
	}
	// Against the arcs nothing is reached; no source reaches nothing.
	for v, d := range g.MultiSourceBFSFrom([]int{4}) {
		if (v == 4) != (d == 0) || (v != 4 && d != -1) {
			t.Errorf("distFrom(4)[%d] = %d on a one-way line", v, d)
		}
	}
	for _, d := range g.MultiSourceBFSFrom(nil) {
		if d != -1 {
			t.Error("empty sources produced finite distance")
		}
	}
}

func TestMultiSourceBFSTo(t *testing.T) {
	g := line(t, 5)
	dist := g.MultiSourceBFSTo([]int{2, 4})
	want := []int{2, 1, 0, 1, 0}
	for v, d := range want {
		if dist[v] != d {
			t.Errorf("multi distTo[%d] = %d, want %d", v, dist[v], d)
		}
	}
	// Empty target list: all unreachable.
	for _, d := range g.MultiSourceBFSTo(nil) {
		if d != -1 {
			t.Error("empty targets produced finite distance")
		}
	}
}

func TestDiameterAndConnectivity(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	if got := g.Diameter(); got != 2 {
		t.Errorf("Diameter = %d, want 2", got)
	}
	if !g.StronglyConnected() {
		t.Error("bidirectional path not strongly connected")
	}
	// One-way line is not strongly connected and has no finite diameter.
	l := line(t, 3)
	if l.StronglyConnected() {
		t.Error("one-way line reported strongly connected")
	}
	if got := l.Diameter(); got != -1 {
		t.Errorf("one-way line Diameter = %d, want -1", got)
	}
}

func TestInOutCapacity(t *testing.T) {
	g := New(3)
	mustAdd(t, g, 0, 2, 3)
	mustAdd(t, g, 1, 2, 4)
	mustAdd(t, g, 2, 0, 5)
	if got := g.InCapacity(2); got != 7 {
		t.Errorf("InCapacity(2) = %d, want 7", got)
	}
	if got := g.OutCapacity(2); got != 5 {
		t.Errorf("OutCapacity(2) = %d, want 5", got)
	}
}

func TestArcsSortedAndClone(t *testing.T) {
	g := New(3)
	mustAdd(t, g, 2, 0, 1)
	mustAdd(t, g, 0, 1, 2)
	mustAdd(t, g, 0, 2, 3)
	arcs := g.Arcs()
	if arcs[0].From != 0 || arcs[0].To != 1 || arcs[2].From != 2 {
		t.Errorf("Arcs not sorted: %v", arcs)
	}
	c := g.Clone()
	if c.NumArcs() != g.NumArcs() || c.Cap(0, 2) != 3 {
		t.Error("Clone lost arcs")
	}
	mustAdd(t, c, 1, 2, 1)
	if g.HasArc(1, 2) {
		t.Error("Clone shares state with original")
	}
}

func TestDOT(t *testing.T) {
	g := New(2)
	mustAdd(t, g, 0, 1, 9)
	// The name is quoted: an unquoted DOT ID admits only letters, digits
	// and underscores, so "transit-stub" would not parse bare.
	for _, name := range []string{"test", "transit-stub"} {
		dot := g.DOT(name)
		if !strings.HasPrefix(dot, "digraph \""+name+"\" {\n") || !strings.Contains(dot, "0 -> 1 [label=9]") {
			t.Errorf("DOT output malformed:\n%s", dot)
		}
	}
}

func TestAllPairsMatchesBFS(t *testing.T) {
	g := New(4)
	mustAdd(t, g, 0, 1, 1)
	mustAdd(t, g, 1, 2, 1)
	mustAdd(t, g, 2, 3, 1)
	mustAdd(t, g, 3, 0, 1)
	ap := g.AllPairs()
	for u := 0; u < 4; u++ {
		bfs := g.BFSFrom(u)
		for v := 0; v < 4; v++ {
			if ap[u][v] != bfs[v] {
				t.Errorf("AllPairs[%d][%d] = %d, BFS = %d", u, v, ap[u][v], bfs[v])
			}
		}
	}
}

// TestArcRun checks the run rule: an ArcRun answers ArcID for every pair,
// looks up again whenever From or To changes, and matches nothing before
// its first lookup.
func TestArcRun(t *testing.T) {
	g := New(4)
	mustAdd(t, g, 0, 1, 3)
	mustAdd(t, g, 0, 3, 1)
	mustAdd(t, g, 1, 0, 1)
	for _, first := range [][2]int{{0, 0}, {-1, -1}, {0, 2}} {
		r := g.ArcRun()
		if got := r.ID(first[0], first[1]); got != -1 {
			t.Errorf("first pair %v: ID = %d, want -1", first, got)
		}
	}
	r := g.ArcRun()
	for _, p := range [][2]int{{0, 1}, {0, 1}, {0, 2}, {0, 3}, {0, 3}, {1, 0}, {1, 0}, {0, 1}, {3, 0}, {-1, 1}, {0, 1}} {
		if got, want := r.ID(p[0], p[1]), g.ArcID(p[0], p[1]); got != want {
			t.Errorf("ID%v = %d, want %d", p, got, want)
		}
	}

	// Vertex 0's out-list is 0→2, 0→4, 0→1, 0→5, 0→3: insertion order, so
	// a run in that order is found along the list.
	g = New(6)
	for _, head := range []int{2, 4, 1, 5, 3} {
		mustAdd(t, g, 0, head, head)
	}
	mustAdd(t, g, 1, 0, 1)
	mustAdd(t, g, 4, 5, 1)
	mustAdd(t, g, 5, 0, 1)
	// sorted lists vertex 0's heads in ascending order, as topology.Random
	// does; its view masks 0→3, so a strategy planning on the view
	// proposes 0→1, 0→2, 0→4, 0→5.
	sorted := New(6)
	for head := 1; head < 6; head++ {
		mustAdd(t, sorted, 0, head, 1)
	}
	view := NewView(sorted)
	caps := append([]int(nil), sorted.CapsByID()...)
	caps[sorted.ArcID(0, 3)] = 0
	view.Refresh(caps)
	for _, tc := range []struct {
		name  string
		g     *Graph
		pairs [][2]int
		// found[i] is where pairs[i] sits in its tail's out-list when the
		// walk along that list answers it, or -1 when the index does.
		found []int
	}{
		{"ordered run along the out-list", g, [][2]int{{0, 2}, {0, 4}, {0, 1}, {0, 5}, {0, 3}}, []int{-1, 1, 2, 3, 4}},
		{"ordered run skipping heads", g, [][2]int{{0, 2}, {0, 5}, {0, 3}}, []int{-1, 3, 4}},
		{"head behind the walk", g, [][2]int{{0, 2}, {0, 5}, {0, 4}, {0, 3}}, []int{-1, 3, -1, 4}},
		{"view's run on the base", sorted, [][2]int{{0, 1}, {0, 2}, {0, 4}, {0, 5}}, []int{-1, 1, 3, 4}},
		{"masked view arc mid-run", view.Graph(), [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}, []int{-1, 1, -1, 2, 3}},
		{"missing arc mid-run", g, [][2]int{{0, 2}, {0, 0}, {0, 4}, {0, 9}, {0, 5}}, []int{-1, -1, 1, -1, 3}},
		{"tail change", g, [][2]int{{0, 2}, {0, 4}, {4, 5}, {0, 1}, {1, 0}, {5, 0}, {0, 5}}, []int{-1, 1, -1, -1, -1, -1, -1}},
		{"out-of-range vertices", g, [][2]int{{-1, 0}, {-1, 2}, {6, 0}, {6, 1}, {0, -1}, {0, 6}, {0, 2}, {0, 7}, {0, 4}}, []int{-1, -1, -1, -1, -1, -1, 0, -1, 1}},
	} {
		r := tc.g.ArcRun()
		for i, p := range tc.pairs {
			if got, want := r.ID(p[0], p[1]), tc.g.ArcID(p[0], p[1]); got != want {
				t.Errorf("%s: ID%v = %d, want %d", tc.name, p, got, want)
			}
			if at := tc.found[i]; at >= 0 && r.next != at+1 {
				t.Errorf("%s: ID%v was not found at out-list position %d (next = %d)", tc.name, p, at, r.next)
			} else if at < 0 && r.next != 0 {
				t.Errorf("%s: ID%v was found along the out-list (next = %d), want an index lookup", tc.name, p, r.next)
			}
		}
	}
}

// FuzzArcRun replays fuzzed pair sequences through one ArcRun over a
// seeded random graph and over a view of it with arcs masked, and
// requires every answer to equal ArcID. data[0] seeds the graph and the
// mask; every further byte pair (a, b) is a pair whose tail repeats the
// previous one when a's top bit is set, out-of-range vertices included.
func FuzzArcRun(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0x80, 2, 0x80, 3, 1, 0})
	f.Add([]byte{7, 3, 4, 0x83, 0, 0x80, 9, 0x80, 1, 0x7f, 0xff})
	f.Add([]byte{200, 0, 0, 0x80, 0, 0x80, 5, 2, 2, 0x80, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		rng := rand.New(rand.NewSource(int64(data[0])))
		n := 2 + rng.Intn(9)
		g := New(n)
		for u := 0; u < n; u++ {
			for _, v := range rng.Perm(n) {
				if v != u && rng.Intn(2) == 0 {
					mustAdd(t, g, u, v, 1+rng.Intn(3))
				}
			}
		}
		view := NewView(g)
		caps := make([]int, g.NumArcs())
		for id := range caps {
			caps[id] = rng.Intn(3)
		}
		view.Refresh(caps)
		for _, h := range []*Graph{g, view.Graph()} {
			r := h.ArcRun()
			u := 0
			for b := data[1:]; len(b) >= 2; b = b[2:] {
				if b[0]&0x80 == 0 {
					u = int(b[0]&0x7f)%(n+2) - 1
				}
				v := int(b[1])%(n+2) - 1
				if got, want := r.ID(u, v), h.ArcID(u, v); got != want {
					t.Fatalf("view %v: ID(%d, %d) = %d, want %d", h.view, u, v, got, want)
				}
			}
		}
	})
}

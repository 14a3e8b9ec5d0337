package graph

import (
	"errors"
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
}

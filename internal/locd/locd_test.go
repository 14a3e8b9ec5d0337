package locd

import (
	"testing"

	"ocd/internal/graph"
	"ocd/internal/topology"
)

func TestPropagateLine(t *testing.T) {
	// On a one-way line, knowledge still flows both ways (§4.1).
	g := graph.New(4)
	for i := 0; i+1 < 4; i++ {
		if err := g.AddArc(i, i+1, 1); err != nil {
			t.Fatal(err)
		}
	}
	know := Propagate(g, 3)
	if know[0][0].Count() != 1 {
		t.Error("initial knowledge is not only self")
	}
	// After 1 step, interior vertices know both neighbors.
	if know[1][1].Count() != 3 {
		t.Errorf("vertex 1 knows %d after 1 step, want 3", know[1][1].Count())
	}
	// Vertex 0 learns about vertex 3 (3 hops away) exactly at step 3.
	if know[2][0].Has(3) {
		t.Error("knowledge traveled faster than one hop per step")
	}
	if !know[3][0].Has(3) {
		t.Error("knowledge did not traverse the line in diameter steps")
	}
}

// fullKnowledgeStep is the first timestep at which Propagate has given
// every vertex the initial state of every other, or -1 if that never
// happens within n steps (a disconnected knowledge graph).
func fullKnowledgeStep(g *graph.Graph) int {
	n := g.N()
	for step, know := range Propagate(g, n) {
		full := true
		for _, k := range know {
			full = full && k.Count() == n
		}
		if full {
			return step
		}
	}
	return -1
}

func TestFullKnowledgeStepEqualsKnowledgeDiameter(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g, err := topology.Random(20, topology.DefaultCaps, seed)
		if err != nil {
			t.Fatal(err)
		}
		full := fullKnowledgeStep(g)
		diam := KnowledgeDiameter(g)
		if full != diam {
			t.Errorf("seed %d: full-knowledge step %d != knowledge diameter %d",
				seed, full, diam)
		}
	}
}

func TestFullKnowledgeStepOneWayLine(t *testing.T) {
	// Bidirectional knowledge exchange makes even a one-way data line
	// fully knowable in its undirected diameter.
	g := graph.New(5)
	for i := 0; i+1 < 5; i++ {
		if err := g.AddArc(i, i+1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := KnowledgeDiameter(g); got != 4 {
		t.Errorf("knowledge diameter = %d, want 4", got)
	}
	if got := fullKnowledgeStep(g); got != 4 {
		t.Errorf("full knowledge step = %d, want 4", got)
	}
}

func TestFullKnowledgeDisconnected(t *testing.T) {
	g := graph.New(3)
	if err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if got := fullKnowledgeStep(g); got != -1 {
		t.Errorf("disconnected graph reported %d", got)
	}
	if got := KnowledgeDiameter(g); got != -1 {
		t.Errorf("disconnected knowledge diameter %d", got)
	}
}

func TestFullKnowledgeTrivial(t *testing.T) {
	for n := 0; n <= 1; n++ {
		if got := KnowledgeDiameter(graph.New(n)); got != 0 {
			t.Errorf("%d-vertex graph: knowledge diameter %d", n, got)
		}
		if got := fullKnowledgeStep(graph.New(n)); got != 0 {
			t.Errorf("%d-vertex graph needs %d steps", n, got)
		}
	}
}

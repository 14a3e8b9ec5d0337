package steiner

import (
	"errors"
	"math/rand"
	"testing"

	"ocd/internal/core"
	"ocd/internal/graph"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

func TestApproximateLine(t *testing.T) {
	g, err := topology.Line(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Approximate(g, []int{0}, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Cost(); got != 4 {
		t.Errorf("path tree cost = %d, want 4", got)
	}
}

func TestApproximateStar(t *testing.T) {
	g, err := topology.Star(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Approximate(g, []int{0}, []int{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Cost(); got != 5 {
		t.Errorf("star tree cost = %d, want 5", got)
	}
}

func TestApproximateSharedPath(t *testing.T) {
	// 0→1→2 with terminals {1,2}: the shared prefix must not be counted
	// twice — optimal tree is the whole path, cost 2.
	g, err := topology.Line(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Approximate(g, []int{0}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Cost(); got != 2 {
		t.Errorf("shared-path cost = %d, want 2", got)
	}
}

func TestApproximateMultiSource(t *testing.T) {
	// Terminals adjacent to different sources: each side serves its own.
	g, err := topology.Line(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Approximate(g, []int{0, 3}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Cost(); got != 2 {
		t.Errorf("multi-source cost = %d, want 2", got)
	}
}

func TestApproximateUnreachable(t *testing.T) {
	g := graph.New(3)
	if err := g.AddArc(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := Approximate(g, []int{0}, []int{2}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("want ErrUnreachable, got %v", err)
	}
	if _, err := Approximate(g, nil, []int{1}); err == nil {
		t.Error("no sources accepted")
	}
}

func TestApproximateCoversTerminals(t *testing.T) {
	// Property on random graphs: every terminal is reachable from some
	// source using only tree arcs.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		g, err := topology.Random(15+rng.Intn(10), topology.DefaultCaps, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		var terminals []int
		for v := 1; v < g.N(); v += 1 + rng.Intn(3) {
			terminals = append(terminals, v)
		}
		tree, err := Approximate(g, []int{0}, terminals)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Rebuild reachability over tree arcs only.
		sub := graph.New(g.N())
		for _, a := range tree.Arcs {
			if err := sub.AddArc(a.From, a.To, 1); err != nil {
				t.Fatal(err)
			}
		}
		dist := sub.BFSFrom(0)
		for _, term := range terminals {
			if dist[term] < 0 {
				t.Errorf("trial %d: terminal %d not covered by tree", trial, term)
			}
		}
	}
}

func TestSerialScheduleValidAndCheap(t *testing.T) {
	g, err := topology.Random(12, topology.DefaultCaps, 5)
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.SingleFile(g, 4)
	sched, err := SerialSchedule(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Validate(inst, sched); err != nil {
		t.Fatalf("serial schedule invalid: %v", err)
	}
	// §3.3: bandwidth is near-optimal. The 2-approximation guarantee means
	// pruned moves ≤ 2 × the minimum forest of each token.
	pruned := core.Prune(inst, sched)
	lb, ok := NewForestBound(inst).Bound(inst.Have)
	if !ok {
		t.Fatal("forest bound: a wanter is unreachable on a connected graph")
	}
	if pruned.Moves() > 2*lb {
		t.Errorf("serial schedule pruned bandwidth %d exceeds 2×LB %d", pruned.Moves(), 2*lb)
	}
}

package flow

import (
	"math/rand"
	"testing"

	"ocd/internal/core"
	"ocd/internal/exact"
	"ocd/internal/graph"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

func TestMaxFlowDiamond(t *testing.T) {
	// s→a(3), s→b(2), a→t(2), b→t(2): max flow 4.
	g := graph.New(4)
	for _, a := range [][3]int{{0, 1, 3}, {0, 2, 2}, {1, 3, 2}, {2, 3, 2}} {
		if err := g.AddArc(a[0], a[1], a[2]); err != nil {
			t.Fatal(err)
		}
	}
	value, cut, err := MaxFlow(g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if value != 4 {
		t.Errorf("max flow = %d, want 4", value)
	}
	if len(cut) == 0 || cut[0] != 0 {
		t.Errorf("cut side = %v", cut)
	}
}

func TestMaxFlowBottleneck(t *testing.T) {
	// A chain with one narrow link: flow = narrowest capacity.
	g := graph.New(4)
	for i, c := range []int{5, 1, 7} {
		if err := g.AddArc(i, i+1, c); err != nil {
			t.Fatal(err)
		}
	}
	value, cut, err := MaxFlow(g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if value != 1 {
		t.Errorf("max flow = %d, want 1", value)
	}
	// The cut must isolate the narrow link: {0,1} on the source side.
	if len(cut) != 2 {
		t.Errorf("cut = %v", cut)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	g := graph.New(3)
	if err := g.AddArc(0, 1, 4); err != nil {
		t.Fatal(err)
	}
	value, _, err := MaxFlow(g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if value != 0 {
		t.Errorf("disconnected flow = %d", value)
	}
}

func TestMaxFlowErrors(t *testing.T) {
	g := graph.New(2)
	if _, _, err := MaxFlow(g, 0, 5); err == nil {
		t.Error("out-of-range sink accepted")
	}
	if _, _, err := MaxFlow(g, 1, 1); err == nil {
		t.Error("s == t accepted")
	}
}

func TestMaxFlowAgainstBruteForce(t *testing.T) {
	// Cross-check Edmonds–Karp against exhaustive cut enumeration on
	// random small graphs (max-flow = min-cut).
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(3)
		g := graph.New(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.4 {
					_ = g.AddArc(u, v, 1+rng.Intn(4))
				}
			}
		}
		s, t2 := 0, n-1
		value, _, err := MaxFlow(g, s, t2)
		if err != nil {
			t.Fatal(err)
		}
		// Brute-force min cut over all vertex bipartitions with s∈S, t∉S.
		best := -1
		for mask := 0; mask < 1<<uint(n); mask++ {
			if mask&1 == 0 || mask&(1<<uint(t2)) != 0 {
				continue
			}
			cutCap := 0
			for _, a := range g.Arcs() {
				if mask&(1<<uint(a.From)) != 0 && mask&(1<<uint(a.To)) == 0 {
					cutCap += a.Cap
				}
			}
			if best == -1 || cutCap < best {
				best = cutCap
			}
		}
		if value != best {
			t.Errorf("trial %d: flow %d != brute-force min cut %d", trial, value, best)
		}
	}
}

func TestMinCutToVertex(t *testing.T) {
	// Two parallel unit paths from the holder to v: cut = 2.
	g := graph.New(4)
	for _, a := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		if err := g.AddArc(a[0], a[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	inst := core.NewInstance(g, 4)
	inst.Have[0].AddRange(0, 4)
	inst.Want[3].AddRange(0, 4)
	cut, err := MinCutToVertex(inst, []int{0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cut != 2 {
		t.Errorf("min cut = %d, want 2", cut)
	}
}

func TestFlowBoundSometimesBeatsRadiusBound(t *testing.T) {
	// Diamond with unit caps and 6 tokens: v's in-capacity is 2, so the
	// radius bound and flow bound agree at ceil(6/2)=3 here; but make the
	// in-arcs wide and the upstream cut narrow and only the flow bound
	// sees it: s →(1)→ a →(9)→ v, s →(1)→ b →(9)→ v.
	g := graph.New(4)
	for _, a := range [][3]int{{0, 1, 1}, {0, 2, 1}, {1, 3, 9}, {2, 3, 9}} {
		if err := g.AddArc(a[0], a[1], a[2]); err != nil {
			t.Fatal(err)
		}
	}
	inst := core.NewInstance(g, 8)
	inst.Have[0].AddRange(0, 8)
	inst.Want[3].AddRange(0, 8)

	radius := core.MakespanLowerBound(inst, nil)
	flowLB, err := FlowMakespanLowerBound(inst)
	if err != nil {
		t.Fatal(err)
	}
	// The upstream cut is 2 (the two unit arcs out of s): flow bound
	// ceil(8/2) = 4; the radius bound only sees v's in-capacity 18 and
	// distance 2.
	if flowLB != 4 {
		t.Errorf("flow bound = %d, want 4", flowLB)
	}
	if radius >= flowLB {
		t.Errorf("expected the flow bound (%d) to beat the radius bound (%d) here",
			flowLB, radius)
	}
}

func TestFlowBoundAdmissible(t *testing.T) {
	// The flow bound must never exceed the certified FOCD optimum.
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 6; trial++ {
		n := 3 + rng.Intn(3)
		g := graph.New(n)
		perm := rng.Perm(n)
		for i := 1; i < n; i++ {
			if err := g.AddEdge(perm[i], perm[rng.Intn(i)], 1+rng.Intn(2)); err != nil {
				t.Fatal(err)
			}
		}
		inst := core.NewInstance(g, 2)
		for tok := 0; tok < 2; tok++ {
			inst.Have[rng.Intn(n)].Add(tok)
			inst.Want[rng.Intn(n)].Add(tok)
		}
		opt, err := exact.SolveFOCD(inst, exact.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		flowLB, err := FlowMakespanLowerBound(inst)
		if err != nil {
			t.Fatal(err)
		}
		if flowLB > opt.Makespan() {
			t.Errorf("trial %d: flow bound %d exceeds optimum %d", trial, flowLB, opt.Makespan())
		}
	}
}

func TestFlowBoundOnPaperWorkload(t *testing.T) {
	g, err := topology.Random(20, topology.DefaultCaps, 3)
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.SingleFile(g, 50)
	flowLB, err := FlowMakespanLowerBound(inst)
	if err != nil {
		t.Fatal(err)
	}
	if flowLB < 1 {
		t.Errorf("flow bound = %d on a nontrivial workload", flowLB)
	}
}

package dynamic

import (
	"fmt"
	"strings"
	"testing"

	"ocd/internal/core"
	"ocd/internal/graph"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

func testInstance(t *testing.T, n, tokens int) *core.Instance {
	t.Helper()
	g, err := topology.Random(n, topology.DefaultCaps, 7)
	if err != nil {
		t.Fatal(err)
	}
	return workload.SingleFile(g, tokens)
}

func arc(from, to, c int) graph.Arc { return graph.Arc{From: from, To: to, Cap: c} }

func TestStaticModelIsIdentity(t *testing.T) {
	m := Static{}
	if got := m.Cap(3, arc(0, 1, 7)); got != 7 {
		t.Errorf("static cap = %d", got)
	}
}

func TestCrossTrafficBounds(t *testing.T) {
	m := CrossTraffic{MaxShare: 0.8, Seed: 1}
	varies := false
	for step := 0; step < 50; step++ {
		c := m.Cap(step, arc(0, 1, 10))
		if c < 1 || c > 10 {
			t.Fatalf("cross traffic cap %d outside [1,10]", c)
		}
		if c != 10 {
			varies = true
		}
		// Determinism.
		if c != m.Cap(step, arc(0, 1, 10)) {
			t.Fatal("cross traffic not deterministic")
		}
	}
	if !varies {
		t.Error("cross traffic never reduced capacity")
	}
}

func TestLinkFailureRate(t *testing.T) {
	m := LinkFailure{P: 0.5, Seed: 2}
	down := 0
	const trials = 400
	for step := 0; step < trials; step++ {
		if m.Cap(step, arc(0, 1, 3)) == 0 {
			down++
		}
	}
	if down < trials/4 || down > 3*trials/4 {
		t.Errorf("failure rate %d/%d far from 0.5", down, trials)
	}
}

func TestPeriodicDipsAndRecovers(t *testing.T) {
	m := Periodic{Period: 10, Floor: 0.2}
	peak := m.Cap(0, arc(0, 1, 10))
	trough := m.Cap(5, arc(0, 1, 10))
	if peak != 10 {
		t.Errorf("peak cap = %d, want 10", peak)
	}
	if trough >= peak || trough < 1 {
		t.Errorf("trough cap = %d", trough)
	}
	if m.Cap(10, arc(0, 1, 10)) != 10 {
		t.Error("capacity did not recover at the period boundary")
	}
}

func TestAdversaryCutsUsefulArcs(t *testing.T) {
	g, err := topology.Star(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.SingleFile(g, 4)
	adv := NewAdversary(inst, 1)
	adv.Observe(0, inst.InitialPossession())
	// The useful frontier at step 0 is {0→1, 0→2}; with budget 1 the
	// adversary cuts exactly one of them, and never a useless arc.
	cut := 0
	for _, a := range [][2]int{{0, 1}, {0, 2}} {
		if adv.Cap(0, arc(a[0], a[1], 2)) == 0 {
			cut++
		}
	}
	if cut != 1 {
		t.Errorf("adversary cut %d frontier arcs, want exactly 1", cut)
	}
	if adv.Cap(0, arc(1, 0, 2)) != 2 {
		t.Error("adversary cut a useless arc")
	}
}

func TestAdversaryNeverCutsWholeFrontier(t *testing.T) {
	// Even with an absurd budget, at least half the useful frontier
	// survives, so progress is always possible.
	g, err := topology.Star(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.SingleFile(g, 4)
	adv := NewAdversary(inst, 1000)
	adv.Observe(0, inst.InitialPossession())
	alive := 0
	for v := 1; v < 5; v++ {
		if adv.Cap(0, arc(0, v, 2)) > 0 {
			alive++
		}
	}
	if alive < 2 {
		t.Errorf("only %d frontier arcs survived an unbounded budget", alive)
	}
}

// capTrace renders a model's effective capacities over a step window as a
// string, so replay comparisons are byte-exact.
func capTrace(m Model, steps int, arcs []graph.Arc) string {
	var b strings.Builder
	for step := 0; step < steps; step++ {
		for _, a := range arcs {
			fmt.Fprintf(&b, "%d,", m.Cap(step, a))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestModelsReplayByteIdentical is the determinism property every model
// advertises: two freshly-built models with the same parameters must yield
// byte-identical capacity traces, or post-hoc replay validation would lie.
func TestModelsReplayByteIdentical(t *testing.T) {
	inst := testInstance(t, 24, 12)
	arcs := inst.G.Arcs()
	build := []func() Model{
		func() Model { return Static{} },
		func() Model { return CrossTraffic{MaxShare: 0.7, Seed: 5} },
		func() Model { return LinkFailure{P: 0.3, Seed: 5} },
		func() Model { return Periodic{Period: 7, Floor: 0.2} },
	}
	for _, mk := range build {
		a, b := mk(), mk()
		ta, tb := capTrace(a, 40, arcs), capTrace(b, 40, arcs)
		if ta != tb {
			t.Errorf("%s: fresh replay diverged", a.Name())
		}
		if ta != capTrace(a, 40, arcs) {
			t.Errorf("%s: second query pass diverged", a.Name())
		}
	}
}

// TestAdversaryReplayByteIdentical covers the possession-aware model: fed
// the same observation sequence, two adversaries cut the same arcs.
func TestAdversaryReplayByteIdentical(t *testing.T) {
	inst := testInstance(t, 16, 8)
	arcs := inst.G.Arcs()
	a := NewAdversary(inst, 4)
	b := NewAdversary(inst, 4)
	possess := inst.InitialPossession()
	for step := 0; step < 10; step++ {
		a.Observe(step, possess)
		b.Observe(step, possess)
		for _, arc := range arcs {
			if a.Cap(step, arc) != b.Cap(step, arc) {
				t.Fatalf("step %d arc %v: adversary replay diverged", step, arc)
			}
		}
		// Advance possession a little so observations vary across steps.
		if step < len(possess)-1 {
			possess[step+1].UnionWith(inst.Have[0])
		}
	}
}

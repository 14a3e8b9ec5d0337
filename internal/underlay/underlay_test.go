package underlay

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"ocd/internal/core"
	"ocd/internal/graph"
	"ocd/internal/heuristics"
	"ocd/internal/sim"
	"ocd/internal/tokenset"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

// dumbbell builds the classic shared-bottleneck topology: hosts a, b on
// the left, c, d on the right, joined by a single physical link r1–r2.
//
//	a          c
//	 \        /
//	  r1 -- r2
//	 /        \
//	b          d
func dumbbell(t *testing.T, bottleneckCap int) (*graph.Graph, []int) {
	t.Helper()
	g := graph.New(6)
	const (
		a, b, r1, r2, c, d = 0, 1, 2, 3, 4, 5
	)
	for _, e := range [][3]int{
		{a, r1, 10}, {b, r1, 10}, {r1, r2, 0}, {r2, c, 10}, {r2, d, 10},
	} {
		cp := e[2]
		if cp == 0 {
			cp = bottleneckCap
		}
		if err := g.AddEdge(e[0], e[1], cp); err != nil {
			t.Fatal(err)
		}
	}
	return g, []int{a, b, c, d}
}

func TestBuildRoutesShortestPaths(t *testing.T) {
	phys, hosts := dumbbell(t, 4)
	// Overlay: a–c and b–d, both crossing the bottleneck.
	net, err := Build(phys, hosts, [][2]int{{0, 2}, {1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if net.Overlay.N() != 4 {
		t.Errorf("overlay vertices = %d", net.Overlay.N())
	}
	// Nominal overlay capacity is the path bottleneck (4).
	if got := net.Overlay.Cap(0, 2); got != 4 {
		t.Errorf("overlay cap = %d, want bottleneck 4", got)
	}
	path := net.Path(0, 2)
	if len(path) != 3 {
		t.Errorf("path length = %d arcs, want 3", len(path))
	}
	// Both overlay links share the physical bottleneck: sharing factor 2.
	if got := net.SharingFactor(); got != 2.0 {
		t.Errorf("sharing factor = %.2f, want 2.0", got)
	}
}

func TestBuildErrors(t *testing.T) {
	phys, hosts := dumbbell(t, 4)
	if _, err := Build(phys, []int{0, 99}, nil); err == nil {
		t.Error("out-of-range host accepted")
	}
	if _, err := Build(phys, hosts, [][2]int{{0, 9}}); err == nil {
		t.Error("out-of-range overlay edge accepted")
	}
	// Disconnected physical graph.
	iso := graph.New(3)
	if _, err := Build(iso, []int{0, 1}, [][2]int{{0, 1}}); !errors.Is(err, ErrNoPath) {
		t.Errorf("want ErrNoPath, got %v", err)
	}
}

func TestSharedBottleneckEnforced(t *testing.T) {
	phys, hosts := dumbbell(t, 2)
	net, err := Build(phys, hosts, [][2]int{{0, 2}, {1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	// Both a and b hold 4 tokens for c and d respectively. Overlay caps
	// claim 2 per link; the shared bottleneck allows only 2 total per step.
	inst := core.NewInstance(net.Overlay, 8)
	inst.Have[0].AddRange(0, 4)
	inst.Want[2].AddRange(0, 4)
	inst.Have[1].AddRange(4, 8)
	inst.Want[3].AddRange(4, 8)

	logical, err := sim.Run(inst, heuristics.Local, sim.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	physical, err := net.Run(inst, heuristics.Local, sim.Options{Seed: 1, IdlePatience: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !physical.Completed {
		t.Fatal("underlay run incomplete")
	}
	// Logical: 8 deliveries at 2+2 per step = 2 steps. Physical: 2 per
	// step total = 4 steps.
	if logical.Steps >= physical.Steps {
		t.Errorf("shared bottleneck not binding: logical %d steps, physical %d",
			logical.Steps, physical.Steps)
	}
	if physical.Steps != 4 {
		t.Errorf("physical steps = %d, want 4 (8 tokens over a cap-2 wire)", physical.Steps)
	}
	if err := net.Validate(inst, physical.Schedule); err != nil {
		t.Fatalf("underlay schedule invalid: %v", err)
	}
}

func TestValidateRejectsOversharing(t *testing.T) {
	phys, hosts := dumbbell(t, 1)
	net, err := Build(phys, hosts, [][2]int{{0, 2}, {1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	inst := core.NewInstance(net.Overlay, 2)
	inst.Have[0].Add(0)
	inst.Want[2].Add(0)
	inst.Have[1].Add(1)
	inst.Want[3].Add(1)
	// Both moves in one step exceed the shared physical capacity 1.
	sched := &core.Schedule{Steps: []core.Step{{
		{From: 0, To: 2, Token: 0},
		{From: 1, To: 3, Token: 1},
	}}}
	if err := net.Validate(inst, sched); err == nil {
		t.Error("oversharing schedule accepted")
	}
	// Spread over two steps it is fine.
	ok := &core.Schedule{Steps: []core.Step{
		{{From: 0, To: 2, Token: 0}},
		{{From: 1, To: 3, Token: 1}},
	}}
	if err := net.Validate(inst, ok); err != nil {
		t.Errorf("sequential schedule rejected: %v", err)
	}
}

func TestRunRejectsForeignInstance(t *testing.T) {
	phys, hosts := dumbbell(t, 2)
	net, err := Build(phys, hosts, [][2]int{{0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.Line(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(workload.SingleFile(g, 1), heuristics.Local, sim.Options{}); err == nil {
		t.Error("foreign instance accepted")
	}
}

// errGaveUp is the sentinel failure of quitter.
var errGaveUp = errors.New("quitter gave up")

// quitter proposes nothing and names its failure through sim.Failer.
type quitter struct{}

func (quitter) Name() string                { return "quitter" }
func (quitter) Plan(*sim.State) []core.Move { return nil }
func (quitter) Err() error                  { return errGaveUp }

// TestRunStallKeepsStrategyFailure: a stall joins the strategy's own
// failure onto ErrStalled, as every engine does.
func TestRunStallKeepsStrategyFailure(t *testing.T) {
	phys, hosts := dumbbell(t, 2)
	net, err := Build(phys, hosts, [][2]int{{0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	inst := core.NewInstance(net.Overlay, 1)
	inst.Have[0].Add(0)
	inst.Want[2].Add(0)
	factory := func(*core.Instance, *rand.Rand) (sim.Strategy, error) { return quitter{}, nil }
	_, err = net.Run(inst, factory, sim.Options{Seed: 1, IdlePatience: 2})
	if !errors.Is(err, sim.ErrStalled) {
		t.Fatalf("want a stall, got %v", err)
	}
	if !errors.Is(err, errGaveUp) {
		t.Errorf("stall error dropped the strategy's failure: %v", err)
	}
}

// TestRunRejectsDone: completion on the shared underlay is the static
// predicate, so a custom Done fails closed instead of being ignored.
func TestRunRejectsDone(t *testing.T) {
	phys, hosts := dumbbell(t, 2)
	net, err := Build(phys, hosts, [][2]int{{0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	inst := core.NewInstance(net.Overlay, 1)
	inst.Have[0].Add(0)
	inst.Want[2].Add(0)
	anyDone := func(*core.Instance, []tokenset.Set) bool { return true }
	_, err = net.Run(inst, heuristics.Local, sim.Options{Seed: 1, Done: anyDone})
	if err == nil || !strings.Contains(err.Error(), "Done") {
		t.Errorf("want an error naming Options.Done, got %v", err)
	}
}

func TestRandomNetwork(t *testing.T) {
	net, err := RandomNetwork(60, 10, 2, topology.DefaultCaps, 5)
	if err != nil {
		t.Fatal(err)
	}
	if net.Overlay.N() != 10 {
		t.Errorf("overlay size = %d", net.Overlay.N())
	}
	if !net.Overlay.StronglyConnected() {
		t.Error("overlay not strongly connected")
	}
	inst := workload.SingleFile(net.Overlay, 6)
	res, err := net.Run(inst, heuristics.Local, sim.Options{Seed: 2, IdlePatience: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("random network run incomplete")
	}
	if err := net.Validate(inst, res.Schedule); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	if _, err := RandomNetwork(60, 1, 2, topology.DefaultCaps, 5); err == nil {
		t.Error("single host accepted")
	}
}

package ocd_test

import (
	"math/rand"
	"strings"
	"testing"

	"ocd"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	g, err := ocd.RandomTopology(30, ocd.DefaultCaps, 1)
	if err != nil {
		t.Fatal(err)
	}
	inst := ocd.SingleFile(g, 20)
	for _, name := range ocd.Heuristics() {
		res, err := ocd.RunHeuristic(inst, name, ocd.RunOptions{Seed: 2, Prune: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Completed {
			t.Fatalf("%s incomplete", name)
		}
		if err := ocd.Validate(inst, res.Schedule); err != nil {
			t.Fatalf("%s invalid: %v", name, err)
		}
		if res.Steps < ocd.MakespanLowerBound(inst) {
			t.Fatalf("%s beat the makespan bound", name)
		}
		if res.PrunedMoves < ocd.BandwidthLowerBound(inst) {
			t.Fatalf("%s beat the bandwidth bound", name)
		}
	}
}

func TestPublicAPIUnknownHeuristic(t *testing.T) {
	if _, err := ocd.HeuristicFactory("nope"); err == nil {
		t.Error("unknown heuristic accepted")
	}
	g, err := ocd.RandomTopology(10, ocd.DefaultCaps, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ocd.RunHeuristic(ocd.SingleFile(g, 2), "nope", ocd.RunOptions{}); err == nil {
		t.Error("run with unknown heuristic accepted")
	}
}

func TestPublicAPIManualInstance(t *testing.T) {
	// Build an instance entirely through the public surface.
	g := ocd.NewGraph(3)
	if err := g.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2, 2); err != nil {
		t.Fatal(err)
	}
	inst := ocd.NewInstance(g, 3)
	inst.Have[0].AddRange(0, 3)
	inst.Want[2].AddRange(0, 3)

	sched, err := ocd.SolveFOCD(inst, ocd.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.Makespan(); got != 3 {
		t.Errorf("optimum = %d steps, want 3 (2 hops + pipeline)", got)
	}
}

func TestPublicAPIFigure1(t *testing.T) {
	inst := ocd.Figure1Instance()
	fast, err := ocd.SolveFOCD(inst, ocd.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cheap, err := ocd.SolveEOCD(inst, 0, ocd.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sched, obj, err := ocd.SolveILP(inst, cheap.Makespan())
	if err != nil {
		t.Fatal(err)
	}
	if fast.Makespan() != 2 || cheap.Moves() != 4 || obj != 4 {
		t.Errorf("figure 1 optima: tau*=%d bw*=%d ilp=%d", fast.Makespan(), cheap.Moves(), obj)
	}
	if err := ocd.Validate(inst, sched); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIOracle(t *testing.T) {
	g, err := ocd.RandomTopology(20, ocd.DefaultCaps, 3)
	if err != nil {
		t.Fatal(err)
	}
	inst := ocd.SingleFile(g, 10)
	res, err := ocd.RunOracle(inst, "global", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Error("oracle incomplete")
	}
	if !strings.HasPrefix(res.Strategy, "oracle(") {
		t.Errorf("strategy = %q", res.Strategy)
	}
}

func TestPublicAPISteiner(t *testing.T) {
	g, err := ocd.RandomTopology(15, ocd.DefaultCaps, 4)
	if err != nil {
		t.Fatal(err)
	}
	inst := ocd.SingleFile(g, 3)
	sched, err := ocd.SteinerSchedule(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := ocd.Validate(inst, sched); err != nil {
		t.Fatalf("steiner schedule invalid: %v", err)
	}
}

func TestPublicAPIExperimentsSmall(t *testing.T) {
	tab, err := ocd.ExperimentGraphSize(false, []int{12}, 8, 1, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Errorf("rows = %d, want 5 heuristics", len(tab.Rows))
	}
	if !strings.Contains(tab.ASCII(), "Figure 2") {
		t.Error("title missing")
	}

	fig1, err := ocd.ExperimentFigure1()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig1.ASCII(), "min bandwidth") {
		t.Error("figure 1 table malformed")
	}
}

func TestPublicAPICustomStrategy(t *testing.T) {
	// The extension point: run a user-defined strategy through the engine.
	g := ocd.NewGraph(2)
	if err := g.AddArc(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	inst := ocd.NewInstance(g, 2)
	inst.Have[0].AddRange(0, 2)
	inst.Want[1].AddRange(0, 2)

	factory := func(_ *ocd.Instance, _ *rand.Rand) (ocd.Strategy, error) {
		return pushEverything{}, nil
	}
	res, err := ocd.RunStrategy(inst, factory, ocd.RunOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Steps != 1 {
		t.Errorf("custom strategy: completed=%v steps=%d", res.Completed, res.Steps)
	}
}

// pushEverything sends every useful token to every successor up to
// capacity — the minimal correct custom strategy.
type pushEverything struct{}

func (pushEverything) Name() string { return "push-everything" }

func (pushEverything) Plan(st *ocd.PlanState) []ocd.Move {
	var moves []ocd.Move
	for u := 0; u < st.Inst.N(); u++ {
		for _, a := range st.Inst.G.Out(u) {
			sent := 0
			st.Possess[u].ForEach(func(tok int) bool {
				if sent >= a.Cap {
					return false
				}
				if !st.Possess[a.To].Has(tok) {
					moves = append(moves, ocd.Move{From: u, To: a.To, Token: tok})
					sent++
				}
				return true
			})
		}
	}
	return moves
}

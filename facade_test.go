package ocd_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"ocd"
)

func TestFacadeFlowBounds(t *testing.T) {
	g := ocd.NewGraph(3)
	if err := g.AddArc(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddArc(1, 2, 2); err != nil {
		t.Fatal(err)
	}
	inst := ocd.NewInstance(g, 4)
	inst.Have[0].AddRange(0, 4)
	inst.Want[2].AddRange(0, 4)

	flowLB, err := ocd.FlowMakespanLowerBound(inst)
	if err != nil {
		t.Fatal(err)
	}
	if flowLB != 2 {
		t.Errorf("flow bound = %d, want 2 (ceil(4/2) = dist)", flowLB)
	}
	combined, err := ocd.CombinedMakespanLowerBound(inst)
	if err != nil {
		t.Fatal(err)
	}
	if combined < flowLB || combined < ocd.MakespanLowerBound(inst) {
		t.Errorf("combined bound %d below components", combined)
	}
	value, cut, err := ocd.MaxFlow(g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if value != 2 || len(cut) == 0 {
		t.Errorf("max flow = %d cut=%v", value, cut)
	}
}

func TestFacadeSolveFOCDILP(t *testing.T) {
	inst := ocd.Figure1Instance()
	sched, tau, err := ocd.SolveFOCDILP(inst)
	if err != nil {
		t.Fatal(err)
	}
	if tau != 2 || sched.Makespan() != 2 {
		t.Errorf("ILP FOCD tau = %d (schedule %d), want 2", tau, sched.Makespan())
	}
}

func TestFacadeJSONRoundTrip(t *testing.T) {
	g, err := ocd.RandomTopology(10, ocd.DefaultCaps, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst := ocd.SingleFile(g, 4)
	var buf bytes.Buffer
	if err := ocd.EncodeInstanceJSON(&buf, inst); err != nil {
		t.Fatal(err)
	}
	back, err := ocd.DecodeInstanceJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != inst.N() {
		t.Error("instance round trip changed size")
	}

	res, err := ocd.RunHeuristic(inst, "local", ocd.RunOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := ocd.EncodeScheduleJSON(&buf, res.Schedule); err != nil {
		t.Fatal(err)
	}
	sched, err := ocd.DecodeScheduleJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Moves() != res.Schedule.Moves() {
		t.Error("schedule round trip changed moves")
	}
}

func TestFacadeRenderTimeline(t *testing.T) {
	inst := ocd.Figure1Instance()
	sched, err := ocd.SolveEOCD(inst, 0, ocd.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := ocd.RenderTimeline(inst, sched, 4)
	if !strings.Contains(out, "step 1") || !strings.Contains(out, "100%") {
		t.Errorf("timeline malformed:\n%s", out)
	}
}

func TestFacadeBaselineFactories(t *testing.T) {
	g, err := ocd.RandomTopology(15, ocd.DefaultCaps, 4)
	if err != nil {
		t.Fatal(err)
	}
	inst := ocd.SingleFile(g, 8)
	for _, name := range []string{"tree", "forest-2", "local-delayed-1", "protocol-local"} {
		f, err := ocd.HeuristicFactory(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := ocd.RunStrategy(inst, f, ocd.RunOptions{Seed: 3, IdlePatience: 8})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Completed {
			t.Errorf("%s incomplete", name)
		}
		if err := ocd.Validate(inst, res.Schedule); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
	}
}

func TestFacadeExperiments(t *testing.T) {
	cases := map[string]func() (*ocd.Table, error){
		"fig3": func() (*ocd.Table, error) {
			return ocd.ExperimentGraphSize(true, []int{12}, 8, 1, 1, 2)
		},
		"fig4": func() (*ocd.Table, error) {
			return ocd.ExperimentReceiverDensity(14, []float64{0.5}, 8, 1, 1, 2)
		},
		"fig5": func() (*ocd.Table, error) {
			return ocd.ExperimentNumFiles(13, []int{2}, 8, 1, 1, false, 2)
		},
		"fig6": func() (*ocd.Table, error) {
			return ocd.ExperimentNumFiles(13, []int{2}, 8, 1, 1, true, 2)
		},
		"fig7": func() (*ocd.Table, error) {
			return ocd.ExperimentFigure7(1, 4, 0.5, 2)
		},
		"thm4": func() (*ocd.Table, error) {
			return ocd.ExperimentTheorem4(1, []int{2}, 1)
		},
		"ilp-vs-bnb": func() (*ocd.Table, error) {
			return ocd.ExperimentILPvsBnB(1, 4, 1, 2)
		},
	}
	// Experiments without a typed function run by name.
	for name, params := range map[string]map[string]string{
		"oracle-additive":     {"sizes": "12", "tokens": "6", "seed": "2"},
		"dynamic-conditions":  {"n": "10", "tokens": "6", "seed": "2"},
		"loss-coding":         {"n": "8", "tokens": "16", "loss": "0.2", "redundancies": "1.5", "seed": "2"},
		"underlay":            {"phys-n": "40", "hosts": "6", "tokens": "8", "seed": "2"},
		"knowledge-delay":     {"n": "10", "tokens": "8", "max-delay": "1", "seed": "2"},
		"tradeoff-curve":      {"instance": "figure1"},
		"protocol-comparison": {"sizes": "12", "tokens": "6", "seed": "2"},
		"bounds-quality":      {"instances": "1", "n": "4", "m": "2", "seed": "2"},
		"architectures":       {"n": "12", "tokens": "8", "seed": "2"},
	} {
		name, params := name, params
		cases[name] = func() (*ocd.Table, error) { return ocd.RunExperiment(name, params) }
	}
	for name, run := range cases {
		tab, err := run()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s: empty table", name)
		}
		if tab.CSV() == "" || tab.ASCII() == "" {
			t.Errorf("%s: rendering failed", name)
		}
	}
}

// TestFacadeRejectsNonFiniteFloats: a NaN or +Inf argument to a typed
// experiment function reaches the parameter check and fails by name.
func TestFacadeRejectsNonFiniteFloats(t *testing.T) {
	for _, thresholds := range [][]float64{{0.5, math.NaN()}, {math.Inf(1)}} {
		_, err := ocd.ExperimentReceiverDensity(14, thresholds, 8, 1, 1, 2)
		if err == nil || !strings.Contains(err.Error(), "must be finite") {
			t.Errorf("thresholds %v: want a must-be-finite error, got %v", thresholds, err)
		}
	}
	if _, err := ocd.ExperimentFigure7(1, 4, math.NaN(), 2); err == nil || !strings.Contains(err.Error(), "must be finite") {
		t.Errorf("edge-p NaN: want a must-be-finite error, got %v", err)
	}
}

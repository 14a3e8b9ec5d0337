package ocd_test

import (
	"testing"

	"ocd"
)

func TestPublicAPIFaultedRun(t *testing.T) {
	g, err := ocd.RandomTopology(16, ocd.DefaultCaps, 9)
	if err != nil {
		t.Fatal(err)
	}
	inst := ocd.SingleFile(g, 48)
	plan := ocd.FaultPlan{
		Crashes: ocd.CrashSchedule{Events: []ocd.CrashEvent{
			{V: 0, At: 1, RecoverAt: -1}, // the sole source crash-stops
		}},
		StateLoss: ocd.KeepState,
	}
	res, err := ocd.RunFaulted(inst, "local", plan, ocd.RunOptions{Seed: 4, IdlePatience: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed || !res.Graceful {
		t.Fatalf("want graceful termination, got completed=%v graceful=%v", res.Completed, res.Graceful)
	}
	if res.Steps >= inst.TheoremOneHorizon() {
		t.Errorf("graceful stop at step %d did not beat the horizon %d", res.Steps, inst.TheoremOneHorizon())
	}
	if len(res.Unsatisfiable) == 0 || res.DeliveredFraction >= 1 {
		t.Errorf("degradation report empty: unsat=%d delivered=%v",
			len(res.Unsatisfiable), res.DeliveredFraction)
	}
	if err := ocd.ValidateFaulted(inst, res.Schedule, plan); err != nil {
		t.Errorf("plan replay validation: %v", err)
	}
	if err := ocd.ValidateConstraints(inst, res.Schedule); err != nil {
		t.Errorf("constraint validation: %v", err)
	}
}

func TestPublicAPIRetryHeuristicName(t *testing.T) {
	g, err := ocd.RandomTopology(14, ocd.DefaultCaps, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst := ocd.SingleFile(g, 12)
	plan := ocd.FaultPlan{Loss: ocd.BernoulliLoss(0.3, 7)}
	res, err := ocd.RunFaulted(inst, "retry-local", plan, ocd.RunOptions{Seed: 4, IdlePatience: 30})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("retry-local did not complete under 30% loss")
	}
	if res.Lost == 0 {
		t.Error("no losses recorded under 30% loss")
	}
	if _, err := ocd.HeuristicFactory("retry-nope"); err == nil {
		t.Error("retry- wrapper around unknown heuristic accepted")
	}
}

func TestPublicAPIChaosExperiments(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params map[string]string
		rows   int
	}{
		{"chaos", map[string]string{
			"n": "12", "tokens": "6", "intensities": "0,0.5", "heuristics": "local,retry-local", "seed": "3",
		}, 4},
		{"crashed-source", map[string]string{"n": "12", "tokens": "36", "crash-at": "1", "seed": "5"}, 5},
		{"partition", map[string]string{
			"n": "12", "tokens": "6", "heal": "0,-1", "heuristics": "local", "seed": "3",
		}, 2},
		{"churn", map[string]string{
			"n": "12", "tokens": "6", "leave": "0,0.05", "heuristics": "local,retry-local", "seed": "3",
		}, 4},
	} {
		tab, err := ocd.RunExperiment(tc.name, tc.params)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(tab.Rows) != tc.rows {
			t.Fatalf("%s rows = %d, want %d", tc.name, len(tab.Rows), tc.rows)
		}
		if tab.ASCII() == "" || tab.CSV() == "" {
			t.Errorf("%s: empty rendering", tc.name)
		}
	}
}

// halfGossip drops every other knowledge exchange, deterministically.
type halfGossip struct{}

func (halfGossip) Name() string                 { return "half-gossip" }
func (halfGossip) Drop(step, from, to int) bool { return (step+from+to)%2 == 0 }

// TestRunFaultedProtocolLocalGossips: RunFaulted resolves "protocol-local"
// against its plan, so the plan's gossip model reaches the strategy. The
// same plan without gossip must plan differently.
func TestRunFaultedProtocolLocalGossips(t *testing.T) {
	g, err := ocd.RandomTopology(20, ocd.DefaultCaps, 3)
	if err != nil {
		t.Fatal(err)
	}
	inst := ocd.SingleFile(g, 12)
	opts := ocd.RunOptions{Seed: 2, IdlePatience: 40}
	clean, err := ocd.RunFaulted(inst, "protocol-local", ocd.FaultPlan{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := ocd.RunFaulted(inst, "protocol-local", ocd.FaultPlan{Gossip: halfGossip{}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Completed || !lossy.Completed {
		t.Fatalf("completed: clean %v, lossy gossip %v", clean.Completed, lossy.Completed)
	}
	if lossy.Steps == clean.Steps && lossy.Moves == clean.Moves {
		t.Errorf("gossip loss left the run unchanged (%d steps, %d moves): the plan's gossip model was ignored",
			lossy.Steps, lossy.Moves)
	}
}

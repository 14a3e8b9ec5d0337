package heuristics

import (
	"testing"

	"ocd/internal/core"
	"ocd/internal/sim"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

func TestLocalDelayedZeroMatchesName(t *testing.T) {
	f := LocalDelayed(0)
	g, err := topology.Line(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	strat, err := f(workload.SingleFile(g, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if strat.Name() != "local" {
		t.Errorf("delay-0 name = %q", strat.Name())
	}
	if s, _ := LocalDelayed(3)(workload.SingleFile(g, 1), nil); s.Name() != "local-delayed-3" {
		t.Errorf("delayed name = %q", s.Name())
	}
}

func TestLocalDelayedCompletesAndValidates(t *testing.T) {
	g, err := topology.Random(20, topology.DefaultCaps, 6)
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.SingleFile(g, 16)
	for _, delay := range []int{0, 1, 3, 6} {
		res, err := sim.Run(inst, LocalDelayed(delay), sim.Options{
			Seed: 2, Prune: true, IdlePatience: delay + 1,
		})
		if err != nil {
			t.Fatalf("delay %d: %v", delay, err)
		}
		if !res.Completed {
			t.Fatalf("delay %d: incomplete", delay)
		}
		if err := core.Validate(inst, res.Schedule); err != nil {
			t.Fatalf("delay %d: invalid schedule: %v", delay, err)
		}
	}
}

func TestLocalDelayedStalenessCosts(t *testing.T) {
	// Stale views must never beat fresh ones on makespan (aggregated over
	// seeds to smooth tie-breaking randomness).
	g, err := topology.Random(25, topology.DefaultCaps, 9)
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.SingleFile(g, 24)
	total := func(delay int) int {
		sum := 0
		for seed := int64(0); seed < 4; seed++ {
			res, err := sim.Run(inst, LocalDelayed(delay), sim.Options{
				Seed: seed, IdlePatience: delay + 1,
			})
			if err != nil {
				t.Fatalf("delay %d seed %d: %v", delay, seed, err)
			}
			sum += res.Steps
		}
		return sum
	}
	fresh, stale := total(0), total(5)
	if stale < fresh {
		t.Errorf("stale knowledge (%d total turns) beat fresh (%d)", stale, fresh)
	}
}

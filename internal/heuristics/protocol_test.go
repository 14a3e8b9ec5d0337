package heuristics_test

import (
	"errors"
	"reflect"
	"testing"

	"ocd/internal/core"
	"ocd/internal/fault"
	"ocd/internal/heuristics"
	"ocd/internal/sim"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

func TestProtocolLocalCompletesAndValidates(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g, err := topology.Random(25, topology.DefaultCaps, seed)
		if err != nil {
			t.Fatal(err)
		}
		inst := workload.SingleFile(g, 20)
		res, err := sim.Run(inst, heuristics.ProtocolLocal(nil), sim.Options{
			Seed: seed, Prune: true, IdlePatience: g.Diameter() + 2,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Completed {
			t.Fatalf("seed %d: incomplete", seed)
		}
		if err := core.Validate(inst, res.Schedule); err != nil {
			t.Fatalf("seed %d: invalid schedule: %v", seed, err)
		}
		if res.Rejected != 0 {
			t.Errorf("seed %d: %d rejected moves — stale beliefs should always be valid (possession is monotone)",
				seed, res.Rejected)
		}
	}
}

func TestProtocolLocalFirstTurnIsIdle(t *testing.T) {
	// At turn 0 no vertex has heard from any neighbor yet, so nothing can
	// be requested: the first turn must be idle (the §4.1 bootstrap).
	g, err := topology.Line(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.SingleFile(g, 4)
	res, err := sim.Run(inst, heuristics.ProtocolLocal(nil), sim.Options{Seed: 1, IdlePatience: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schedule.Steps) == 0 || len(res.Schedule.Steps[0]) != 0 {
		t.Errorf("first turn was not idle: %v", res.Schedule.Steps[0])
	}
	if !res.Completed {
		t.Fatal("incomplete")
	}
}

func TestProtocolLagsIdealizedLocal(t *testing.T) {
	// The honest message-passing variant can never beat the idealized
	// instant-aggregate Local on turns (aggregate over seeds), and the gap
	// stays within a small multiple of the knowledge diameter.
	g, err := topology.Random(30, topology.DefaultCaps, 4)
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.SingleFile(g, 24)
	idealTotal, protoTotal := 0, 0
	for seed := int64(0); seed < 3; seed++ {
		ideal, err := sim.Run(inst, heuristics.Local, sim.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		proto, err := sim.Run(inst, heuristics.ProtocolLocal(nil), sim.Options{
			Seed: seed, IdlePatience: g.Diameter() + 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		idealTotal += ideal.Steps
		protoTotal += proto.Steps
	}
	if protoTotal < idealTotal {
		t.Errorf("protocol variant (%d total turns) beat the idealized one (%d)",
			protoTotal, idealTotal)
	}
}

func TestProtocolLocalSparseWants(t *testing.T) {
	g, err := topology.TransitStubN(25, topology.DefaultCaps, 7)
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.ReceiverDensity(g, 12, 0.3, 9)
	res, err := sim.Run(inst, heuristics.ProtocolLocal(nil), sim.Options{
		Seed: 2, IdlePatience: g.Diameter() + 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("incomplete on sparse wants")
	}
}

func TestGossipLossStillCompletes(t *testing.T) {
	// Dropping 30% of knowledge messages only delays convergence: the
	// versioned tables stay stale until an exchange succeeds. The run must
	// still complete (with more patience) and stay deterministic.
	g, err := topology.Random(20, topology.DefaultCaps, 4)
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.SingleFile(g, 15)
	drop := fault.GossipLoss{P: 0.3, Seed: 9}
	opts := sim.Options{Seed: 4, IdlePatience: 4 * (g.Diameter() + 2)}

	res, err := sim.Run(inst, heuristics.ProtocolLocal(drop.Drop), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run under 30% gossip loss incomplete")
	}
	if err := core.Validate(inst, res.Schedule); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}

	again, err := sim.Run(inst, heuristics.ProtocolLocal(fault.GossipLoss{P: 0.3, Seed: 9}.Drop), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Schedule, again.Schedule) {
		t.Error("gossip loss broke schedule determinism")
	}
}

func TestGossipLossSlowsConvergence(t *testing.T) {
	g, err := topology.Random(20, topology.DefaultCaps, 7)
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.SingleFile(g, 15)
	opts := sim.Options{Seed: 7, IdlePatience: 6 * (g.Diameter() + 2)}
	clean, err := sim.Run(inst, heuristics.ProtocolLocal(nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := sim.Run(inst, heuristics.ProtocolLocal(fault.GossipLoss{P: 0.6, Seed: 7}.Drop), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !lossy.Completed {
		t.Fatal("run under 60% gossip loss incomplete")
	}
	if lossy.Steps < clean.Steps {
		t.Errorf("gossip loss accelerated the protocol: %d < %d steps", lossy.Steps, clean.Steps)
	}
}

func TestTotalGossipLossStalls(t *testing.T) {
	// With every knowledge message dropped, vertices only ever know
	// themselves and no request can be formed: the run must stall rather
	// than loop forever.
	g, err := topology.Random(12, topology.DefaultCaps, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.SingleFile(g, 6)
	_, err = sim.Run(inst, heuristics.ProtocolLocal(func(int, int, int) bool { return true }),
		sim.Options{Seed: 2, IdlePatience: 5, MaxSteps: 100})
	if !errors.Is(err, sim.ErrStalled) {
		t.Errorf("want ErrStalled under total gossip loss, got %v", err)
	}
}

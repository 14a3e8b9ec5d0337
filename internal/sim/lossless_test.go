package sim_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ocd/internal/core"
	"ocd/internal/dynamic"
	"ocd/internal/fault"
	"ocd/internal/heuristics"
	"ocd/internal/sim"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

// nopObserver attaches to a run without changing it; its presence alone
// sends every step through the kernel's tracked path.
type nopObserver struct{}

func (nopObserver) OnStep(int, core.Step, *sim.State)            {}
func (nopObserver) OnMove(int, core.Move, int, bool, *sim.State) {}
func (nopObserver) OnReject(int, core.Move, *sim.State)          {}

// overProposing proposes its inner strategy's moves twice over, plus a
// move on no arc, so that the kernel rejects part of every busy step.
type overProposing struct {
	sim.Strategy
	moves []core.Move
}

func (o *overProposing) Plan(st *sim.State) []core.Move {
	inner := o.Strategy.Plan(st)
	o.moves = append(append(append(o.moves[:0], inner...), inner...), core.Move{From: 0, To: 0, Token: 0})
	return o.moves
}

// TestLosslessStepMatchesTracked runs every heuristic, and one whose
// proposals the kernel partly rejects, through sim.Run and through
// fault.Run under a lossless capacity plan, each with and without a no-op
// Observer. Without one a step keeps no arc IDs and skips the loss pass;
// with one it takes the tracked path. Both must give the same schedule,
// Rejected and Lost, and every step the schedule keeps must have cap ==
// len, so that no scratch capacity escapes.
func TestLosslessStepMatchesTracked(t *testing.T) {
	g, err := topology.TransitStubN(36, topology.DefaultCaps, 7)
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.SingleFile(g, 24)
	factories := append(heuristics.All(), sim.WrapStrategy(heuristics.RoundRobin, func(_ *core.Instance, s sim.Strategy) (sim.Strategy, error) {
		return &overProposing{Strategy: s}, nil
	}))
	names := append(heuristics.Names(), "over-proposing")
	engines := []struct {
		name string
		run  func(sim.Factory, sim.Options) (*sim.Result, error)
	}{
		{"sim", func(f sim.Factory, opts sim.Options) (*sim.Result, error) { return sim.Run(inst, f, opts) }},
		{"fault", func(f sim.Factory, opts sim.Options) (*sim.Result, error) {
			res, err := fault.Run(inst, f, fault.Plan{Capacity: dynamic.LinkFailure{P: 0.1, Seed: 3}}, opts)
			if res == nil {
				return nil, err
			}
			return res.Result, err
		}},
	}
	for _, eng := range engines {
		for i, f := range factories {
			name := fmt.Sprintf("%s/%s", eng.name, names[i])
			lossless, err := eng.run(f, sim.Options{Seed: 5, IdlePatience: 30})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			tracked, err := eng.run(f, sim.Options{Seed: 5, IdlePatience: 30, Observer: nopObserver{}})
			if err != nil {
				t.Fatalf("%s with an observer: %v", name, err)
			}
			if !slices.EqualFunc(lossless.Schedule.Steps, tracked.Schedule.Steps, func(a, b core.Step) bool { return slices.Equal(a, b) }) {
				t.Errorf("%s: the schedules differ with and without an observer", name)
			}
			if lossless.Rejected != tracked.Rejected || lossless.Lost != tracked.Lost {
				t.Errorf("%s: rejected/lost %d/%d without an observer, %d/%d with one",
					name, lossless.Rejected, lossless.Lost, tracked.Rejected, tracked.Lost)
			}
			if names[i] == "over-proposing" && lossless.Rejected == 0 {
				t.Errorf("%s: no proposal was rejected", name)
			}
			for _, res := range []*sim.Result{lossless, tracked} {
				for s, st := range res.Schedule.Steps {
					if cap(st) != len(st) {
						t.Fatalf("%s: step %d keeps cap %d for %d moves", name, s, cap(st), len(st))
					}
				}
			}
		}
	}
}

// TestLossyStepsKeepExactSize: under loss, a step the kernel filters in
// place still reaches the schedule with cap == len, and a fully lost step
// as nil.
func TestLossyStepsKeepExactSize(t *testing.T) {
	g, err := topology.Random(30, topology.DefaultCaps, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.SingleFile(g, 20)
	rng := rand.New(rand.NewSource(4))
	for _, p := range []float64{0.3, 0.9} {
		res, err := fault.Run(inst, heuristics.RoundRobin, fault.Plan{Loss: fault.Bernoulli{P: p, Seed: rng.Int63()}}, sim.Options{Seed: 1, IdlePatience: 40})
		if res == nil {
			t.Fatal(err)
		}
		if res.Lost == 0 {
			t.Fatalf("loss %.1f: nothing was lost", p)
		}
		for s, st := range res.Schedule.Steps {
			if cap(st) != len(st) || (len(st) == 0 && st != nil) {
				t.Fatalf("loss %.1f: step %d keeps cap %d for %d moves", p, s, cap(st), len(st))
			}
		}
	}
}

package heuristics_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ocd/internal/competitive"
	"ocd/internal/core"
	"ocd/internal/dynamic"
	"ocd/internal/fault"
	"ocd/internal/heuristics"
	"ocd/internal/sim"
	"ocd/internal/topology"
	"ocd/internal/underlay"
	"ocd/internal/workload"
)

// rebuildEachPlan hands its inner strategy a copy of the State with the
// change signal hidden: no Delivered step and zero step and wipe counts, so
// sim.Changes.Delta answers "rebuild" on every Plan. Possession, the
// planning instance and the PRNG are shared, so the copy plans from the
// same facts as the real state.
type rebuildEachPlan struct{ sim.Strategy }

func (r rebuildEachPlan) Plan(st *sim.State) []core.Move {
	hidden := sim.State{Inst: st.Inst, Possess: st.Possess, Step: st.Step, Rand: st.Rand}
	return r.Strategy.Plan(&hidden)
}

// rebuilding wraps a factory so that its strategy rebuilds every cache on
// every Plan.
func rebuilding(f sim.Factory) sim.Factory {
	return sim.WrapStrategy(f, func(_ *core.Instance, s sim.Strategy) (sim.Strategy, error) {
		return rebuildEachPlan{s}, nil
	})
}

// alternating wraps a factory so that odd steps are planned by a Random
// strategy: the inner strategy misses every other step's deliveries, so
// two steps run between its Plans.
func alternating(f sim.Factory) sim.Factory {
	return func(inst *core.Instance, rng *rand.Rand) (sim.Strategy, error) {
		even, err := f(inst, rng)
		if err != nil {
			return nil, err
		}
		odd, err := heuristics.Random(inst, rng)
		if err != nil {
			return nil, err
		}
		return alternate{even, odd}, nil
	}
}

type alternate struct{ even, odd sim.Strategy }

func (a alternate) Name() string { return a.even.Name() }

func (a alternate) Plan(st *sim.State) []core.Move {
	if st.Step%2 == 1 {
		return a.odd.Plan(st)
	}
	return a.even.Plan(st)
}

// wipeAt is a test interceptor that clears one vertex's possession at the
// given steps and calls InvalidateCounts, with no capacity change: the
// wipe is the only signal a strategy gets.
type wipeAt struct {
	v     int
	steps map[int]bool
}

func (w wipeAt) PreStep(step int, st *sim.State) {
	if w.steps[step] {
		st.Possess[w.v].Clear()
		st.InvalidateCounts()
	}
}
func (wipeAt) StopEarly(int, *sim.State) bool   { return false }
func (wipeAt) OnIdleLimit(int, *sim.State) bool { return false }

// deltaCase is one engine run; run returns a comparable outcome.
type deltaCase struct {
	name string
	run  func(t *testing.T, f sim.Factory) any
}

// outcome renders a run's result and error into a comparable value; the
// schedule is part of the result, so equal outcomes mean byte-identical
// schedules.
type outcome struct {
	Result any
	Err    string
}

func result(res any, err error) any {
	o := outcome{Result: res}
	if err != nil {
		o.Err = err.Error()
	}
	return o
}

func deltaCases(t *testing.T) []deltaCase {
	t.Helper()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	var cases []deltaCase
	staticRun := func(name string, inst *core.Instance) {
		cases = append(cases, deltaCase{name, func(t *testing.T, f sim.Factory) any {
			return result(sim.Run(inst, f, sim.Options{Seed: 5, IdlePatience: 20}))
		}})
	}

	// The bench's three multi-file shapes, on a smaller graph.
	g, err := topology.Random(80, topology.DefaultCaps, 3)
	must(err)
	staticRun("density", workload.ReceiverDensity(g, 200, 0.2, 3))
	multi, err := workload.MultiFile(g, 512, 16)
	must(err)
	staticRun("multifile", multi)
	sender, err := workload.MultiSender(g, 512, 16, 3)
	must(err)
	staticRun("multisender", sender)

	// Hubs with in-degree above 64 take two-word holder masks.
	complete, err := topology.Complete(70, 1)
	must(err)
	staticRun("complete-70", workload.SingleFile(complete, 24))
	star, err := topology.Star(100, 1)
	must(err)
	starInst := core.NewInstance(star, 32)
	for _, src := range []int{10, 70, 80, 99} {
		starInst.Have[src].AddRange(0, 32)
	}
	for v := 0; v < star.N(); v++ {
		if starInst.Have[v].Empty() {
			starInst.Want[v].AddRange(0, 32)
		}
	}
	staticRun("star-100", starInst)

	// The fault engine: an arc-set change every step, crashes under each
	// state-loss policy, and bursty loss plus partitions.
	ts, err := topology.TransitStubN(36, topology.DefaultCaps, 7)
	must(err)
	inst, err := workload.MultiSender(ts, 64, 4, 11)
	must(err)
	faultRun := func(name string, inst *core.Instance, wrap func(sim.Factory) sim.Factory, plan func() fault.Plan) {
		cases = append(cases, deltaCase{name, func(t *testing.T, f sim.Factory) any {
			return result(fault.Run(inst, wrap(f), plan(), sim.Options{Seed: 5, IdlePatience: 40, MaxSteps: 300}))
		}})
	}
	same := func(f sim.Factory) sim.Factory { return f }
	faultRun("link-failure", inst, same, func() fault.Plan {
		return fault.Plan{Capacity: dynamic.LinkFailure{P: 0.1, Seed: 3}}
	})
	for _, loss := range []fault.StateLoss{fault.KeepState, fault.DropDownloads, fault.DropAll} {
		faultRun(fmt.Sprintf("crashes-%v", loss), inst, same, func() fault.Plan {
			return fault.Plan{Crashes: fault.NewRandomCrashes(0.02, 0.5, 9), StateLoss: loss}
		})
	}
	faultRun("gilbert-elliott+partitions", inst, same, func() fault.Plan {
		return fault.Plan{
			Loss:       fault.NewGilbertElliott(0.05, 0.25, 0.025, 0.65, 4),
			Partitions: fault.NewRandomPartitions(2, 0.05, 4, 4),
		}
	})
	faultRun("retry/bernoulli", inst, func(f sim.Factory) sim.Factory {
		return fault.WithRetry(f, fault.RetryOptions{})
	}, func() fault.Plan { return fault.Plan{Loss: fault.Bernoulli{P: 0.15, Seed: 6}} })

	// The underlay engine.
	net, err := underlay.RandomNetwork(60, 14, 2, topology.DefaultCaps, 9)
	must(err)
	instU := workload.SingleFile(net.Overlay, 16)
	cases = append(cases, deltaCase{"underlay", func(t *testing.T, f sim.Factory) any {
		return result(net.Run(instU, f, sim.Options{Seed: 5, IdlePatience: 30}))
	}})

	// Wrappers: the §4.2 oracle skips Plan while it listens, and a wrapper
	// that hands every other step to another strategy makes two steps run
	// between Plans.
	cases = append(cases, deltaCase{"oracle", func(t *testing.T, f sim.Factory) any {
		return result(competitive.RunOracle(inst, f, 5))
	}})
	cases = append(cases, deltaCase{"alternating", func(t *testing.T, f sim.Factory) any {
		return result(sim.Run(inst, alternating(f), sim.Options{Seed: 5, IdlePatience: 20}))
	}})

	// A wipe with no capacity change, through the kernel directly.
	wiped := -1
	for v := range inst.Have {
		if inst.Have[v].Empty() && inst.G.InDegree(v) > 0 {
			wiped = v
			break
		}
	}
	cases = append(cases, deltaCase{"wipe", func(t *testing.T, f sim.Factory) any {
		res, _, reason, err := sim.Exec(inst, f,
			sim.Options{Seed: 5, MaxSteps: inst.TheoremOneHorizon(), IdlePatience: 20},
			sim.Engine{Interceptor: wipeAt{v: wiped, steps: map[int]bool{2: true, 3: true, 5: true}}})
		if res == nil {
			t.Fatal(err)
		}
		if reason != sim.StopDone {
			t.Errorf("wipe run stopped with reason %d at step %d, want done", reason, len(res.Schedule.Steps))
		}
		return result(res, err)
	}})
	return cases
}

// TestDeltaMatchesRebuild is the differential test of the change signal:
// for every heuristic and every engine path, a run whose strategy updates
// its caches from each step's deliveries must produce the same schedule,
// byte for byte, as a run whose strategy rebuilds them on every Plan.
func TestDeltaMatchesRebuild(t *testing.T) {
	for _, c := range deltaCases(t) {
		t.Run(c.name, func(t *testing.T) {
			for i, f := range heuristics.All() {
				name := heuristics.Names()[i]
				delta, rebuilt := c.run(t, f), c.run(t, rebuilding(f))
				if !reflect.DeepEqual(delta, rebuilt) {
					t.Errorf("%s: planning from deliveries diverged from rebuilding every Plan", name)
				}
			}
		})
	}
}

package heuristics

import (
	"testing"

	"ocd/internal/core"
	"ocd/internal/dynamic"
	"ocd/internal/fault"
	"ocd/internal/sim"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

// allocCeilings are regression guards for the scratch-buffer architecture:
// whole-run allocation counts for each heuristic on the reference workload,
// set ~50% above the measured values so ordinary noise passes but a
// reintroduced per-step allocation (a map rebuilt per Plan, a sort closure,
// a fresh token buffer per vertex) trips the guard. Raising a ceiling is a
// deliberate act — it should accompany a change that knowingly adds
// allocation, not silence a regression.
var allocCeilings = map[string]float64{
	"roundrobin": 350,
	"random":     350,
	"local":      375,
	"bandwidth":  375,
	"global":     700,
}

// multisenderAllocCeilings guard the same contract on a multi-file
// instance with several sources, where the strategies' per-run caches
// (Bandwidth's per-token targets, Local's holder masks) are largest: they
// must be built once per run, not once per step. Set ~50% above the
// measured values.
var multisenderAllocCeilings = map[string]float64{
	"roundrobin": 350,
	"random":     350,
	"local":      375,
	"bandwidth":  375,
	"global":     700,
}

// variantAllocCeilings guard Local's two other variants on the reference
// single-file instance. Both rebuild their holder masks every Plan, from a
// ring of possession snapshots refilled in place or from gossip tables
// that share their rows; only protocol-local's own-row snapshots allocate
// per step. Set ~50% above the measured values.
var variantAllocCeilings = map[string]float64{
	"local-delayed-3": 750,
	"protocol-local":  850,
}

// BenchmarkHeuristicRun is the per-heuristic microbenchmark backing the
// ceilings above: -benchmem reports allocs/op for the same fixed workload.
// The <shape>/<heuristic> sub-benchmarks run the benchmark's three
// multi-file shapes at n=200, where planning dominates a run.
func BenchmarkHeuristicRun(b *testing.B) {
	g, err := topology.Random(60, topology.DefaultCaps, 1)
	if err != nil {
		b.Fatal(err)
	}
	run := func(name string, inst *core.Instance, factory sim.Factory) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for j := 0; j < b.N; j++ {
				if _, err := sim.Run(inst, factory, sim.Options{Seed: 1, Prune: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	inst := workload.SingleFile(g, 40)
	for i, factory := range All() {
		run(Names()[i], inst, factory)
	}

	g200, err := topology.Random(200, topology.DefaultCaps, 1)
	if err != nil {
		b.Fatal(err)
	}
	multi, err := workload.MultiFile(g200, 512, 16)
	if err != nil {
		b.Fatal(err)
	}
	sender, err := workload.MultiSender(g200, 512, 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	shapes := []struct {
		name string
		inst *core.Instance
	}{
		{"density", workload.ReceiverDensity(g200, 200, 0.2, 1)},
		{"multifile", multi},
		{"multisender", sender},
	}
	for _, shape := range shapes {
		for i, factory := range All() {
			run(shape.name+"/"+Names()[i], shape.inst, factory)
		}
	}
}

// TestAllocationCeilings runs every heuristic end to end on a fixed
// single-file and a fixed multi-sender instance, and Local's stale-view
// and gossip variants on the single-file one, and fails if a run's total
// allocations exceed the recorded ceiling.
// The lossy kernel path runs through the fault engine and is guarded by
// TestFaultEngineAllocationCeilings.
func TestAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	g, err := topology.Random(60, topology.DefaultCaps, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Four files of 16 tokens, each at a random non-wanting source.
	sender, err := workload.MultiSender(g, 64, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		inst     *core.Instance
		ceilings map[string]float64
	}{
		{"lossless", workload.SingleFile(g, 40), allocCeilings},
		{"multisender", sender, multisenderAllocCeilings},
	} {
		t.Run(c.name, func(t *testing.T) {
			for i, factory := range All() {
				name := Names()[i]
				ceiling, ok := c.ceilings[name]
				if !ok {
					t.Errorf("%s: no allocation ceiling recorded; add one", name)
					continue
				}
				checkAllocs(t, name, ceiling, c.inst, factory, sim.Options{Seed: 1, Prune: true})
			}
		})
	}
	t.Run("variants", func(t *testing.T) {
		// protocol-local's first turn is idle while no table has been
		// exchanged, and a view three turns stale idles up to three turns.
		opts := sim.Options{Seed: 1, Prune: true, IdlePatience: 4}
		inst := workload.SingleFile(g, 40)
		checkAllocs(t, "local-delayed-3", variantAllocCeilings["local-delayed-3"], inst, LocalDelayed(3), opts)
		checkAllocs(t, "protocol-local", variantAllocCeilings["protocol-local"], inst, ProtocolLocal(nil), opts)
	})
}

// checkAllocs fails t if one sim.Run of factory on inst allocates more
// than ceiling times.
func checkAllocs(t *testing.T, name string, ceiling float64, inst *core.Instance, factory sim.Factory, opts sim.Options) {
	t.Helper()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := sim.Run(inst, factory, opts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	})
	t.Logf("%s: %.0f allocs/run (ceiling %.0f)", name, allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("%s allocated %.0f times per run, ceiling %.0f — a per-step allocation crept back in",
			name, allocs, ceiling)
	}
}

// faultAllocCeilings guard the fault engine's per-run set-up of one
// capacity view: a step must refresh that view in place, not rebuild a
// graph, and detection must reuse its scratch. Keyed by plan, each
// ceiling sits ~50% above the most any heuristic allocated.
var faultAllocCeilings = map[string]float64{
	"none":         950,
	"link-failure": 950,
	"crash-keep":   1300,
	"bernoulli":    950,
}

// TestFaultEngineAllocationCeilings runs every heuristic through fault.Run
// on the reference instance under the control plan, a capacity model,
// random crashes and Bernoulli loss, and fails if a run allocates more than
// its plan's ceiling. The lossy plan guards the kernel's loss path: a draw
// per accepted move, lost moves filtered out of the accepted buffer in
// place, and the exact-size copy the schedule keeps must not reintroduce
// per-step allocation.
func TestFaultEngineAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	g, err := topology.Random(60, topology.DefaultCaps, 1)
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.SingleFile(g, 40)
	plans := []struct {
		name  string
		build func() fault.Plan
	}{
		{"none", func() fault.Plan { return fault.Plan{} }},
		{"link-failure", func() fault.Plan { return fault.Plan{Capacity: dynamic.LinkFailure{P: 0.1, Seed: 1}} }},
		{"crash-keep", func() fault.Plan {
			return fault.Plan{Crashes: fault.NewRandomCrashes(0.01, 0.5, 1, 0), StateLoss: fault.KeepState}
		}},
		{"bernoulli", func() fault.Plan { return fault.Plan{Loss: fault.Bernoulli{P: 0.15, Seed: 1}} }},
	}
	for _, p := range plans {
		ceiling := faultAllocCeilings[p.name]
		t.Run(p.name, func(t *testing.T) {
			for i, factory := range All() {
				name := Names()[i]
				allocs := testing.AllocsPerRun(5, func() {
					if _, err := fault.Run(inst, factory, p.build(), sim.Options{Seed: 1, IdlePatience: 40}); err != nil {
						t.Fatalf("%s under %s: %v", name, p.name, err)
					}
				})
				t.Logf("%s under %s: %.0f allocs/run (ceiling %.0f)", name, p.name, allocs, ceiling)
				if allocs > ceiling {
					t.Errorf("%s under %s allocated %.0f times per run, ceiling %.0f — a per-step allocation crept back in",
						name, p.name, allocs, ceiling)
				}
			}
		})
	}
}

package core_test

import (
	"testing"

	"ocd/internal/core"
	"ocd/internal/heuristics"
	"ocd/internal/sim"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

// TestArrivalsAllocationCeilings fails if refreshing a warm arrival table
// allocates: the exact search refreshes one table at every node, so the
// table must reuse its buffers, and so must its Bound.
func TestArrivalsAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	g, err := topology.Random(200, topology.DefaultCaps, 1)
	if err != nil {
		t.Fatal(err)
	}
	multisender, err := workload.MultiSender(g, 512, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		inst *core.Instance
	}{
		{"tiny n5m3", workload.RandomTinyInstances(1, 1, 5, 3)[0]},
		{"multisender n200", multisender},
	} {
		a := core.NewArrivals(c.inst, nil)
		// A partial possession exercises more holder groups than the
		// initial one; both must refresh in place.
		partial := c.inst.InitialPossession()
		for v := range partial {
			partial[v].Add(v % c.inst.NumTokens)
		}
		allocs := testing.AllocsPerRun(20, func() {
			a.Refresh(partial)
			_ = a.Bound()
			a.Refresh(nil)
			_ = a.Bound()
		})
		if allocs != 0 {
			t.Errorf("%s: a warm refresh allocated %.1f times, want 0", c.name, allocs)
		}
	}
}

// TestPruneAllocationCeilings fails if Prune's allocation count grows with
// the number of steps. Round Robin floods every arc, which makes its
// schedules the largest Prune sees; spreading the same moves over 2 and 8
// times as many steps (each step split into consecutive slices, which
// keeps the schedule valid) must not allocate more. What Prune may
// allocate is its two possession tables, one set per vertex each, and a
// fixed number of buffers.
func TestPruneAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	g, err := topology.Random(100, topology.DefaultCaps, 1)
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.SingleFile(g, 100)
	factory, _ := heuristics.Named("roundrobin")
	res, err := sim.Run(inst, factory, sim.Options{Seed: 1})
	if err != nil || !res.Completed {
		t.Fatalf("roundrobin run: completed=%v err=%v", res != nil && res.Completed, err)
	}
	ceiling := float64(2*inst.N() + 16)
	base := testing.AllocsPerRun(10, func() { _ = core.Prune(inst, res.Schedule) })
	t.Logf("%d steps: %.0f allocs (ceiling %.0f)", res.Schedule.Makespan(), base, ceiling)
	if base > ceiling {
		t.Errorf("Prune allocated %.0f times on %d steps, ceiling %.0f", base, res.Schedule.Makespan(), ceiling)
	}
	for _, k := range []int{2, 8} {
		spread := &core.Schedule{}
		for _, st := range res.Schedule.Steps {
			for j := 0; j < k; j++ {
				spread.Append(st[j*len(st)/k : (j+1)*len(st)/k])
			}
		}
		allocs := testing.AllocsPerRun(10, func() { _ = core.Prune(inst, spread) })
		t.Logf("%d steps: %.0f allocs", spread.Makespan(), allocs)
		if allocs > base {
			t.Errorf("Prune allocated %.0f times on %d steps but %.0f on the same moves in %d: a per-step allocation crept back in",
				allocs, spread.Makespan(), base, res.Schedule.Makespan())
		}
	}
}

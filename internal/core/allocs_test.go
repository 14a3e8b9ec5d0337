package core_test

import (
	"testing"

	"ocd/internal/core"
	"ocd/internal/experiments"
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
		{"tiny n5m3", experiments.RandomTinyInstances(1, 1, 5, 3)[0]},
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

package exact

import (
	"testing"

	"ocd/internal/workload"
)

// TestExactAllocationCeilings fails if a search allocates per node again:
// the in-place searches allocate per solve (possession, wanter distances,
// arc list, the makespan bound's table, EOCD's pick counts, memo growth,
// the copied-out schedule), not per candidate step, and their frames come
// from a pool that keeps them grown across solves. Each ceiling sits ~45%
// above the count measured when it was set (65 and 6,163; 102 and 9,680
// before the frame pool); the horizon filter, which shrinks the memo,
// brought the counts to 62 and 5,410. The per-node searches they replaced
// made 559 and 1,728,683 allocations on the same two cases.
func TestExactAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	fig1 := workload.Figure1()
	insts := workload.RandomTinyInstances(1, 40, 5, 3)
	for _, c := range []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"figure1 eocd", 95, func() {
			if _, err := SolveEOCD(fig1, 0, Options{}); err != nil {
				t.Fatal(err)
			}
		}},
		{"n5m3 x40 focd+eocd@tau*+1", 9200, func() {
			for _, inst := range insts {
				fast, err := SolveFOCD(inst, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := SolveEOCD(inst, fast.Makespan()+1, Options{}); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		allocs := testing.AllocsPerRun(3, c.run)
		t.Logf("%s: %.0f allocs/run (ceiling %.0f)", c.name, allocs, c.ceiling)
		if allocs > c.ceiling {
			t.Errorf("%s allocated %.0f times per run, ceiling %.0f — a per-node allocation crept back in",
				c.name, allocs, c.ceiling)
		}
	}
}

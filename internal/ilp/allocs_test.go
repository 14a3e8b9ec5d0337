package ilp

import (
	"testing"

	"ocd/internal/exact"
)

// TestILPAllocationCeilings fails if building or solving the program
// allocates per variable or per row again. Build allocates its columns,
// one backing array for every row and two distance tables per token.
// SolveStats allocates per solve (the solver's bookkeeping, the
// copied-out schedule) and per node (a basis snapshot, a solution, the
// fixing set); the dense tableau comes from the LP pool. Each ceiling
// sits ~50% above the measured count (1,452 and 4,297; the full
// program's Build made 9,967 allocations and its solve 4,825).
func TestILPAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	insts := tinyInstances(1, 40, 5, 3)
	taus := make([]int, len(insts))
	for i, inst := range insts {
		fast, err := exact.SolveFOCD(inst, exact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		taus[i] = fast.Makespan() + 1
	}
	progs := make([]*Program, len(insts))
	for _, c := range []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"n5m3 x40 build@tau*+1", 2200, func() {
			for i, inst := range insts {
				prog, err := Build(inst, taus[i])
				if err != nil {
					t.Fatal(err)
				}
				progs[i] = prog
			}
		}},
		{"n5m3 x40 solve@tau*+1", 6400, func() {
			for _, prog := range progs {
				if _, _, _, err := prog.SolveStats(Options{}); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		allocs := testing.AllocsPerRun(3, c.run)
		t.Logf("%s: %.0f allocs/run (ceiling %.0f)", c.name, allocs, c.ceiling)
		if allocs > c.ceiling {
			t.Errorf("%s allocated %.0f times per run, ceiling %.0f", c.name, allocs, c.ceiling)
		}
	}
}

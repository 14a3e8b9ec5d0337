package ilp

import (
	"runtime"
	"testing"

	"ocd/internal/exact"
	"ocd/internal/workload"
)

// TestILPAllocationCeilings fails if building or solving the program
// allocates per variable or per row again, or allocates dense rows
// again. Build allocates its columns, the row headers, two backing
// arrays for all rows' nonzeros, the in-arc lists and two distance tables
// per token. SolveStats allocates per solve (the forest bound's tables,
// the copied-out schedule) and per node
// (a basis snapshot, a solution, the fixing set); the LP workspace comes
// from the LP pool. Each ceiling sits ~50% above the value measured when
// it was set: 1,491 and 3,589 allocations (the full program's Build made
// 9,967 and its solve 4,825), and 0.39 MB and 0.69 MB a pass, which were
// 1.52 MB and 1.09 MB while Build filled dense rows and the pool held
// only the tableau. Build's in-arc lists and the solve's Steiner-forest
// bound brought the counts to 1,571 and 3,737.
func TestILPAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	insts := workload.RandomTinyInstances(1, 40, 5, 3)
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
		name         string
		ceiling, mib float64
		run          func()
	}{
		{"n5m3 x40 build@tau*+1", 2200, 0.6, func() {
			for i, inst := range insts {
				prog, err := Build(inst, taus[i])
				if err != nil {
					t.Fatal(err)
				}
				progs[i] = prog
			}
		}},
		{"n5m3 x40 solve@tau*+1", 5400, 1.05, func() {
			for _, prog := range progs {
				if _, _, _, err := prog.SolveStats(Options{}); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		allocs := testing.AllocsPerRun(3, c.run)
		mib := bytesPerRun(3, c.run) / (1 << 20)
		t.Logf("%s: %.0f allocs/run (ceiling %.0f), %.2f MB/run (ceiling %.2f)", c.name, allocs, c.ceiling, mib, c.mib)
		if allocs > c.ceiling {
			t.Errorf("%s allocated %.0f times per run, ceiling %.0f", c.name, allocs, c.ceiling)
		}
		if mib > c.mib {
			t.Errorf("%s allocated %.2f MB per run, ceiling %.2f", c.name, mib, c.mib)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average
// runtime.MemStats.TotalAlloc growth over runs calls of f, after one
// warm-up call, on one P as AllocsPerRun measures.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

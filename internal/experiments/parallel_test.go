package experiments

import (
	"runtime"
	"testing"
)

// TestParallelSweepMatchesSerial is the end-to-end determinism golden test:
// the full heuristic grid on seeded transit-stub graphs must render to a
// byte-identical table at every parallelism. This is the user-visible form
// of the runner's contract (seeds derive from cell keys, results reassemble
// in canonical order) and it runs under -race in CI, so a data race between
// cells fails the build even when it does not corrupt the table.
func TestParallelSweepMatchesSerial(t *testing.T) {
	render := func(parallelism int) string {
		return mustRun(t, "graph-size", Values{
			"topology": "transit-stub", "sizes": []int{20, 30}, "tokens": 24,
			"graph-seeds": 2, "repeats": 2, "seed": 7, "parallelism": parallelism,
		}).CSV()
	}

	serial := render(1)
	// 2 and 4 exercise real worker pools even when GOMAXPROCS is 1;
	// 0 is the default (GOMAXPROCS) production path.
	for _, p := range []int{2, 4, 0, runtime.GOMAXPROCS(0)} {
		if got := render(p); got != serial {
			t.Errorf("parallelism %d table diverged from serial:\nserial:\n%s\nparallel:\n%s", p, serial, got)
		}
	}
}

// TestParallelChaosMatchesRepeatRun checks the stateful-model discipline:
// chaos cells construct their fault plans (Gilbert–Elliott loss, crash
// models — each owning a PRNG) inside Run, so two invocations must agree
// exactly even though cells run concurrently.
func TestParallelChaosMatchesRepeatRun(t *testing.T) {
	run := func() string {
		return mustRun(t, "chaos", Values{
			"n": 14, "tokens": 8, "intensities": []float64{0, 0.5},
			"heuristics": []string{"local", "random"}, "seed": 3,
		}).CSV()
	}
	first := run()
	for i := 0; i < 2; i++ {
		if got := run(); got != first {
			t.Errorf("chaos run %d diverged:\n%s\nvs\n%s", i+1, first, got)
		}
	}
}

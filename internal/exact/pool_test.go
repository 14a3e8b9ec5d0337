package exact

import (
	"fmt"
	"sync"
	"testing"

	"ocd/internal/core"
)

// TestConcurrentSolvesMatchSerial runs both searches from 4 goroutines at
// once, so that solves hand pooled frames to one another mid-run, and
// checks every schedule, move order included, against a serial run.
func TestConcurrentSolvesMatchSerial(t *testing.T) {
	insts := tinyInstances(3, 12, 5, 3)
	type result struct{ fast, cheap string }
	solve := func(inst *core.Instance) (result, error) {
		fast, err := SolveFOCD(inst, Options{})
		if err != nil {
			return result{}, err
		}
		cheap, err := SolveEOCD(inst, fast.Makespan()+1, Options{})
		if err != nil {
			return result{}, err
		}
		return result{fmt.Sprint(fast.Steps), fmt.Sprint(cheap.Steps)}, nil
	}
	serial := make([]result, len(insts))
	for i, inst := range insts {
		r, err := solve(inst)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		serial[i] = r
	}

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker solves every instance, starting at its own offset.
			for k := range insts {
				i := (k + w*len(insts)/workers) % len(insts)
				r, err := solve(insts[i])
				switch {
				case err != nil:
					t.Errorf("worker %d instance %d: %v", w, i, err)
				case r != serial[i]:
					t.Errorf("worker %d instance %d: focd %s eocd %s, serial focd %s eocd %s",
						w, i, r.fast, r.cheap, serial[i].fast, serial[i].cheap)
				}
			}
		}(w)
	}
	wg.Wait()
}

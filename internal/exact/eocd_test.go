package exact

import "testing"

// TestLastStepOutcomes requires both ways dfs decides a node with one step
// left to occur on the n5m3 ×400 mix that TestSearchesMatchReference
// compares, at τ* and τ*+1: no exact cover (the node is finished) and a
// cover (the first one found is the incumbent). Without it, a drift in the
// instance mix could leave one of them unexercised while the reference
// test still passes.
func TestLastStepOutcomes(t *testing.T) {
	var total [2]int
	for _, inst := range tinyInstances(1, 400, 5, 3) {
		fast, err := SolveFOCD(inst, Options{})
		if err != nil {
			continue
		}
		for _, h := range []int{fast.Makespan(), fast.Makespan() + 1} {
			var s eocdSearch
			if _, err := s.solve(inst, h, Options{}); err != nil {
				t.Fatalf("eocd@%d: %v", h, err)
			}
			for k, n := range s.lastStep {
				total[k] += n
			}
		}
	}
	t.Logf("nodes with one step left: %d with no cover, %d with one", total[0], total[1])
	for k, outcome := range []string{"no exact cover", "an exact cover"} {
		if total[k] == 0 {
			t.Errorf("no node with one step left had %s; the instance mix has drifted", outcome)
		}
	}
}

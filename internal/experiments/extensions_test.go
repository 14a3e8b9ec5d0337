package experiments

import (
	"strconv"
	"testing"
)

func TestDynamicConditionsSmall(t *testing.T) {
	tab := mustRun(t, "dynamic-conditions", map[string]string{"n": "15", "tokens": "8", "seed": "3"})
	// 6 models × 5 heuristics.
	if len(tab.Rows) != 30 {
		t.Fatalf("rows = %d, want 30", len(tab.Rows))
	}
	completed := 0
	for _, row := range tab.Rows {
		if row[len(row)-1] == "true" {
			completed++
		}
	}
	// The vast majority of runs must complete despite the dynamics.
	if completed < 25 {
		t.Errorf("only %d/30 runs completed", completed)
	}
}

func TestLossCodingSmall(t *testing.T) {
	tab := mustRun(t, "loss-coding", map[string]string{
		"n": "10", "tokens": "16", "loss": "0.3", "redundancies": "1.5,2", "seed": "4",
	})
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (uncoded + 2 codings)", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("run incomplete: %v", row)
		}
	}
}

func TestUnderlayComparisonSmall(t *testing.T) {
	tab := mustRun(t, "underlay", map[string]string{"phys-n": "50", "hosts": "8", "tokens": "10", "seed": "6"})
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		logical, err1 := strconv.Atoi(row[1])
		physical, err2 := strconv.Atoi(row[2])
		if err1 != nil || err2 != nil {
			t.Fatalf("non-numeric row %v", row)
		}
		if physical < logical {
			t.Errorf("%s: shared underlay faster than logical view (%d < %d)",
				row[0], physical, logical)
		}
	}
}

func TestKnowledgeDelaySmall(t *testing.T) {
	tab := mustRun(t, "knowledge-delay", map[string]string{"n": "15", "tokens": "12", "max-delay": "3", "seed": "8"})
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (delays 0..3)", len(tab.Rows))
	}
}

// TestKnowledgeDelayRowsComplete checks that every row of the ablation is
// a completed run. A stale view needs up to (d+1)·H + d steps, past the
// Theorem 1 horizon H: stopped at H, the delays 2–6 of the four-vertex
// instance below print as ordinary rows with bandwidth 2 where 3 deliveries
// are needed.
func TestKnowledgeDelayRowsComplete(t *testing.T) {
	tab := mustRun(t, "knowledge-delay", map[string]string{"n": "4", "tokens": "1", "max-delay": "6", "seed": "3"})
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 (delays 0..6)", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		// One token, three receivers: a completed run delivers 3 times
		// and keeps all 3 moves after pruning.
		if row[3] != "3" {
			t.Errorf("delay %s: pruned bandwidth %s, want 3 (the run did not complete)", row[0], row[3])
		}
	}
	for n := 3; n <= 6; n++ {
		for seed := 1; seed <= 40; seed++ {
			params := map[string]string{
				"n": strconv.Itoa(n), "tokens": "1", "max-delay": "4", "seed": strconv.Itoa(seed),
			}
			tab := mustRun(t, "knowledge-delay", params)
			for _, row := range tab.Rows {
				if row[3] != strconv.Itoa(n-1) {
					t.Errorf("n=%d seed=%d delay %s: pruned bandwidth %s, want %d", n, seed, row[0], row[3], n-1)
				}
			}
		}
	}
}

func TestTradeoffCurveFigure1(t *testing.T) {
	tab := mustRun(t, "tradeoff-curve", map[string]string{"instance": "figure1"})
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (tau 2..3)", len(tab.Rows))
	}
	// Non-increasing bandwidth, endpoints 6 and 4.
	if tab.Rows[0][1] != "6" || tab.Rows[1][1] != "4" {
		t.Errorf("curve endpoints wrong: %v", tab.Rows)
	}
}

func TestBoundsQualitySmall(t *testing.T) {
	tab := mustRun(t, "bounds-quality", map[string]string{"instances": "2", "n": "4", "m": "2", "seed": "7"})
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d, want 10 (2 instances x 5 heuristics)", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		// Heuristics can never beat the optimum: ratios >= 1.00; lower
		// bounds can never exceed it: ratios <= 1.00.
		if row[2] != "-" && row[2] < "1" {
			t.Errorf("makespan ratio below 1: %v", row)
		}
		if row[4] != "-" && row[4] > "1.00" && row[4] < "9" {
			t.Errorf("makespan lower bound above optimum: %v", row)
		}
	}
}

func TestProtocolComparisonSmall(t *testing.T) {
	tab := mustRun(t, "protocol-comparison", map[string]string{"sizes": "15", "tokens": "10", "seed": "3"})
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Extra turns must be non-negative.
	if tab.Rows[0][4][0] == '-' {
		t.Errorf("protocol beat the idealized variant: %v", tab.Rows[0])
	}
}

func TestArchitectureComparisonSmall(t *testing.T) {
	tab := mustRun(t, "architectures", map[string]string{"n": "20", "tokens": "16", "seed": "5"})
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tab.Rows))
	}
	// The tree rows must be bandwidth-optimal.
	for _, row := range tab.Rows {
		if (row[0] == "tree" || row[0] == "forest-2" || row[0] == "forest-4") &&
			row[len(row)-1] != "true" {
			t.Errorf("architecture %s not bandwidth-optimal: %v", row[0], row)
		}
	}
}

package experiments

import (
	"strconv"
	"testing"

	"ocd/internal/workload"
)

func TestDynamicConditionsSmall(t *testing.T) {
	tab := mustRun(t, "dynamic-conditions", Values{"n": 15, "tokens": 8, "seed": 3})
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
	tab := mustRun(t, "loss-coding", Values{
		"n": 10, "tokens": 16, "loss": 0.3, "redundancies": []float64{1.5, 2.0}, "seed": 4,
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
	tab := mustRun(t, "underlay", Values{"phys-n": 50, "hosts": 8, "tokens": 10, "seed": 6})
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
	tab := mustRun(t, "knowledge-delay", Values{"n": 15, "tokens": 12, "max-delay": 3, "seed": 8})
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (delays 0..3)", len(tab.Rows))
	}
}

func TestTradeoffCurveFigure1(t *testing.T) {
	tab := mustRun(t, "tradeoff-curve", Values{"instance": workload.Figure1()})
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (tau 2..3)", len(tab.Rows))
	}
	// Non-increasing bandwidth, endpoints 6 and 4.
	if tab.Rows[0][1] != "6" || tab.Rows[1][1] != "4" {
		t.Errorf("curve endpoints wrong: %v", tab.Rows)
	}
}

func TestBoundsQualitySmall(t *testing.T) {
	tab := mustRun(t, "bounds-quality", Values{"instances": 2, "n": 4, "m": 2, "seed": 7})
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
	tab := mustRun(t, "protocol-comparison", Values{"sizes": []int{15}, "tokens": 10, "seed": 3})
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Extra turns must be non-negative.
	if tab.Rows[0][4][0] == '-' {
		t.Errorf("protocol beat the idealized variant: %v", tab.Rows[0])
	}
}

func TestArchitectureComparisonSmall(t *testing.T) {
	tab := mustRun(t, "architectures", Values{"n": 20, "tokens": 16, "seed": 5})
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

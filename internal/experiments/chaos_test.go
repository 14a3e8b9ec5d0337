package experiments

import (
	"strings"
	"testing"

	"ocd/internal/fault"
)

func TestChaosSweepSmall(t *testing.T) {
	n, tokens := 14, 8
	intensities := []float64{0, 0.3, 0.7}
	names := []string{"local", "random", "retry-local"}
	if testing.Short() {
		intensities = []float64{0, 0.5}
		names = []string{"local", "retry-local"}
	}
	tab := mustRun(t, "chaos", Values{
		"n": n, "tokens": tokens, "intensities": intensities, "heuristics": names, "seed": 3,
	})
	if want := len(intensities) * len(names); len(tab.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), want)
	}
	for _, row := range tab.Rows {
		// intensity 0 is the fault-free plan: every heuristic must complete
		// with full delivery and unit inflation.
		if row[0] == "0.00" {
			if row[2] != "completed" || row[3] != "100%" || row[9] != "1.00" {
				t.Errorf("fault-free row degraded: %v", row)
			}
		}
		if row[2] == "" || row[3] == "" {
			t.Errorf("empty outcome/delivered cell: %v", row)
		}
	}
}

func TestChaosRejectsUnknownHeuristic(t *testing.T) {
	if _, err := Run("chaos", Values{"n": 10, "tokens": 4, "intensities": []float64{0}, "heuristics": []string{"nope"}}); err == nil {
		t.Fatal("unknown heuristic accepted")
	}
	if _, err := chaosFactory("retry-nope", fault.Plan{}); err == nil {
		t.Fatal("retry- wrapper around unknown heuristic accepted")
	}
}

func TestCrashedSourceTerminatesGracefully(t *testing.T) {
	// 48 tokens and a crash after one step: the source cannot have pushed
	// every token out, so some must be provably undeliverable.
	tab := mustRun(t, "crashed-source", Values{"n": 14, "tokens": 48, "crash-at": 1, "seed": 5})
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	graceful := 0
	for _, row := range tab.Rows {
		switch row[1] {
		case "graceful":
			graceful++
			if row[4] == "0" {
				t.Errorf("graceful row with no unsatisfiable receivers: %v", row)
			}
		case "completed":
			// A heuristic that pushed everything out before step 3 is fine,
			// but with 10 tokens that is not expected for all of them.
		default:
			t.Errorf("run neither graceful nor completed: %v", row)
		}
	}
	if graceful == 0 {
		t.Error("no heuristic terminated gracefully after the source crash")
	}
	if !strings.Contains(tab.Title, "crash-stop") {
		t.Errorf("title: %q", tab.Title)
	}
}

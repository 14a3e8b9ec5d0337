package experiments

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestPartitionSweepSmall(t *testing.T) {
	tab := mustRun(t, "partition", Values{
		"n": 14, "tokens": 6, "k": 2, "heal": []int{0, 4, -1},
		"heuristics": []string{"local", "retry-local"}, "seed": 3, "monitor": true,
	})
	out := tab.ASCII()
	for _, want := range []string{"heal", "liveness", "never", "invariant monitor"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in table:\n%s", want, out)
		}
	}
	if len(tab.Rows) != 6 {
		t.Errorf("got %d rows, want 3 heal times × 2 heuristics", len(tab.Rows))
	}
}

func TestChurnSweepSmall(t *testing.T) {
	tab := mustRun(t, "churn", Values{
		"n": 14, "tokens": 6, "leave": []float64{0, 0.05}, "rejoin": 0.5,
		"heuristics": []string{"local"}, "seed": 3, "monitor": true,
	})
	out := tab.ASCII()
	for _, want := range []string{"leave", "departures", "rejoin empty"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in table:\n%s", want, out)
		}
	}
	// The zero-churn column must complete: churn at rate 0 is a no-op plan.
	if !strings.Contains(out, "completed") {
		t.Errorf("zero-churn column did not complete:\n%s", out)
	}
}

func TestFaultSweepsRejectUnknownHeuristic(t *testing.T) {
	if _, err := Run("partition", Values{"n": 10, "tokens": 4, "heal": []int{0}, "heuristics": []string{"nope"}}); err == nil {
		t.Error("partition sweep accepted an unknown heuristic")
	}
	if _, err := Run("churn", Values{"n": 10, "tokens": 4, "leave": []float64{0}, "heuristics": []string{"nope"}}); err == nil {
		t.Error("churn sweep accepted an unknown heuristic")
	}
}

// TestChurnSweepParallelMatchesSerial is the parallel-determinism guarantee
// for the churn axis: every cell derives its randomness from (base seed,
// cell key) alone, so the worker count must not show up in the table. Run
// under -race this also exercises the sweep's concurrency for data races.
func TestChurnSweepParallelMatchesSerial(t *testing.T) {
	run := func(parallelism int) *Table {
		t.Helper()
		return mustRun(t, "churn", Values{
			"n": 14, "tokens": 6, "leave": []float64{0, 0.05, 0.1}, "rejoin": 0.5,
			"heuristics": []string{"local", "bandwidth"}, "seed": 7, "parallelism": parallelism,
		})
	}
	serial, parallel := run(1), run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel churn sweep diverged from serial:\nserial:\n%s\nparallel:\n%s",
			serial.ASCII(), parallel.ASCII())
	}
}

func TestPartitionSweepJournalResume(t *testing.T) {
	run := func(journal string) *Table {
		return mustRun(t, "partition", Values{
			"n": 14, "tokens": 6, "k": 2, "heal": []int{0, 4},
			"heuristics": []string{"local"}, "seed": 5, "journal": journal,
		})
	}
	clean := run("")
	path := filepath.Join(t.TempDir(), "partition.jsonl")
	first := run(path)
	resumed := run(path)
	if !reflect.DeepEqual(clean, first) || !reflect.DeepEqual(clean, resumed) {
		t.Fatal("journaled partition sweep diverged from the plain run")
	}
}

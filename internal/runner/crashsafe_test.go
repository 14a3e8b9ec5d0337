package runner

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestPanicBecomesStructuredError(t *testing.T) {
	cells := []Cell[int64]{
		{Key: "ok", Run: randomWalk},
		{Key: "boom", Run: func(int64) (int64, error) { panic("kaboom") }},
		{Key: "ok2", Run: randomWalk},
	}
	results, err := Map(1, cells, Options{Parallelism: 2})
	if err == nil {
		t.Fatal("panicking cell reported no error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a PanicError", err)
	}
	if pe.Key != "boom" || pe.Value != "kaboom" || !strings.Contains(pe.Stack, "crashsafe_test") {
		t.Errorf("PanicError = key %q value %v, stack captured=%v", pe.Key, pe.Value, pe.Stack != "")
	}
	// The other cells still completed: the sweep survived the panic.
	want, _ := randomWalk(Seed(1, "ok"))
	if results[0] != want {
		t.Error("healthy cell before the panic lost its result")
	}
	want, _ = randomWalk(Seed(1, "ok2"))
	if results[2] != want {
		t.Error("healthy cell after the panic lost its result")
	}
}

// row mirrors the experiment drivers' JSON-round-trippable result shape.
type row struct {
	Key   string  `json:"key"`
	Value float64 `json:"value"`
}

func rowCells(n int) []Cell[row] {
	cells := make([]Cell[row], n)
	for i := range cells {
		key := fmt.Sprintf("cell/%03d", i)
		cells[i] = Cell[row]{Key: key, Run: func(seed int64) (row, error) {
			w, _ := randomWalk(seed)
			return row{Key: key, Value: float64(w)}, nil
		}}
	}
	return cells
}

func TestJournalResumeByteIdentical(t *testing.T) {
	base := int64(42)
	clean, err := Map(base, rowCells(12), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}

	// First attempt: the process dies after the first five cells landed in
	// the journal — simulated by running only that prefix.
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path, "rows")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Map(base, rowCells(12)[:5], Options{Parallelism: 1, Journal: j}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume with a fresh Journal value, as a re-invoked process would.
	j2, err := OpenJournal(path, "rows")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 5 {
		t.Fatalf("journal holds %d cells, want the 5 completed before the crash", j2.Len())
	}
	reran := 0
	cells := rowCells(12)
	for i := range cells {
		inner := cells[i].Run
		cells[i].Run = func(seed int64) (row, error) { reran++; return inner(seed) }
	}
	resumed, err := Map(base, cells, Options{Parallelism: 1, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if reran != 7 {
		t.Errorf("resume re-ran %d cells, want only the 7 not journaled", reran)
	}
	if !reflect.DeepEqual(clean, resumed) {
		t.Fatal("resumed sweep output differs from the uninterrupted run")
	}
}

func TestJournalSkipsTornFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path, "rows")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Map(7, rowCells(3), Options{Parallelism: 1, Journal: j}); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill mid-write: append half a line.
	if _, err := j.f.WriteString(`{"key":"cell/9`); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := OpenJournal(path, "rows")
	if err != nil {
		t.Fatalf("torn journal failed to load: %v", err)
	}
	if j2.Len() != 3 {
		t.Errorf("journal holds %d cells after the torn line, want 3", j2.Len())
	}

	// Resume into the torn journal: the cells it records must land on
	// lines of their own, not extend the fragment, so a second resume
	// finds all five.
	if _, err := Map(7, rowCells(5), Options{Parallelism: 1, Journal: j2}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, err := OpenJournal(path, "rows")
	if err != nil {
		t.Fatalf("resumed journal failed to load: %v", err)
	}
	defer j3.Close()
	if j3.Len() != 5 {
		t.Errorf("journal holds %d cells after resuming past the torn line, want 5", j3.Len())
	}
}

func TestJournalRejectsBaseSeedMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path, "rows")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := Map(1, rowCells(2), Options{Parallelism: 1, Journal: j}); err != nil {
		t.Fatal(err)
	}
	if _, err := Map(2, rowCells(2), Options{Parallelism: 1, Journal: j}); err == nil {
		t.Fatal("journal accepted a different base seed")
	}
}

func TestJournalRejectsRunMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path, "rows n=12")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Map(1, rowCells(2), Options{Parallelism: 1, Journal: j}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if j2, err := OpenJournal(path, "rows n=30"); err == nil {
		j2.Close()
		t.Fatal("journal recorded for another run was accepted")
	}
	j3, err := OpenJournal(path, "rows n=12")
	if err != nil {
		t.Fatalf("journal rejected its own run: %v", err)
	}
	defer j3.Close()
	if j3.Len() != 2 {
		t.Errorf("journal holds %d cells, want 2", j3.Len())
	}
}

func TestJournalParallelResumeMatchesSerial(t *testing.T) {
	base := int64(9)
	clean, err := Map(base, rowCells(32), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path, "rows")
	if err != nil {
		t.Fatal(err)
	}
	cells := rowCells(32)
	cells[20].Run = func(int64) (row, error) { return row{}, errors.New("killed") }
	_, _ = Map(base, cells, Options{Parallelism: 4, Journal: j})
	j.Close()

	j2, err := OpenJournal(path, "rows")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	resumed, err := Map(base, rowCells(32), Options{Parallelism: 4, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean, resumed) {
		t.Fatal("parallel resumed sweep diverged from the clean serial run")
	}
}

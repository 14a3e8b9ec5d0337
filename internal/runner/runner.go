// Package runner is the deterministic worker-pool engine behind every grid
// experiment: it fans independent (instance × heuristic × seed) cells out
// across GOMAXPROCS goroutines and reassembles the results in canonical
// cell order, so the output of a parallel run is byte-identical to a serial
// run of the same cells.
//
// Determinism rests on two rules:
//
//  1. A cell's PRNG seed is derived only from the experiment's base seed
//     and the cell's stable seed key — never from worker identity, queue
//     position, or completion order. Two cells with the same seed key get
//     the same seed regardless of how work was scheduled; this is how the
//     paired-comparison experiments give every heuristic the same random
//     workload draw.
//  2. Results land in a slice indexed by the cell's submission position,
//     and errors are reported for the lowest-indexed failing cell, so even
//     failure output is independent of scheduling.
//
// Cells must be self-contained: a cell's Run function owns everything it
// mutates (strategy state, PRNGs, stateful fault/dynamic models must be
// constructed inside Run, per cell) and may share only read-only data such
// as instances and graphs with other cells.
package runner

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"ocd/internal/telemetry"
)

// Cell is one independent unit of experiment work producing a T.
type Cell[T any] struct {
	// Key identifies the cell uniquely within one Map call; it names the
	// cell in error messages and anchors the canonical order (cells are
	// returned in submission order, whatever the workers did).
	Key string
	// SeedKey is the stable string the cell's PRNG seed is derived from.
	// Empty means Key. Distinct cells may deliberately share a SeedKey:
	// the grid experiments give every heuristic in the same (graph,
	// repeat) point the same seed so comparisons stay paired.
	SeedKey string
	// Run executes the cell with the derived seed.
	Run func(seed int64) (T, error)
}

// Options configures a Map call.
type Options struct {
	// Parallelism is the number of worker goroutines. Zero or negative
	// means GOMAXPROCS. Parallelism 1 is exact serial execution.
	Parallelism int
	// Journal, when non-nil, records each completed cell's result as one
	// JSONL line and skips cells the journal already holds, so a killed
	// sweep resumes from its completed cells with byte-identical output.
	// The cell result type must round-trip through encoding/json. Failed
	// cells are never journaled; they re-run on resume.
	Journal *Journal
	// Metrics, when non-nil, records per-cell wall-clock latency, worker
	// occupancy, executed-cell and journal-skip counts. Recording never
	// affects results: the deterministic counters are identical at every
	// parallelism, and a nil Metrics costs one nil check per cell.
	Metrics *telemetry.RunnerMetrics
}

// PanicError is a cell panic converted into a structured error: one
// panicking cell fails its own cell, not the whole sweep's process.
type PanicError struct {
	// Key names the panicking cell; Value is the recovered panic value.
	Key   string
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("cell %q panicked: %v\n%s", e.Key, e.Value, e.Stack)
}

// seedPrime/seedOffset are the FNV-1a 64-bit parameters used for seed
// derivation.
const (
	seedOffset uint64 = 14695981039346656037
	seedPrime  uint64 = 1099511628211
)

// Seed derives a cell's PRNG seed from the experiment base seed and the
// cell's seed key: the FNV-1a hash of the key XORed with the base. The
// derivation is pure — equal inputs give equal seeds on every platform and
// schedule — and changing either the base seed or any byte of the key
// decorrelates the stream.
func Seed(base int64, key string) int64 {
	h := seedOffset
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= seedPrime
	}
	return base ^ int64(h)
}

// Map runs every cell and returns their results in submission order. Work
// is distributed across opts.Parallelism goroutines; scheduling cannot
// affect the output (see the package comment). If any cells fail, the
// error of the lowest-indexed failing cell is returned alongside the
// partial results. Duplicate cell keys are rejected before any cell runs.
func Map[T any](base int64, cells []Cell[T], opts Options) ([]T, error) {
	seen := make(map[string]struct{}, len(cells))
	for _, c := range cells {
		if _, dup := seen[c.Key]; dup {
			return nil, fmt.Errorf("runner: duplicate cell key %q", c.Key)
		}
		seen[c.Key] = struct{}{}
	}

	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	results := make([]T, len(cells))
	errs := make([]error, len(cells))
	skip := make([]bool, len(cells))

	if opts.Journal != nil {
		if err := opts.Journal.bind(base); err != nil {
			return nil, err
		}
		for i, c := range cells {
			raw, ok := opts.Journal.lookup(c.Key)
			if !ok {
				continue
			}
			if json.Unmarshal(raw, &results[i]) == nil {
				skip[i] = true
				opts.Metrics.CellSkipped()
			} else {
				// A journal recorded by an older driver whose row shape no
				// longer matches: re-run the cell rather than resume wrong.
				var zero T
				results[i] = zero
			}
		}
	}

	exec := func(i int) {
		c := cells[i]
		start := opts.Metrics.CellStart()
		results[i], errs[i] = runCell(c, cellSeed(base, c))
		opts.Metrics.CellDone(start)
		if errs[i] == nil && opts.Journal != nil {
			errs[i] = opts.Journal.record(c.Key, results[i])
		}
	}

	if workers <= 1 {
		for i := range cells {
			if !skip[i] {
				exec(i)
			}
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(cells) {
						return
					}
					if !skip[i] {
						exec(i)
					}
				}
			}()
		}
		wg.Wait()
	}

	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("runner: cell %q: %w", cells[i].Key, err)
		}
	}
	return results, nil
}

func cellSeed[T any](base int64, c Cell[T]) int64 {
	key := c.SeedKey
	if key == "" {
		key = c.Key
	}
	return Seed(base, key)
}

// runCell executes one cell, turning a panic into the cell's PanicError.
func runCell[T any](c Cell[T], seed int64) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Key: c.Key, Value: r, Stack: string(debug.Stack())}
		}
	}()
	return c.Run(seed)
}

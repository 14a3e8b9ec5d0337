package telemetry

// The two places the metrics layer instruments: each kernel run's result
// (per-engine step-phase totals) and the experiment runner's worker pool
// (per-cell latency and occupancy).

import (
	"sync/atomic"
	"time"

	"ocd/internal/sim"
)

// RecordRun adds one run's step-phase totals to the kernel.<engine>.*
// counters on reg: steps executed (idle ones tallied separately), moves
// planned (admitted + rejected), admitted, lost in transit, and
// delivered. engine names the engine composition that ran ("sim",
// "fault", ...), keeping multi-engine runs separable in one registry.
// Every total is read off the result — the schedule holds one entry per
// executed step, empty when idle, with only the delivered moves, and the
// result counts the lost and rejected ones — so stalled and cut-off runs
// count like completed ones. The counters are Deterministic and safe to
// feed from concurrent cells. A nil registry or a nil result records
// nothing.
func RecordRun(reg *Registry, engine string, res *sim.Result) {
	if reg == nil || res == nil {
		return
	}
	idle := 0
	for _, st := range res.Schedule.Steps {
		if len(st) == 0 {
			idle++
		}
	}
	delivered := res.Schedule.Moves()
	admitted := delivered + res.Lost
	p := "kernel." + engine + "."
	reg.Counter(p + "steps").Add(int64(len(res.Schedule.Steps)))
	reg.Counter(p + "idle_steps").Add(int64(idle))
	reg.Counter(p + "planned").Add(int64(admitted + res.Rejected))
	reg.Counter(p + "admitted").Add(int64(admitted))
	reg.Counter(p + "delivered").Add(int64(delivered))
	reg.Counter(p + "lost").Add(int64(res.Lost))
	reg.Counter(p + "rejected").Add(int64(res.Rejected))
}

// RunnerMetrics instruments runner.Map's worker pool. Cells and
// journal-skipped cells are Deterministic counters (the same cell set
// runs at every parallelism); per-cell latency and worker occupancy are
// WallClock. A nil *RunnerMetrics (from a nil registry) records nothing.
type RunnerMetrics struct {
	cells     *Counter
	skipped   *Counter
	cellTime  *Histogram
	occupancy *Gauge
	active    atomic.Int64
}

// NewRunnerMetrics registers the runner.* metrics on reg and returns the
// instrument the runner records through. A nil registry returns nil,
// which every method treats as "telemetry off".
func NewRunnerMetrics(reg *Registry) *RunnerMetrics {
	if reg == nil {
		return nil
	}
	return &RunnerMetrics{
		cells:     reg.Counter("runner.cells"),
		skipped:   reg.Counter("runner.journal_skips"),
		cellTime:  reg.Histogram("runner.cell_seconds"),
		occupancy: reg.Gauge("runner.worker_occupancy"),
	}
}

// CellSkipped counts a cell satisfied from the crash-safety journal.
func (m *RunnerMetrics) CellSkipped() {
	if m == nil {
		return
	}
	m.skipped.Inc()
}

// CellStart marks one cell entering a worker and returns its start time.
// The occupancy gauge keeps the high-watermark of concurrently running
// cells.
func (m *RunnerMetrics) CellStart() time.Time {
	if m == nil {
		return time.Time{}
	}
	m.occupancy.Observe(m.active.Add(1))
	return time.Now() //ocd:wallclock cell latency is a WallClock metric by contract
}

// CellDone records the cell's wall-clock latency and releases its
// occupancy slot.
func (m *RunnerMetrics) CellDone(start time.Time) {
	if m == nil {
		return
	}
	m.active.Add(-1)
	m.cells.Inc()
	m.cellTime.Observe(time.Since(start)) //ocd:wallclock cell latency is a WallClock metric by contract
}

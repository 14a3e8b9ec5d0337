package telemetry

import (
	"errors"
	"testing"
	"time"

	"ocd/internal/core"
	"ocd/internal/fault"
	"ocd/internal/heuristics"
	"ocd/internal/sim"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

// kernelTotals reads the seven kernel.<engine>.* counters in RecordRun's
// order: steps, idle_steps, planned, admitted, delivered, lost, rejected.
func kernelTotals(r *Registry, engine string) [7]int64 {
	var out [7]int64
	for i, name := range []string{"steps", "idle_steps", "planned", "admitted", "delivered", "lost", "rejected"} {
		out[i] = r.Counter("kernel." + engine + "." + name).Value()
	}
	return out
}

// recordRunResult is a run of three steps, one idle, and four planned
// moves: two delivered, one lost, one rejected.
func recordRunResult() *sim.Result {
	mv := core.Move{}
	return &sim.Result{
		Schedule: &core.Schedule{Steps: []core.Step{{mv}, nil, {mv}}},
		Lost:     1,
		Rejected: 1,
	}
}

// TestKernelObserverCounts checks the kernel.<engine>.* counters RecordRun
// derives from one result, and that runs accumulate.
func TestKernelObserverCounts(t *testing.T) {
	res := recordRunResult()
	r := New()
	RecordRun(r, "sim", res)
	if got, want := kernelTotals(r, "sim"), [7]int64{3, 1, 4, 3, 2, 1, 1}; got != want {
		t.Errorf("one run: totals %v, want %v", got, want)
	}
	RecordRun(r, "sim", res)
	if got, want := kernelTotals(r, "sim"), [7]int64{6, 2, 8, 6, 4, 2, 2}; got != want {
		t.Errorf("two runs: totals %v, want %v", got, want)
	}
	if n := len(r.Snapshot()); n != 7 {
		t.Errorf("registry holds %d metrics, want the 7 kernel.sim.* counters", n)
	}
}

// TestNewKernelObserverNilRegistry checks RecordRun's off switches: a nil
// registry records nothing and must not panic, and a nil result adds
// nothing to a live registry.
func TestNewKernelObserverNilRegistry(t *testing.T) {
	RecordRun(nil, "sim", recordRunResult())
	r := New()
	RecordRun(r, "sim", nil)
	if n := len(r.Snapshot()); n != 0 {
		t.Errorf("a nil result registered %d metrics, want none", n)
	}
}

// TestRecordRunMatchesObservedTotals pins RecordRun's derivation against an
// independent count: the literals are the totals a per-move kernel
// Observer (one increment per OnStep, OnMove and OnReject callback)
// counted on these same runs. They cover every paper heuristic under
// sim.Run, a fault.Run that both loses and rejects moves and has idle
// steps, and a sim.Run that stalls.
func TestRecordRunMatchesObservedTotals(t *testing.T) {
	g, err := topology.TransitStubN(36, topology.DefaultCaps, 7)
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.SingleFile(g, 24)
	// steps, idle_steps, planned, admitted, delivered, lost, rejected
	observed := map[string][7]int64{
		"roundrobin": {12, 0, 7999, 7999, 7999, 0, 0},
		"random":     {11, 0, 974, 974, 974, 0, 0},
		"local":      {11, 0, 936, 936, 936, 0, 0},
		"bandwidth":  {11, 0, 936, 936, 936, 0, 0},
		"global":     {11, 0, 936, 936, 936, 0, 0},
	}
	for i, f := range heuristics.All() {
		name := heuristics.Names()[i]
		res, err := sim.Run(inst, f, sim.Options{Seed: 11})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r := New()
		RecordRun(r, "sim", res)
		if got := kernelTotals(r, "sim"); got != observed[name] {
			t.Errorf("%s: totals %v, observed %v", name, got, observed[name])
		}
	}

	fres, err := fault.Run(inst, heuristics.LocalDelayed(2), fault.AtIntensity(0.35, 13, 0),
		sim.Options{Seed: 11, IdlePatience: 40})
	if err != nil {
		t.Fatal(err)
	}
	r := New()
	RecordRun(r, "fault", fres.Result)
	if got, want := kernelTotals(r, "fault"), [7]int64{184, 44, 2806, 2799, 2533, 266, 7}; got != want {
		t.Errorf("faulted run: totals %v, observed %v", got, want)
	}

	// Five turns of stale views outlast a patience of one idle step.
	stalled, err := sim.Run(inst, heuristics.LocalDelayed(5), sim.Options{Seed: 11, IdlePatience: 1})
	if !errors.Is(err, sim.ErrStalled) {
		t.Fatalf("want a stall, got %v", err)
	}
	r = New()
	RecordRun(r, "sim", stalled)
	if got, want := kernelTotals(r, "sim"), [7]int64{5, 1, 144, 144, 144, 0, 0}; got != want {
		t.Errorf("stalled run: totals %v, observed %v", got, want)
	}
}

func TestRunnerMetricsNilSafe(t *testing.T) {
	var m *RunnerMetrics
	if got := NewRunnerMetrics(nil); got != nil {
		t.Fatalf("nil registry must yield nil metrics, got %v", got)
	}
	start := m.CellStart()
	m.CellDone(start)
	m.CellSkipped()
	if !start.IsZero() {
		t.Error("nil metrics CellStart must return the zero time")
	}
}

func TestRunnerMetricsCounts(t *testing.T) {
	r := New()
	m := NewRunnerMetrics(r)
	s1 := m.CellStart()
	s2 := m.CellStart() // two cells in flight: occupancy watermark 2
	m.CellDone(s1)
	m.CellDone(s2)
	m.CellSkipped()
	if got := r.Counter("runner.cells").Value(); got != 2 {
		t.Errorf("runner.cells = %d, want 2", got)
	}
	if got := r.Counter("runner.journal_skips").Value(); got != 1 {
		t.Errorf("runner.journal_skips = %d, want 1", got)
	}
	if got := r.Gauge("runner.worker_occupancy").Value(); got != 2 {
		t.Errorf("runner.worker_occupancy = %d, want 2", got)
	}
	if got := r.Histogram("runner.cell_seconds").Count(); got != 2 {
		t.Errorf("runner.cell_seconds count = %d, want 2", got)
	}
	if time.Since(s1) < 0 { //ocd:wallclock asserting CellStart returned a real wall-clock time
		t.Error("CellStart must return a real wall-clock start time")
	}
}

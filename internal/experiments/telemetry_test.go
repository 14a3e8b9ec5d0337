package experiments

import (
	"bytes"
	"encoding/csv"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ocd/internal/telemetry"
)

// TestTelemetryDoesNotPerturbTables is the tentpole invariant: attaching a
// metric registry to a run must not change a single output byte. Each case
// is rendered with telemetry off and on; the tables must match exactly,
// and the telemetry-on run must actually have recorded something (so the
// test cannot pass vacuously with disconnected instrumentation).
func TestTelemetryDoesNotPerturbTables(t *testing.T) {
	cases := []struct {
		name   string
		params map[string]string
	}{
		{"figure1", nil},
		{"graph-size", map[string]string{
			"sizes": "12,20", "tokens": "16", "graph-seeds": "1", "repeats": "1", "seed": "5",
		}},
		{"partition", map[string]string{
			"n": "16", "tokens": "8", "heal": "0,-1", "heuristics": "local", "seed": "3",
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			off, err := Run(tc.name, tc.params, nil)
			if err != nil {
				t.Fatalf("telemetry off: %v", err)
			}
			reg := telemetry.New()
			on, err := Run(tc.name, tc.params, reg)
			if err != nil {
				t.Fatalf("telemetry on: %v", err)
			}
			if on.ASCII() != off.ASCII() {
				t.Errorf("telemetry perturbed the table\n--- on ---\n%s--- off ---\n%s", on.ASCII(), off.ASCII())
			}
			if len(reg.Snapshot()) == 0 {
				t.Error("telemetry-on run recorded no metrics; instrumentation is disconnected")
			}
		})
	}
}

// TestTelemetryCountersMatchAcrossParallelism pins the Deterministic class
// contract: counters are pure functions of the seed, so the deterministic
// snapshot of a parallel sweep must equal the serial one exactly. Runs
// under -race in CI, so shared-observer races fail even when the totals
// happen to agree.
func TestTelemetryCountersMatchAcrossParallelism(t *testing.T) {
	snapshot := func(parallelism int) []telemetry.Metric {
		reg := telemetry.New()
		if _, err := Run("graph-size", map[string]string{
			"topology": "transit-stub", "sizes": "12,20", "tokens": "16",
			"graph-seeds": "2", "repeats": "2", "seed": "7", "parallelism": strconv.Itoa(parallelism),
		}, reg); err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		return reg.DeterministicSnapshot()
	}
	serial := snapshot(1)
	if len(serial) == 0 {
		t.Fatal("serial sweep recorded no deterministic metrics")
	}
	var kernel, runner bool
	for _, m := range serial {
		kernel = kernel || strings.HasPrefix(m.Name, "kernel.")
		runner = runner || strings.HasPrefix(m.Name, "runner.")
	}
	if !kernel || !runner {
		t.Fatalf("sweep must record kernel.* and runner.* counters, got %+v", serial)
	}
	for _, p := range []int{2, 4, 0} {
		if got := snapshot(p); !reflect.DeepEqual(got, serial) {
			t.Errorf("parallelism %d deterministic counters diverged:\n got %+v\nwant %+v", p, got, serial)
		}
	}
}

// kernelCounters runs one experiment with a registry attached and returns
// its deterministic kernel.* counters, keyed by the engine that recorded
// them ("sim" for kernel.sim.*), failing unless each engine has all seven.
func kernelCounters(t *testing.T, name string, params map[string]string) map[string][]telemetry.Metric {
	t.Helper()
	reg := telemetry.New()
	if _, err := Run(name, params, reg); err != nil {
		t.Fatalf("%s %v: %v", name, params, err)
	}
	out := make(map[string][]telemetry.Metric)
	for _, m := range reg.DeterministicSnapshot() {
		if rest, ok := strings.CutPrefix(m.Name, "kernel."); ok {
			engine, _, _ := strings.Cut(rest, ".")
			out[engine] = append(out[engine], m)
		}
	}
	for engine, ms := range out {
		if len(ms) != 7 {
			t.Fatalf("%s %v: want the 7 kernel.%s.* counters, got %+v", name, params, engine, ms)
		}
	}
	return out
}

// TestTelemetryCountsFaultCells: every fault-engine sweep records its
// runs' kernel.fault.* totals, and attaching the invariant monitor leaves
// them unchanged.
func TestTelemetryCountsFaultCells(t *testing.T) {
	kernel := func(name string, params map[string]string) []telemetry.Metric {
		t.Helper()
		out := kernelCounters(t, name, params)["fault"]
		if len(out) != 7 {
			t.Fatalf("%s %v: want the 7 kernel.fault.* counters, got %+v", name, params, out)
		}
		return out
	}
	partition := map[string]string{"n": "16", "tokens": "8", "heal": "0,-1", "heuristics": "local", "seed": "3"}
	plain := kernel("partition", partition)
	partition["monitor"] = "true"
	if monitored := kernel("partition", partition); !reflect.DeepEqual(monitored, plain) {
		t.Errorf("-monitor changed the kernel counters:\n got %+v\nwant %+v", monitored, plain)
	}
	kernel("churn", map[string]string{"n": "12", "tokens": "6", "leave": "0,0.05", "heuristics": "local"})
	kernel("chaos", map[string]string{"n": "12", "tokens": "6", "intensities": "0,0.5", "heuristics": "local"})
	kernel("crashed-source", map[string]string{"n": "12", "tokens": "6", "crash-at": "1"})
}

// TestTelemetryCountsEngineCells: every experiment that holds its engine
// runs' results records their kernel totals at its smoke size, under the
// engine that ran them: sim.Run and the §4.2 oracle as kernel.sim.*,
// fault.Run and coded runs as kernel.fault.*, the shared underlay as
// kernel.underlay.*.
func TestTelemetryCountsEngineCells(t *testing.T) {
	for name, engines := range map[string][]string{
		"architectures":       {"sim"},
		"dynamic-conditions":  {"fault"},
		"loss-coding":         {"fault"},
		"underlay":            {"sim", "underlay"},
		"knowledge-delay":     {"sim"},
		"protocol-comparison": {"sim"},
		"oracle-additive":     {"sim"},
	} {
		spec, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s: not registered", name)
		}
		got := kernelCounters(t, name, spec.Smoke)
		if len(got) != len(engines) {
			t.Errorf("%s: kernel counters of %d engines, want %v", name, len(got), engines)
		}
		for _, engine := range engines {
			steps := int64(0)
			for _, m := range got[engine] {
				if m.Name == "kernel."+engine+".steps" {
					steps = m.Value
				}
			}
			if steps <= 0 {
				t.Errorf("%s: kernel.%s.steps = %d, want > 0 (counters %+v)", name, engine, steps, got[engine])
			}
		}
	}
}

// TestSolverCountersRecorded checks the ILP seam: an optimal-schedule
// experiment must surface branch-and-bound and simplex work through the
// solver.* counters.
func TestSolverCountersRecorded(t *testing.T) {
	reg := telemetry.New()
	if _, err := Run("figure1", nil, reg); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"solver.nodes", "solver.simplex_iterations"} {
		if got := reg.Counter(name).Value(); got <= 0 {
			t.Errorf("%s = %d, want > 0", name, got)
		}
	}
	// Breakdown counters exist even when the pinned instances never flip a
	// bound; they must simply be non-negative and registered.
	for _, name := range []string{"solver.warm_starts", "solver.bound_flips", "solver.dual_restorations"} {
		if got := reg.Counter(name).Value(); got < 0 {
			t.Errorf("%s = %d, want >= 0", name, got)
		}
	}
}

// TestCSVSinkQuotesSpecials pins the RFC-4180 behaviour the historical
// join-with-comma sink lacked: cells containing commas, quotes, or
// newlines round-trip through a CSV reader intact.
func TestCSVSinkQuotesSpecials(t *testing.T) {
	var buf bytes.Buffer
	sink := &CSVSink{W: &buf}
	head := []string{"graph", "note"}
	row := []string{`transit,stub`, "a \"quoted\" cell\nwith a newline"}
	if err := sink.Head("t", head); err != nil {
		t.Fatal(err)
	}
	if err := sink.Row(row); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatalf("sink output is not valid CSV: %v\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(records, [][]string{head, row}) {
		t.Errorf("round trip mismatch: %q", records)
	}
}

// TestCSVSinkPlainCellsKeepHistoricalBytes pins byte identity for the
// common case: cells without specials must render exactly as the old
// strings.Join(cells, ",") + "\n" did (no quoting, no CRLF).
func TestCSVSinkPlainCellsKeepHistoricalBytes(t *testing.T) {
	var buf bytes.Buffer
	sink := &CSVSink{W: &buf}
	if err := sink.Head("t", []string{"n", "makespan"}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Row([]string{"20", "41.5"}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := "n,makespan\n20,41.5\n"; buf.String() != want {
		t.Errorf("plain cells rendered %q, want %q", buf.String(), want)
	}
}

// errFlusher is an io.Writer whose Flush fails, standing in for a
// buffered writer over a full disk.
type errFlusher struct{ err error }

func (f *errFlusher) Write(p []byte) (int, error) { return len(p), nil }
func (f *errFlusher) Flush() error                { return f.err }

// TestSinkFlushPropagatesWriterErrors pins the fix for the silent-loss
// bug: a sink over a buffered writer must surface the writer's Flush
// error through Emitter.finish instead of dropping tail rows.
func TestSinkFlushPropagatesWriterErrors(t *testing.T) {
	werr := errors.New("disk full")
	sinks := []Sink{
		&CSVSink{W: &errFlusher{err: werr}},
		&JSONLSink{W: &errFlusher{err: werr}},
	}
	for _, s := range sinks {
		if err := s.Flush(); !errors.Is(err, werr) {
			t.Errorf("%T.Flush() = %v, want %v", s, err, werr)
		}
	}
	// And through the emitter: finish must report the sink error.
	em := newEmitter([]Sink{&CSVSink{W: &errFlusher{err: werr}}})
	em.Head("t", "a")
	em.Emit("1")
	if _, err := em.finish(); !errors.Is(err, werr) {
		t.Errorf("finish() = %v, want wrapped %v", err, werr)
	}
}

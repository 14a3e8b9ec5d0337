package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ocd/internal/telemetry"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return out.String()
}

func TestSweepScenario(t *testing.T) {
	out := runOK(t, "-n", "12", "-tokens", "6",
		"-intensities", "0,0.5", "-heuristics", "local,retry-local")
	for _, want := range []string{"intensity", "retry-local", "completed", "inflation"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestCrashSourceScenario(t *testing.T) {
	out := runOK(t, "-scenario", "crash-source", "-n", "12", "-tokens", "36", "-crash-at", "1")
	if !strings.Contains(out, "graceful") {
		t.Errorf("no graceful termination in output:\n%s", out)
	}
	if !strings.Contains(out, "unsatisfiable") {
		t.Errorf("no unsatisfiable-receiver column in output:\n%s", out)
	}
}

func TestCSVOutput(t *testing.T) {
	out := runOK(t, "-n", "12", "-tokens", "6", "-intensities", "0",
		"-heuristics", "local", "-csv")
	if !strings.HasPrefix(out, "intensity,heuristic,") {
		t.Errorf("not CSV:\n%s", out)
	}
}

func TestPartitionScenario(t *testing.T) {
	out := runOK(t, "-scenario", "partition", "-n", "12", "-tokens", "6",
		"-k", "2", "-heal", "0,-1", "-heuristics", "local", "-monitor")
	for _, want := range []string{"liveness", "never", "invariant monitor"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestChurnScenario(t *testing.T) {
	out := runOK(t, "-scenario", "churn", "-n", "12", "-tokens", "6",
		"-churn-rates", "0,0.05", "-rejoin", "0.5", "-heuristics", "local", "-monitor")
	for _, want := range []string{"leave", "departures", "rejoin"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestJournalResumeMatchesCleanRun(t *testing.T) {
	args := []string{"-scenario", "churn", "-n", "12", "-tokens", "6",
		"-churn-rates", "0,0.05,0.1", "-heuristics", "local,bandwidth", "-seed", "5"}
	clean := runOK(t, args...)

	// First pass journals every cell; the "resumed" pass must replay out of
	// the journal to byte-identical output.
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")
	withJournal := append(args, "-journal", journal)
	if runOK(t, withJournal...) != clean {
		t.Error("journaled run diverged from the plain run")
	}
	if resumed := runOK(t, withJournal...); resumed != clean {
		t.Error("resumed run diverged from the plain run")
	}
}

// TestJournalFromEarlierRowFormatResumes: testdata/churn-journal.jsonl was
// recorded when churn cells journaled both a "crashes" and a "departures"
// count. The header pins only the experiment, its parameters and the seed,
// so a row format that no longer read "departures" would resume without
// error and print zeros; the resumed table must match a clean run, and
// every cell must come from the journal (nothing appended).
func TestJournalFromEarlierRowFormatResumes(t *testing.T) {
	args := []string{"-scenario", "churn", "-n", "12", "-tokens", "6",
		"-churn-rates", "0,0.05,0.1", "-heuristics", "local,bandwidth", "-seed", "5"}
	recorded, err := os.ReadFile(filepath.Join("testdata", "churn-journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(t.TempDir(), "churn.jsonl")
	if err := os.WriteFile(journal, recorded, 0o644); err != nil {
		t.Fatal(err)
	}
	clean := runOK(t, args...)
	if resumed := runOK(t, append(args, "-journal", journal)...); resumed != clean {
		t.Errorf("resumed run diverged from the clean run:\n%s\nvs\n%s", resumed, clean)
	}
	after, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, recorded) {
		t.Error("resume re-ran cells the journal already held")
	}
}

// TestJournalRejectsOtherInvocation: a journal resumes only the invocation
// that recorded it. Partition cell keys name only the heal axis, so a
// journal that pinned just the base seed used to hand an n=12 run's rows
// to an n=30 run and exit 0.
func TestJournalRejectsOtherInvocation(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")
	small := []string{"-scenario", "partition", "-n", "12", "-tokens", "6",
		"-heal", "0,4", "-heuristics", "local", "-journal", journal}
	first := runOK(t, small...)
	large := []string{"-scenario", "partition", "-n", "30", "-tokens", "24",
		"-heal", "0,4", "-heuristics", "local", "-journal", journal}
	var out bytes.Buffer
	if err := run(large, &out); err == nil || !strings.Contains(err.Error(), "recorded for run") {
		t.Fatalf("n=30 run resumed the n=12 journal: err=%v\n%s", err, out.String())
	}
	if resumed := runOK(t, small...); resumed != first {
		t.Errorf("recording invocation no longer resumes byte-identically:\n%s\nvs\n%s", resumed, first)
	}
}

// TestSpecFileJournalRejectsSecondInvocation: the harness merges one
// -journal path into every invocation of a spec file that declares it, so
// the second partition invocation must fail instead of replaying the
// first one's rows.
func TestSpecFileJournalRejectsSecondInvocation(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "two.json")
	if err := os.WriteFile(spec, []byte(`[
  {"experiment": "partition", "params": {"n": "12", "tokens": "6", "heal": "0,4", "heuristics": "local"}},
  {"experiment": "partition", "params": {"n": "30", "tokens": "24", "heal": "0,4", "heuristics": "local"}}
]`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-spec", spec, "-journal", filepath.Join(dir, "sweep.jsonl")}, &out)
	if err == nil || !strings.Contains(err.Error(), "recorded for run") {
		t.Fatalf("second invocation resumed the first one's journal: err=%v\n%s", err, out.String())
	}
}

// TestFlagValidation: every scenario flag is checked by the parameter of
// the experiment it feeds, so each error names that parameter, and spec
// mode rejects every scenario flag by name.
func TestFlagValidation(t *testing.T) {
	bad := []struct {
		args []string
		want string
	}{
		{[]string{"-n", "0"}, "param n:"},
		{[]string{"-tokens", "-3"}, "param tokens:"},
		{[]string{"-crash-at", "-1", "-scenario", "crash-source"}, "param crash-at:"},
		{[]string{"-intensities", "1.5"}, "param intensities:"},
		{[]string{"-intensities", "0,NaN"}, "param intensities:"},
		{[]string{"-intensities", "abc"}, "param intensities:"},
		{[]string{"-intensities", ""}, "param intensities:"},
		{[]string{"-heuristics", ""}, "param heuristics:"},
		{[]string{"-heuristics", "nope"}, "param heuristics:"},
		{[]string{"-scenario", "nope"}, "unknown scenario"},
		{[]string{"-scenario", "partition", "-k", "1"}, "param k:"},
		{[]string{"-scenario", "partition", "-heal", ""}, "param heal:"},
		{[]string{"-scenario", "partition", "-heal", "abc"}, "param heal:"},
		{[]string{"-scenario", "churn", "-churn-rates", ""}, "param leave:"},
		{[]string{"-scenario", "churn", "-churn-rates", "1.5"}, "param leave:"},
		{[]string{"-scenario", "churn", "-rejoin", "2"}, "param rejoin:"},
		{[]string{"-scenario", "churn", "-churn-rates", "NaN"}, "param leave:"},
		{[]string{"-scenario", "churn", "-rejoin", "NaN"}, "param rejoin:"},
		// -experiment, -spec and -list read no scenario flag.
		{[]string{"-experiment", "chaos", "-param", "intensities=0", "-param", "heuristics=local",
			"-n", "12", "-tokens", "6", "-scenario", "bogus", "-intensities", "9"}, "-intensities is not read by"},
		{[]string{"-experiment", "chaos", "-param", "n=12", "-tokens", "6"}, "-tokens is not read by"},
		{[]string{"-list", "-scenario", "nope"}, "-scenario is not read by"},
		{[]string{"-list", "-scenario", "sweep"}, "-scenario is not read by"},
		{[]string{"-spec", "sweeps.json", "-k", "3"}, "-k is not read by"},
		{[]string{"-experiment", "partition", "-heal", "0"}, "-heal is not read by"},
		{[]string{"-experiment", "churn", "-churn-rates", "0.1", "-rejoin", "0"}, "-churn-rates is not read by"},
		{[]string{"-experiment", "crashed-source", "-crash-at", "1"}, "-crash-at is not read by"},
		{[]string{"-experiment", "chaos", "-heuristics", "local"}, "-heuristics is not read by"},
	}
	for _, tc := range bad {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil {
			t.Errorf("run(%v) accepted invalid flags", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v): error %q does not contain %q", tc.args, err, tc.want)
		}
	}
}

func TestSpecModeExperimentCSV(t *testing.T) {
	out := runOK(t, "-experiment", "chaos", "-param", "n=12", "-param", "tokens=6",
		"-param", "intensities=0", "-param", "heuristics=local", "-csv")
	if !strings.HasPrefix(out, "intensity,heuristic,") {
		t.Errorf("not CSV:\n%s", out)
	}
}

// TestSpecModeHarnessFlags drives the partition experiment through the
// registry with the shared -monitor flag and expects the invariant-monitor
// note, proving the harness flags merge into spec parameters.
func TestSpecModeHarnessFlags(t *testing.T) {
	out := runOK(t, "-experiment", "partition", "-param", "n=12", "-param", "tokens=6",
		"-param", "heal=0", "-param", "heuristics=local", "-monitor")
	if !strings.Contains(out, "invariant monitor") {
		t.Errorf("-monitor did not reach the partition spec:\n%s", out)
	}
}

// TestSpecModeMatchesScenario: each -scenario is a spelling of one
// registered experiment. At defaults and with every scenario flag set,
// its output must match the -experiment … -param … spelling.
func TestSpecModeMatchesScenario(t *testing.T) {
	cases := []struct {
		scenario, experiment string
		flags, params        []string
	}{
		{"sweep", "chaos",
			[]string{"-n", "12", "-tokens", "6", "-intensities", "0,0.5", "-heuristics", "local,retry-local"},
			[]string{"n=12", "tokens=6", "intensities=0,0.5", "heuristics=local,retry-local"}},
		{"crash-source", "crashed-source",
			[]string{"-n", "12", "-tokens", "36", "-crash-at", "1"},
			[]string{"n=12", "tokens=36", "crash-at=1"}},
		{"partition", "partition",
			[]string{"-n", "12", "-tokens", "6", "-k", "3", "-heal", "0,-1", "-heuristics", "local"},
			[]string{"n=12", "tokens=6", "k=3", "heal=0,-1", "heuristics=local"}},
		{"churn", "churn",
			[]string{"-n", "12", "-tokens", "6", "-churn-rates", "0,0.05", "-rejoin", "0.25", "-heuristics", "local"},
			[]string{"n=12", "tokens=6", "leave=0,0.05", "rejoin=0.25", "heuristics=local"}},
	}
	for _, tc := range cases {
		t.Run(tc.scenario, func(t *testing.T) {
			if scenario, spec := runOK(t, "-scenario", tc.scenario), runOK(t, "-experiment", tc.experiment); scenario != spec {
				t.Errorf("defaults diverge:\n--- scenario ---\n%s--- spec ---\n%s", scenario, spec)
			}
			scenarioArgs := append([]string{"-scenario", tc.scenario, "-seed", "5"}, tc.flags...)
			specArgs := []string{"-experiment", tc.experiment, "-seed", "5"}
			for _, p := range tc.params {
				specArgs = append(specArgs, "-param", p)
			}
			if scenario, spec := runOK(t, scenarioArgs...), runOK(t, specArgs...); scenario != spec {
				t.Errorf("flags set: outputs diverge:\n--- scenario ---\n%s--- spec ---\n%s", scenario, spec)
			}
		})
	}
}

// TestScenarioWritesTelemetryAndRows: a scenario run honours -telemetry
// and -jsonl exactly like -experiment. The stream's runner.cells counter
// equals the cells the run executed, and the row log holds the table's
// one head.
func TestScenarioWritesTelemetryAndRows(t *testing.T) {
	cases := []struct {
		args  []string
		cells int64
	}{
		// One fault-free baseline per heuristic plus 2 intensities × 1 heuristic.
		{[]string{"-n", "12", "-tokens", "6", "-intensities", "0,0.5", "-heuristics", "local"}, 3},
		// One cell per paper heuristic.
		{[]string{"-scenario", "crash-source", "-n", "12", "-tokens", "36", "-crash-at", "1"}, 5},
	}
	for _, tc := range cases {
		dir := t.TempDir()
		tel, rows := filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "rows.jsonl")
		runOK(t, append(tc.args, "-telemetry", tel, "-jsonl", rows)...)

		f, err := os.Open(tel)
		if err != nil {
			t.Fatal(err)
		}
		metrics, err := telemetry.DecodeJSONL(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		var cells int64 = -1
		for _, m := range metrics {
			if m.Name == "runner.cells" {
				cells = m.Value
			}
		}
		if cells != tc.cells {
			t.Errorf("run(%v): runner.cells = %d, want %d (stream %+v)", tc.args, cells, tc.cells, metrics)
		}

		rowLog, err := os.ReadFile(rows)
		if err != nil {
			t.Fatalf("run(%v): no row log: %v", tc.args, err)
		}
		if heads := strings.Count(string(rowLog), `"title"`); heads != 1 {
			t.Errorf("run(%v): row log has %d heads, want 1:\n%s", tc.args, heads, rowLog)
		}
	}
}

func TestDeterministicOutput(t *testing.T) {
	args := []string{"-n", "12", "-tokens", "8", "-intensities", "0.6",
		"-heuristics", "local,random", "-seed", "9"}
	if runOK(t, args...) != runOK(t, args...) {
		t.Error("identical seeds produced different sweeps")
	}
}

// failWriter fails after the first write, modelling a closed pipe.
type failWriter struct{ wrote bool }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.wrote {
		return 0, errors.New("pipe closed")
	}
	w.wrote = true
	return len(p), nil
}

func TestWriteErrorReported(t *testing.T) {
	err := run([]string{"-n", "12", "-tokens", "6", "-intensities", "0", "-heuristics", "local"},
		&failWriter{wrote: true})
	if err == nil || !strings.Contains(err.Error(), "writing table") {
		t.Fatalf("want write error reported, got %v", err)
	}
}

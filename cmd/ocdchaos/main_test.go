package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

func TestFlagValidation(t *testing.T) {
	bad := [][]string{
		{"-n", "0"},
		{"-tokens", "-3"},
		{"-crash-at", "-1", "-scenario", "crash-source"},
		{"-intensities", "1.5"},
		{"-intensities", "abc"},
		{"-intensities", ""},
		{"-heuristics", ""},
		{"-heuristics", "nope"},
		{"-scenario", "nope"},
		{"-scenario", "partition", "-k", "1"},
		{"-scenario", "partition", "-heal", ""},
		{"-scenario", "partition", "-heal", "abc"},
		{"-scenario", "churn", "-churn-rates", ""},
		{"-scenario", "churn", "-churn-rates", "1.5"},
		{"-scenario", "churn", "-rejoin", "2"},
	}
	for _, args := range bad {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) accepted invalid flags", args)
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

// TestSpecModeMatchesScenario runs the same sweep through the classic
// scenario flags and the registry and expects identical tables.
func TestSpecModeMatchesScenario(t *testing.T) {
	classic := runOK(t, "-scenario", "churn", "-n", "12", "-tokens", "6",
		"-churn-rates", "0,0.05", "-heuristics", "local", "-seed", "5")
	spec := runOK(t, "-experiment", "churn", "-param", "n=12", "-param", "tokens=6",
		"-param", "leave=0,0.05", "-param", "heuristics=local", "-seed", "5")
	if classic != spec {
		t.Errorf("scenario and spec modes diverge:\n--- scenario ---\n%s--- spec ---\n%s", classic, spec)
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

package main

import (
	"bytes"
	"encoding/csv"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ocd"
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

// experimentArgs spells one -experiment invocation with its -param
// overrides.
func experimentArgs(name string, params ...string) []string {
	args := []string{"-experiment", name}
	for _, p := range params {
		args = append(args, "-param", p)
	}
	return args
}

// churnArgs is the churn sweep the journal tests resume.
var churnArgs = append(experimentArgs("churn", "n=12", "tokens=6", "leave=0,0.05,0.1",
	"heuristics=local,bandwidth"), "-seed", "5")

func TestRunSingleHeuristic(t *testing.T) {
	out := runOK(t, "-n", "15", "-tokens", "8", "-heuristic", "local", "-seed", "3")
	if !strings.Contains(out, "local") || !strings.Contains(out, "completed=true") {
		t.Errorf("output:\n%s", out)
	}
}

func TestRunAllHeuristics(t *testing.T) {
	out := runOK(t, "-n", "12", "-tokens", "6", "-heuristic", "all")
	for _, name := range []string{"roundrobin", "random", "local", "bandwidth", "global"} {
		if !strings.Contains(out, name) {
			t.Errorf("missing %s in output:\n%s", name, out)
		}
	}
}

func TestRunExtensionStrategies(t *testing.T) {
	for _, h := range []string{"tree", "forest-2", "protocol-local", "local-delayed-1"} {
		out := runOK(t, "-n", "12", "-tokens", "6", "-heuristic", h, "-patience", "10")
		if !strings.Contains(out, "completed=true") {
			t.Errorf("%s did not complete:\n%s", h, out)
		}
	}
}

// TestRunCutOffAtStepLimit requires a single run that stops at its step
// limit to print its row with completed=false and exit cleanly: its
// schedule is incomplete, not invalid.
func TestRunCutOffAtStepLimit(t *testing.T) {
	for _, c := range []struct {
		args []string
		rows int
	}{
		{[]string{"-heuristic", "local", "-n", "12", "-tokens", "4", "-seed", "3", "-max-steps", "1"}, 1},
		{[]string{"-heuristic", "all", "-n", "12", "-tokens", "4", "-seed", "3", "-max-steps", "1"}, 5},
		{[]string{"-heuristic", "local-delayed-6", "-n", "4", "-tokens", "1", "-seed", "3", "-patience", "7"}, 1},
	} {
		if out := runOK(t, c.args...); strings.Count(out, "completed=false") != c.rows {
			t.Errorf("args %v: want %d completed=false rows, got:\n%s", c.args, c.rows, out)
		}
	}
}

// TestRunRowReportsWhatRan: the row names local-delayed-K by its delay,
// and its pruned column reads "-" for a run that was never pruned — a
// lossy run, or one cut off at its step limit — rather than a bandwidth
// of zero.
func TestRunRowReportsWhatRan(t *testing.T) {
	small := []string{"-n", "12", "-tokens", "4", "-seed", "3"}
	for _, c := range []struct {
		args []string
		row  string
	}{
		{[]string{"-heuristic", "local-delayed-2", "-patience", "10"}, "local-delayed-2 moves=7 "},
		{[]string{"-heuristic", "local-delayed-3", "-patience", "10"}, "local-delayed-3 moves=9 "},
		{[]string{"-heuristic", "local"}, "pruned=44 "},
		{[]string{"-heuristic", "local", "-loss", "0.2"}, "pruned=- "},
		{[]string{"-heuristic", "local", "-max-steps", "1"}, "pruned=- "},
	} {
		args := append(small[:len(small):len(small)], c.args...)
		if out := runOK(t, args...); !strings.Contains(out, c.row) {
			t.Errorf("args %v: want a row containing %q, got:\n%s", args, c.row, out)
		}
	}
}

func TestRunWorkloadsAndTopologies(t *testing.T) {
	for _, args := range [][]string{
		{"-topology", "transit-stub", "-n", "20", "-tokens", "6"},
		{"-workload", "density", "-n", "15", "-tokens", "6", "-density", "0.4"},
		{"-workload", "multifile", "-n", "15", "-tokens", "8", "-files", "4"},
		{"-workload", "multisender", "-n", "15", "-tokens", "8", "-files", "4"},
		{"-n", "12", "-tokens", "6", "-oracle"},
		{"-n", "12", "-tokens", "6", "-loss", "0.2"},
		{"-n", "12", "-tokens", "6", "-timeline"},
	} {
		if out := runOK(t, args...); !strings.Contains(out, "bounds:") {
			t.Errorf("args %v: output malformed:\n%s", args, out)
		}
	}
}

func TestRunDumpAndLoadInstance(t *testing.T) {
	dir := t.TempDir()
	instPath := filepath.Join(dir, "inst.json")
	schedPath := filepath.Join(dir, "sched.json")
	runOK(t, "-n", "12", "-tokens", "5", "-heuristic", "local",
		"-dump-instance", instPath, "-dump-schedule", schedPath)
	for _, p := range []string{instPath, schedPath} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("dump %s missing: %v", p, err)
		}
	}
	// Reload the dumped instance and run on it. The header names the file,
	// not the -workload default the run never read.
	out := runOK(t, "-instance", instPath, "-heuristic", "global")
	if !strings.Contains(out, "completed=true") {
		t.Errorf("loaded instance run failed:\n%s", out)
	}
	if header, _, _ := strings.Cut(out, "\n"); !strings.HasSuffix(header, " instance="+instPath) {
		t.Errorf("header does not name the loaded instance: %q", header)
	}
}

// TestInstanceRejectsGeneratorFlags: a loaded instance fixes the topology
// and the workload, so each generator flag fails by name instead of being
// ignored.
func TestInstanceRejectsGeneratorFlags(t *testing.T) {
	instPath := filepath.Join(t.TempDir(), "inst.json")
	runOK(t, "-n", "12", "-tokens", "5", "-dump-instance", instPath)
	for _, flagArgs := range [][]string{
		{"-topology", "transit-stub"}, {"-n", "999"}, {"-tokens", "7"},
		{"-workload", "multifile"}, {"-density", "0.3"}, {"-files", "7"},
	} {
		var out bytes.Buffer
		args := append([]string{"-instance", instPath}, flagArgs...)
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), flagArgs[0]+" cannot be combined with -instance") {
			t.Errorf("run(%v): want an error naming %s, got %v", args, flagArgs[0], err)
		}
		if out.Len() > 0 {
			t.Errorf("run(%v) printed output before failing:\n%s", args, out.String())
		}
	}
}

func TestRunStepTrace(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	out := runOK(t, "-n", "15", "-tokens", "8", "-heuristic", "local",
		"-loss", "0.1", "-steptrace", tracePath)
	if !strings.Contains(out, "local") {
		t.Errorf("output:\n%s", out)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatalf("step trace missing: %v", err)
	}
	defer f.Close()
	recs, err := ocd.DecodeStepTraceJSONL(f)
	if err != nil {
		t.Fatalf("step trace does not round-trip: %v", err)
	}
	if len(recs) == 0 {
		t.Error("step trace is empty")
	}
	// The trace must cover the whole run: total delivered moves match the
	// reported bandwidth column only loosely (losses), so just check the
	// counters are coherent.
	for _, rec := range recs {
		if rec.Moves < 0 || rec.ArcsUsed > rec.Moves+rec.Losses {
			t.Errorf("incoherent record: %+v", rec)
		}
	}
}

func TestRunStepTraceRejectsOracle(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-n", "10", "-tokens", "4", "-oracle", "-steptrace", "t.jsonl"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-oracle") {
		t.Errorf("run accepted -steptrace with -oracle: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-topology", "nope"},
		{"-workload", "nope"},
		{"-heuristic", "nope", "-n", "10", "-tokens", "4"},
		{"-instance", "/does/not/exist.json"},
		{"-workload", "multifile", "-n", "10", "-tokens", "7", "-files", "3"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestParamsFlag(t *testing.T) {
	var p paramFlag
	for _, kv := range []string{"n=12", "heuristics=local,bandwidth", "journal="} {
		if err := p.Set(kv); err != nil {
			t.Fatalf("Set(%q): %v", kv, err)
		}
	}
	if p["n"] != "12" || p["heuristics"] != "local,bandwidth" || p["journal"] != "" {
		t.Fatalf("bad params: %v", p)
	}
	if err := p.Set("n=13"); err == nil {
		t.Error("duplicate param accepted")
	}
	if err := p.Set("novalue"); err == nil {
		t.Error("missing '=' accepted")
	}
	if err := p.Set("=5"); err == nil {
		t.Error("empty name accepted")
	}
}

func TestSpecModeList(t *testing.T) {
	out := runOK(t, "-list")
	for _, want := range []string{"graph-size", "figure1", "-param", "seeds: derived"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in registry listing:\n%s", want, out)
		}
	}
}

// TestSpecModeListNamesEveryExperiment: -list opens one entry per
// registered experiment and spells each parameter as a -param flag.
func TestSpecModeListNamesEveryExperiment(t *testing.T) {
	out := "\n" + runOK(t, "-list")
	for _, name := range ocd.ExperimentNames() {
		if !strings.Contains(out, "\n"+name+" — ") {
			t.Errorf("no entry for %s in registry listing:\n%s", name, out)
		}
	}
	for _, want := range []string{"seeds: derived", "-param seed=<int64>"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in registry listing:\n%s", want, out)
		}
	}
}

// TestSpecModeListGolden pins the whole -list output byte for byte: every
// schema line, kind and rendered default.
func TestSpecModeListGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "list.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := runOK(t, "-list"); got != string(want) {
		t.Errorf("-list diverged from testdata/list.golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestSpecModeExperiment(t *testing.T) {
	out := runOK(t, "-experiment", "theorem4", "-param", "decoys=1,4")
	if !strings.Contains(out, "Theorem 4") || !strings.Contains(out, "decoys") {
		t.Errorf("output:\n%s", out)
	}
}

// TestSpecModeExperimentMatchesRunExperiment: -experiment prints exactly
// the table the library call with the same parameters returns.
func TestSpecModeExperimentMatchesRunExperiment(t *testing.T) {
	tab, err := ocd.RunExperiment("theorem4", map[string]string{"decoys": "1,4"})
	if err != nil {
		t.Fatal(err)
	}
	if out := runOK(t, "-experiment", "theorem4", "-param", "decoys=1,4"); out != tab.ASCII() {
		t.Errorf("-experiment diverges from RunExperiment:\n--- cli ---\n%s--- library ---\n%s", out, tab.ASCII())
	}
}

func TestSpecModeSpecFile(t *testing.T) {
	specPath := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(specPath,
		[]byte(`[{"experiment":"figure1"},{"experiment":"theorem4","params":{"decoys":"1"}}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runOK(t, "-spec", specPath)
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "Theorem 4") {
		t.Errorf("spec file output:\n%s", out)
	}
}

// TestSpecModeSpecFileAndJSONL runs a two-invocation spec file: both
// tables, blank-line separated, and both heads in the -jsonl row log.
func TestSpecModeSpecFileAndJSONL(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	rowsPath := filepath.Join(dir, "rows.jsonl")
	if err := os.WriteFile(specPath, []byte(`[
		{"experiment": "figure1"},
		{"experiment": "theorem4", "params": {"decoys": "1"}}
	]`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runOK(t, "-spec", specPath, "-jsonl", rowsPath)
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "Theorem 4") || !strings.Contains(out, "\n\n==") {
		t.Errorf("spec file output malformed:\n%s", out)
	}
	rows, err := os.ReadFile(rowsPath)
	if err != nil {
		t.Fatal(err)
	}
	if heads := strings.Count(string(rows), `"title"`); heads != 2 {
		t.Errorf("row log has %d heads, want 2:\n%s", heads, rows)
	}
}

func TestSpecModeErrors(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-experiment", "nope"},
		{"-param", "n=12"},
		{"-experiment", "theorem4", "-param", "decoys=abc"},
		{"-experiment", "theorem4", "-spec", "x.json"},
		{"-spec", "/does/not/exist.json"},
		{"-list", "-experiment", "figure1"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestSpecModeErrorMessages: each invalid spec-mode invocation fails with
// an error that names its cause, and prints nothing.
func TestSpecModeErrorMessages(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-list", "-experiment", "figure1"}, "-list does not combine with -experiment"},
		{[]string{"-experiment", "figure1", "-spec", "x.json"}, "-experiment and -spec are mutually exclusive"},
		{[]string{"-param", "n=12"}, "-param requires -experiment"},
		{[]string{"-experiment", "nope"}, `unknown experiment "nope"`},
		{experimentArgs("chaos", "nope=1"), "chaos: unknown param"},
		{experimentArgs("chaos", "n=abc"), "param n:"},
		{[]string{"-spec", "/does/not/exist.json"}, "/does/not/exist.json"},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v): want an error containing %q, got %v", tc.args, tc.want, err)
		}
		if out.Len() > 0 {
			t.Errorf("run(%v) printed output before failing:\n%s", tc.args, out.String())
		}
	}
}

func TestSpecModeCSV(t *testing.T) {
	out := runOK(t, append(experimentArgs("theorem4", "decoys=1"), "-csv")...)
	if !strings.HasPrefix(out, "decoys,path,") {
		t.Errorf("not CSV:\n%s", out)
	}
}

func TestSpecModeExperimentCSV(t *testing.T) {
	out := runOK(t, append(experimentArgs("chaos", "n=12", "tokens=6", "intensities=0", "heuristics=local"),
		"-csv")...)
	if !strings.HasPrefix(out, "intensity,heuristic,") {
		t.Errorf("not CSV:\n%s", out)
	}
}

// TestCSVOutput: the chaos sweep's -csv output parses as CSV, one header
// and a record per table row, every record as wide as the header.
func TestCSVOutput(t *testing.T) {
	out := runOK(t, append(experimentArgs("chaos", "n=12", "tokens=6", "intensities=0,0.5", "heuristics=local"),
		"-csv")...)
	records, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("-csv output does not parse: %v\n%s", err, out)
	}
	// One row per intensity for the one heuristic.
	if len(records) != 3 || records[0][0] != "intensity" {
		t.Errorf("want a header and 2 records, got %d lines:\n%s", len(records), out)
	}
}

func TestChaosExperiment(t *testing.T) {
	out := runOK(t, experimentArgs("chaos", "n=12", "tokens=6", "intensities=0,0.5",
		"heuristics=local,retry-local")...)
	for _, want := range []string{"intensity", "retry-local", "completed", "inflation"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestCrashedSourceExperiment(t *testing.T) {
	out := runOK(t, experimentArgs("crashed-source", "n=12", "tokens=36", "crash-at=1")...)
	if !strings.Contains(out, "graceful") {
		t.Errorf("no graceful termination in output:\n%s", out)
	}
	if !strings.Contains(out, "unsatisfiable") {
		t.Errorf("no unsatisfiable-receiver column in output:\n%s", out)
	}
}

func TestPartitionExperiment(t *testing.T) {
	out := runOK(t, append(experimentArgs("partition", "n=12", "tokens=6", "k=2", "heal=0,-1",
		"heuristics=local"), "-monitor")...)
	for _, want := range []string{"liveness", "never", "invariant monitor"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestChurnExperiment(t *testing.T) {
	out := runOK(t, append(experimentArgs("churn", "n=12", "tokens=6", "leave=0,0.05", "rejoin=0.5",
		"heuristics=local"), "-monitor")...)
	for _, want := range []string{"leave", "departures", "rejoin"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestDeterministicOutput(t *testing.T) {
	args := append(experimentArgs("chaos", "n=12", "tokens=8", "intensities=0.6",
		"heuristics=local,random"), "-seed", "9")
	if runOK(t, args...) != runOK(t, args...) {
		t.Error("identical seeds produced different sweeps")
	}
}

// TestSpecModeHarnessFlags drives the partition experiment with the
// -monitor flag and expects the invariant-monitor note, proving the
// harness flags merge into spec parameters.
func TestSpecModeHarnessFlags(t *testing.T) {
	out := runOK(t, append(experimentArgs("partition", "n=12", "tokens=6", "heal=0", "heuristics=local"),
		"-monitor")...)
	if !strings.Contains(out, "invariant monitor") {
		t.Errorf("-monitor did not reach the partition spec:\n%s", out)
	}
}

// TestUndeclaredHarnessFlagFails: a harness flag that no invocation
// declares fails by name before anything runs or any file is created. In
// a spec file it still merges into each invocation that declares it.
func TestUndeclaredHarnessFlagFails(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "j.jsonl")
	seedless := filepath.Join(dir, "seedless.json")
	if err := os.WriteFile(seedless, []byte(`[
  {"experiment": "figure1"},
  {"experiment": "theorem4", "params": {"decoys": "1"}}
]`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{append(experimentArgs("chaos", "n=12", "tokens=6", "intensities=0", "heuristics=local"), "-monitor"), "-monitor"},
		{[]string{"-experiment", "figure1", "-journal", journal}, "-journal"},
		{append(experimentArgs("chaos", "n=12", "tokens=6", "intensities=0", "heuristics=local"), "-parallelism", "1"), "-parallelism"},
		{[]string{"-spec", seedless, "-monitor"}, "-monitor"},
		{[]string{"-list", "-journal", journal}, "-journal"},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.flag+" is not read by") {
			t.Errorf("run(%v): want an error naming %s, got %v", tc.args, tc.flag, err)
		}
		if out.Len() > 0 {
			t.Errorf("run(%v) printed output before failing:\n%s", tc.args, out.String())
		}
	}
	if _, err := os.Stat(journal); err == nil {
		t.Error("a rejected run created its journal")
	}

	mixed := filepath.Join(dir, "mixed.json")
	if err := os.WriteFile(mixed, []byte(`[
  {"experiment": "figure1"},
  {"experiment": "partition", "params": {"n": "12", "tokens": "6", "heal": "0", "heuristics": "local"}}
]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if out := runOK(t, "-spec", mixed, "-monitor"); !strings.Contains(out, "invariant monitor") {
		t.Errorf("-monitor did not reach the partition invocation:\n%s", out)
	}
}

// TestHarnessSeedMerge checks that an explicitly set -seed flag reaches the
// spec exactly like -param seed would, and that leaving it at its default
// lets the spec default win.
func TestHarnessSeedMerge(t *testing.T) {
	base := experimentArgs("chaos", "n=12", "tokens=6", "intensities=0.6", "heuristics=local")
	viaFlag := runOK(t, append([]string{"-seed", "9"}, base...)...)
	viaParam := runOK(t, append(base, "-param", "seed=9")...)
	if viaFlag != viaParam {
		t.Errorf("-seed 9 and -param seed=9 diverge:\n--- flag ---\n%s--- param ---\n%s", viaFlag, viaParam)
	}
	if deflt := runOK(t, base...); deflt == viaFlag {
		t.Error("seed override had no effect")
	}
	// An explicit -param wins over the flag.
	both := runOK(t, append(append([]string{"-seed", "3"}, base...), "-param", "seed=9")...)
	if both != viaParam {
		t.Error("-param seed did not take precedence over -seed")
	}
}

// TestSeedDroppedWhenUndeclared: figure1 declares no seed, so an explicit
// -seed is dropped rather than rejected as an unknown parameter.
func TestSeedDroppedWhenUndeclared(t *testing.T) {
	out := runOK(t, "-seed", "7", "-experiment", "figure1")
	if !strings.Contains(out, "Figure 1") {
		t.Errorf("output:\n%s", out)
	}
}

func TestJournalResumeMatchesCleanRun(t *testing.T) {
	clean := runOK(t, churnArgs...)

	// First pass journals every cell; the "resumed" pass must replay out of
	// the journal to byte-identical output.
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")
	withJournal := append(churnArgs[:len(churnArgs):len(churnArgs)], "-journal", journal)
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
	recorded, err := os.ReadFile(filepath.Join("testdata", "churn-journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(t.TempDir(), "churn.jsonl")
	if err := os.WriteFile(journal, recorded, 0o644); err != nil {
		t.Fatal(err)
	}
	clean := runOK(t, churnArgs...)
	resumed := runOK(t, append(churnArgs[:len(churnArgs):len(churnArgs)], "-journal", journal)...)
	if resumed != clean {
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
	small := append(experimentArgs("partition", "n=12", "tokens=6", "heal=0,4", "heuristics=local"),
		"-journal", journal)
	first := runOK(t, small...)
	large := append(experimentArgs("partition", "n=30", "tokens=24", "heal=0,4", "heuristics=local"),
		"-journal", journal)
	var out bytes.Buffer
	if err := run(large, &out); err == nil || !strings.Contains(err.Error(), "recorded for run") {
		t.Fatalf("n=30 run resumed the n=12 journal: err=%v\n%s", err, out.String())
	}
	if resumed := runOK(t, small...); resumed != first {
		t.Errorf("recording invocation no longer resumes byte-identically:\n%s\nvs\n%s", resumed, first)
	}
}

// TestSpecFileJournalRejectsSecondInvocation: -journal merges one path
// into every invocation of a spec file that declares it, so the second
// partition invocation must fail instead of replaying the first one's
// rows.
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

// TestSpecModeWritesTelemetryAndRows: the stream's runner.cells counter
// equals the cells the run executed, and the row log holds the table's
// one head.
func TestSpecModeWritesTelemetryAndRows(t *testing.T) {
	cases := []struct {
		args  []string
		cells int64
	}{
		// One fault-free baseline per heuristic plus 2 intensities × 1 heuristic.
		{experimentArgs("chaos", "n=12", "tokens=6", "intensities=0,0.5", "heuristics=local"), 3},
		// One cell per paper heuristic.
		{experimentArgs("crashed-source", "n=12", "tokens=36", "crash-at=1"), 5},
	}
	for _, tc := range cases {
		dir := t.TempDir()
		tel, rows := filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "rows.jsonl")
		runOK(t, append(tc.args, "-telemetry", tel, "-jsonl", rows)...)

		var cells int64 = -1
		for _, m := range decodeTelemetry(t, tel) {
			if m.Name == "runner.cells" {
				cells = m.Value
			}
		}
		if cells != tc.cells {
			t.Errorf("run(%v): runner.cells = %d, want %d", tc.args, cells, tc.cells)
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

// TestTelemetryLifecycle: a -telemetry stream written at exit decodes and
// carries the kernel and runner counters the sweep produced.
func TestTelemetryLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tel.jsonl")
	runOK(t, append(experimentArgs("graph-size", "sizes=12", "tokens=8", "graph-seeds=1", "repeats=1", "seed=5"),
		"-telemetry", path)...)
	var kernel, runner bool
	for _, m := range decodeTelemetry(t, path) {
		kernel = kernel || strings.HasPrefix(m.Name, "kernel.")
		runner = runner || strings.HasPrefix(m.Name, "runner.")
	}
	if !kernel || !runner {
		t.Error("stream lacks kernel.*/runner.* metrics")
	}
}

// TestSingleRunRecordsKernelCounters: a single run records its kernel
// totals under its engine's name whatever else it attaches — a -steptrace
// run records the same totals as the run without it — as kernel.sim.* for
// a lossless run and kernel.fault.* for a lossy one, which goes through
// the fault engine; -oracle runs are counted too.
func TestSingleRunRecordsKernelCounters(t *testing.T) {
	dir := t.TempDir()
	kernel := func(prefix string, args ...string) []telemetry.Metric {
		t.Helper()
		path := filepath.Join(dir, "tel.jsonl")
		runOK(t, append(args, "-telemetry", path)...)
		var out []telemetry.Metric
		for _, m := range decodeTelemetry(t, path) {
			if strings.HasPrefix(m.Name, prefix) {
				out = append(out, m)
			} else if strings.HasPrefix(m.Name, "kernel.") {
				t.Errorf("args %v: %s recorded beside the %s* counters", args, m.Name, prefix)
			}
		}
		return out
	}
	base := []string{"-heuristic", "all", "-n", "30", "-tokens", "20", "-seed", "3"}
	for _, tc := range []struct {
		prefix string
		extra  []string
	}{
		{"kernel.sim.", nil},
		{"kernel.fault.", []string{"-loss", "0.2"}},
	} {
		args := append(base[:len(base):len(base)], tc.extra...)
		plain := kernel(tc.prefix, args...)
		if len(plain) != 7 {
			t.Fatalf("args %v: want the 7 %s* counters, got %+v", args, tc.prefix, plain)
		}
		traced := kernel(tc.prefix, append(args, "-steptrace", filepath.Join(dir, "trace.jsonl"))...)
		if !reflect.DeepEqual(traced, plain) {
			t.Errorf("args %v: -steptrace changed the kernel counters:\n got %+v\nwant %+v", args, traced, plain)
		}
	}
	for _, m := range kernel("kernel.sim.", "-heuristic", "local", "-oracle", "-n", "12", "-tokens", "6") {
		if m.Name == "kernel.sim.steps" && m.Value > 0 {
			return
		}
	}
	t.Error("an -oracle run recorded no kernel.sim.steps")
}

func decodeTelemetry(t *testing.T, path string) []telemetry.Metric {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ms, err := telemetry.DecodeJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// TestProfilesWritten checks the pprof flags produce non-empty profile
// files.
func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	runOK(t, "-cpuprofile", cpu, "-memprofile", mem, "-experiment", "figure1")
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile missing: %v", err)
		} else if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// failWriter fails every write, modelling a closed pipe.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

func TestWriteErrorReported(t *testing.T) {
	args := experimentArgs("chaos", "n=12", "tokens=6", "intensities=0", "heuristics=local")
	err := run(args, failWriter{})
	if err == nil || !strings.Contains(err.Error(), "writing table") || !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("run(%v): want write error reported, got %v", args, err)
	}
	// A telemetry stream that cannot be written is reported alongside the
	// run's own error, not instead of it.
	args = []string{"-experiment", "figure1", "-telemetry", filepath.Join(t.TempDir(), "missing", "t.jsonl")}
	err = run(args, failWriter{})
	if err == nil || !strings.Contains(err.Error(), "writing table") || !strings.Contains(err.Error(), "-telemetry: ") {
		t.Errorf("run(%v): want both the table and the telemetry error, got %v", args, err)
	}
}

func TestWriteTableReportsWriteErrors(t *testing.T) {
	err := run([]string{"-experiment", "figure1"}, failWriter{})
	if err == nil || !strings.Contains(err.Error(), "writing table") || !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("want write error reported, got %v", err)
	}
}

func TestFlagValidation(t *testing.T) {
	dir := t.TempDir()
	bad := [][]string{
		{"-n", "0"},
		{"-n", "-5"},
		{"-tokens", "0"},
		{"-loss", "-0.1"},
		{"-loss", "1.5"},
		{"-loss", "NaN"},
		{"-density", "2"},
		{"-density", "NaN"},
		{"-patience", "-1"},
		{"-max-steps", "-1"},
		{"-files", "0"},
		// A single run reads none of the experiment runner's flags.
		{"-jsonl", filepath.Join(dir, "rows.jsonl")},
		{"-journal", filepath.Join(dir, "j.jsonl")},
		{"-monitor"},
		{"-parallelism", "2"},
		{"-csv"},
	}
	for _, args := range bad {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil {
			t.Errorf("run(%v) accepted out-of-range flags", args)
			continue
		}
		if !strings.Contains(err.Error(), "must be") || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("run(%v): unclear error %q", args, err)
		}
	}
	for _, name := range []string{"rows.jsonl", "j.jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			t.Errorf("a rejected single run wrote %s", name)
		}
	}
	// The §4.2 oracle runs lossless to completion from the seed alone, so
	// it rejects, by name, every flag that shapes a kernel run.
	for _, flagArgs := range [][]string{{"-loss", "0.3"}, {"-loss", "0"}, {"-max-steps", "3"}, {"-patience", "5"}} {
		var out bytes.Buffer
		args := append([]string{"-n", "20", "-tokens", "10", "-oracle"}, flagArgs...)
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), flagArgs[0]+" cannot be combined with -oracle") {
			t.Errorf("run(%v): want an error naming %s, got %v", args, flagArgs[0], err)
		}
	}
	// The validated boundary values stay accepted, and so do the harness
	// flags a single run does read.
	runOK(t, "-n", "10", "-tokens", "4", "-loss", "0", "-patience", "0")
	runOK(t, "-n", "10", "-tokens", "4", "-loss", "1", "-patience", "5", "-max-steps", "30")
	runOK(t, "-n", "10", "-tokens", "4", "-seed", "3", "-telemetry", filepath.Join(dir, "tel.jsonl"),
		"-cpuprofile", filepath.Join(dir, "cpu.pprof"), "-memprofile", filepath.Join(dir, "mem.pprof"))

	// -experiment, -spec and -list read none of the single run's flags.
	paperSmall := filepath.Join("..", "..", "specs", "paper-small.json")
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-experiment", "figure1", "-n", "50"}, "-n"},
		{[]string{"-experiment", "figure1", "-heuristic", "bogus"}, "-heuristic"},
		{[]string{"-spec", paperSmall, "-heuristic", "nope"}, "-heuristic"},
		{[]string{"-list", "-topology", "transit-stub"}, "-topology"},
		{[]string{"-experiment", "theorem4", "-param", "decoys=1", "-timeline"}, "-timeline"},
		{[]string{"-experiment", "figure1", "-dump-schedule", filepath.Join(dir, "s.json")}, "-dump-schedule"},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil {
			t.Errorf("run(%v) accepted a flag spec mode ignores", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.flag+" is not read by -experiment") {
			t.Errorf("run(%v): error %q does not name %s", tc.args, err, tc.flag)
		}
		if out.Len() > 0 {
			t.Errorf("run(%v) printed output before failing:\n%s", tc.args, out.String())
		}
	}
	// graph-size declares no monitor parameter, so -monitor fails there.
	if err := run([]string{"-experiment", "graph-size", "-monitor"}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-monitor is not read by") {
		t.Errorf("graph-size accepted -monitor: %v", err)
	}
	// Spec mode keeps every flag it does read: partition declares all four
	// harness parameters.
	out := runOK(t, append(experimentArgs("partition", "n=12", "tokens=6", "heal=0", "heuristics=local"),
		"-seed", "3", "-parallelism", "1", "-monitor",
		"-journal", filepath.Join(dir, "journal.jsonl"), "-jsonl", filepath.Join(dir, "spec-rows.jsonl"),
		"-telemetry", filepath.Join(dir, "spec-tel.jsonl"),
		"-cpuprofile", filepath.Join(dir, "spec-cpu.pprof"), "-memprofile", filepath.Join(dir, "spec-mem.pprof"))...)
	if !strings.Contains(out, "== ") || !strings.Contains(out, "invariant monitor") {
		t.Errorf("spec run with harness flags printed no monitored table:\n%s", out)
	}
}

// TestExperimentParamValidation: every experiment parameter is checked by
// its spec, so each error names that parameter, and spec mode rejects a
// single-run flag by name instead of reading it as a parameter.
func TestExperimentParamValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{experimentArgs("chaos", "n=0"), "param n:"},
		{experimentArgs("chaos", "tokens=-3"), "param tokens:"},
		{experimentArgs("crashed-source", "crash-at=-1"), "param crash-at:"},
		{experimentArgs("chaos", "intensities=1.5"), "param intensities:"},
		{experimentArgs("chaos", "intensities=0,NaN"), "param intensities:"},
		{experimentArgs("chaos", "intensities=abc"), "param intensities:"},
		{experimentArgs("chaos", "intensities="), "param intensities:"},
		{experimentArgs("chaos", "heuristics="), "param heuristics:"},
		{experimentArgs("chaos", "heuristics=nope"), "param heuristics:"},
		{experimentArgs("partition", "k=1"), "param k:"},
		{experimentArgs("partition", "heal="), "param heal:"},
		{experimentArgs("partition", "heal=abc"), "param heal:"},
		{experimentArgs("churn", "leave="), "param leave:"},
		{experimentArgs("churn", "leave=1.5"), "param leave:"},
		{experimentArgs("churn", "rejoin=2"), "param rejoin:"},
		{experimentArgs("churn", "leave=NaN"), "param leave:"},
		{experimentArgs("churn", "rejoin=NaN"), "param rejoin:"},
		{append(experimentArgs("chaos", "n=12"), "-tokens", "6"), "-tokens is not read by -experiment"},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v): want an error containing %q, got %v", tc.args, tc.want, err)
		}
	}
}

// TestValidateRejectsNegativeParallelism pins the bugfix: a negative
// -parallelism used to slip through and silently mean GOMAXPROCS.
func TestValidateRejectsNegativeParallelism(t *testing.T) {
	partition := experimentArgs("partition", "n=12", "tokens=6", "heal=0", "heuristics=local")
	var out bytes.Buffer
	err := run(append(partition, "-parallelism", "-2"), &out)
	if err == nil || !strings.Contains(err.Error(), "-parallelism must be non-negative") {
		t.Fatalf("-parallelism -2: want a non-negative error, got %v", err)
	}
	if out.Len() > 0 {
		t.Errorf("-parallelism -2 printed output before failing:\n%s", out.String())
	}
	for _, workers := range []string{"0", "1", "8"} {
		if out := runOK(t, append(partition, "-parallelism", workers)...); !strings.Contains(out, "== ") {
			t.Errorf("-parallelism %s printed no table:\n%s", workers, out)
		}
	}
}

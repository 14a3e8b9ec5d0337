package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ocd"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return out.String()
}

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
	// Reload the dumped instance and run on it.
	out := runOK(t, "-instance", instPath, "-heuristic", "global")
	if !strings.Contains(out, "completed=true") {
		t.Errorf("loaded instance run failed:\n%s", out)
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

func TestSpecModeList(t *testing.T) {
	out := runOK(t, "-list")
	for _, want := range []string{"graph-size", "figure1", "-param", "seeds: derived"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in registry listing:\n%s", want, out)
		}
	}
}

func TestSpecModeExperiment(t *testing.T) {
	out := runOK(t, "-experiment", "theorem4", "-param", "decoys=1,4")
	if !strings.Contains(out, "Theorem 4") || !strings.Contains(out, "decoys") {
		t.Errorf("output:\n%s", out)
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
	// Spec mode keeps every flag it does read.
	out := runOK(t, "-experiment", "graph-size", "-param", "sizes=12", "-param", "tokens=4",
		"-param", "graph-seeds=1", "-param", "repeats=1", "-seed", "3", "-parallelism", "1", "-monitor",
		"-journal", filepath.Join(dir, "journal.jsonl"), "-jsonl", filepath.Join(dir, "spec-rows.jsonl"),
		"-telemetry", filepath.Join(dir, "spec-tel.jsonl"),
		"-cpuprofile", filepath.Join(dir, "spec-cpu.pprof"), "-memprofile", filepath.Join(dir, "spec-mem.pprof"))
	if !strings.Contains(out, "== ") {
		t.Errorf("spec run with harness flags printed no table:\n%s", out)
	}
}

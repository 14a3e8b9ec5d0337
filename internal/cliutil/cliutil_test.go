package cliutil

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ocd/internal/telemetry"
)

func TestParamsFlag(t *testing.T) {
	var p Params
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

// newSpecFS builds a flag set the way both mains do.
func newSpecFS() (*flag.FlagSet, *Harness, *SpecMode) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	h := AddHarness(fs)
	m := AddSpecMode(fs)
	return fs, h, m
}

func execute(t *testing.T, w io.Writer, csv bool, args ...string) error {
	t.Helper()
	fs, h, m := newSpecFS()
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse(%v): %v", args, err)
	}
	if !m.Active() {
		t.Fatalf("spec mode not active for %v", args)
	}
	return m.Execute(fs, w, csv, h)
}

func TestSpecModeList(t *testing.T) {
	var out bytes.Buffer
	if err := execute(t, &out, false, "-list"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"figure1", "chaos — ", "seeds: derived", "-param seed=<int64>"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in listing:\n%s", want, out.String())
		}
	}
}

func TestSpecModeExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := execute(t, &out, false, "-experiment", "theorem4", "-param", "decoys=1,4"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Theorem 4") {
		t.Errorf("output:\n%s", out.String())
	}
}

// TestHarnessSeedMerge checks that an explicitly set -seed flag reaches the
// spec exactly like -param seed would, and that leaving it at its default
// lets the spec default win.
func TestHarnessSeedMerge(t *testing.T) {
	run := func(args ...string) string {
		var out bytes.Buffer
		if err := execute(t, &out, false, args...); err != nil {
			t.Fatalf("execute(%v): %v", args, err)
		}
		return out.String()
	}
	base := []string{"-experiment", "chaos", "-param", "n=12", "-param", "tokens=6",
		"-param", "intensities=0.6", "-param", "heuristics=local"}
	viaFlag := run(append([]string{"-seed", "9"}, base...)...)
	viaParam := run(append(base, "-param", "seed=9")...)
	if viaFlag != viaParam {
		t.Errorf("-seed 9 and -param seed=9 diverge:\n--- flag ---\n%s--- param ---\n%s", viaFlag, viaParam)
	}
	if deflt := run(base...); deflt == viaFlag {
		t.Error("seed override had no effect")
	}
	// An explicit -param wins over the flag.
	both := run(append(append([]string{"-seed", "3"}, base...), "-param", "seed=9")...)
	if both != viaParam {
		t.Error("-param seed did not take precedence over -seed")
	}
}

// TestHarnessIgnoredWhenUndeclared: figure1 declares no seed, so an explicit
// -seed must be dropped rather than rejected as an unknown parameter.
func TestHarnessIgnoredWhenUndeclared(t *testing.T) {
	var out bytes.Buffer
	if err := execute(t, &out, false, "-seed", "7", "-experiment", "figure1"); err != nil {
		t.Fatalf("explicit -seed broke a seedless spec: %v", err)
	}
	if !strings.Contains(out.String(), "Figure 1") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestSpecModeCSV(t *testing.T) {
	var out bytes.Buffer
	if err := execute(t, &out, true, "-experiment", "theorem4", "-param", "decoys=1"); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "decoys,path,") {
		t.Errorf("not CSV:\n%s", out.String())
	}
}

func TestSpecModeSpecFileAndJSONL(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	jsonlPath := filepath.Join(dir, "rows.jsonl")
	spec := `[
		{"experiment": "figure1"},
		{"experiment": "theorem4", "params": {"decoys": "1"}}
	]`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := execute(t, &out, false, "-spec", specPath, "-jsonl", jsonlPath); err != nil {
		t.Fatal(err)
	}
	// Both tables, blank-line separated.
	if got := out.String(); !strings.Contains(got, "Figure 1") || !strings.Contains(got, "Theorem 4") ||
		!strings.Contains(got, "\n\n==") {
		t.Errorf("spec file output malformed:\n%s", got)
	}
	rows, err := os.ReadFile(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	// The JSONL stream carries both experiments' head lines.
	if got := string(rows); strings.Count(got, `"title"`) != 2 {
		t.Errorf("JSONL stream malformed:\n%s", got)
	}
}

func TestSpecModeErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-list", "-experiment", "figure1"},
		{"-experiment", "figure1", "-spec", "x.json"},
		{"-param", "n=12"},
		{"-experiment", "nope"},
		{"-experiment", "chaos", "-param", "nope=1"},
		{"-experiment", "chaos", "-param", "n=abc"},
		{"-spec", "/does/not/exist.json"},
	} {
		if err := execute(t, io.Discard, false, args...); err == nil {
			t.Errorf("Execute(%v) accepted invalid invocation", args)
		}
	}
}

// TestValidateRejectsNegativeParallelism pins the bugfix: a negative
// -parallelism used to slip through and silently mean GOMAXPROCS.
func TestValidateRejectsNegativeParallelism(t *testing.T) {
	fs, h, _ := newSpecFS()
	if err := fs.Parse([]string{"-parallelism", "-2"}); err != nil {
		t.Fatal(err)
	}
	err := h.Validate()
	if err == nil || !strings.Contains(err.Error(), "-parallelism must be non-negative") {
		t.Fatalf("Validate() = %v, want non-negative error", err)
	}
	for _, p := range []string{"0", "1", "8"} {
		fs, h, _ := newSpecFS()
		if err := fs.Parse([]string{"-parallelism", p}); err != nil {
			t.Fatal(err)
		}
		if err := h.Validate(); err != nil {
			t.Errorf("Validate() rejected -parallelism %s: %v", p, err)
		}
	}
}

// TestHarnessTelemetryLifecycle runs the full Validate → Start → Execute →
// Finish cycle with -telemetry and checks the written stream decodes and
// carries the kernel and runner counters the sweep produced.
func TestHarnessTelemetryLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tel.jsonl")
	fs, h, m := newSpecFS()
	args := []string{"-telemetry", path, "-experiment", "graph-size",
		"-param", "sizes=12", "-param", "tokens=8", "-param", "graph-seeds=1",
		"-param", "repeats=1", "-param", "seed=5"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	if h.Registry() == nil {
		t.Fatal("-telemetry set but Registry() is nil")
	}
	if err := m.Execute(fs, io.Discard, false, h); err != nil {
		t.Fatal(err)
	}
	if err := h.Finish(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ms, err := telemetry.DecodeJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	var kernel, runner bool
	for _, mtr := range ms {
		kernel = kernel || strings.HasPrefix(mtr.Name, "kernel.")
		runner = runner || strings.HasPrefix(mtr.Name, "runner.")
	}
	if !kernel || !runner {
		t.Errorf("stream lacks kernel.*/runner.* metrics: %+v", ms)
	}
}

// TestHarnessProfilesWritten checks the pprof flags produce non-empty
// profile files through the same lifecycle.
func TestHarnessProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	fs, h, m := newSpecFS()
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem, "-experiment", "figure1"}); err != nil {
		t.Fatal(err)
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.Execute(fs, io.Discard, false, h); err != nil {
		t.Fatal(err)
	}
	if err := h.Finish(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile missing: %v", err)
		} else if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestWriteTableReportsWriteErrors(t *testing.T) {
	fs, h, m := newSpecFS()
	if err := fs.Parse([]string{"-experiment", "figure1"}); err != nil {
		t.Fatal(err)
	}
	err := m.Execute(fs, failWriter{}, false, h)
	if err == nil || !strings.Contains(err.Error(), "writing table") {
		t.Fatalf("want write error reported, got %v", err)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

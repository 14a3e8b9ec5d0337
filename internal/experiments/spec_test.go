package experiments

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestSpecDefaultsResolve requires every registered spec to resolve with no
// overrides: defaults must coerce and pass their own checks.
func TestSpecDefaultsResolve(t *testing.T) {
	for _, s := range Specs() {
		if _, err := s.ResolveStrings(nil); err != nil {
			t.Errorf("%s: defaults do not resolve: %v", s.Name, err)
		}
	}
}

// TestSpecSmokeResolves requires every spec's smoke overrides (the tiny
// configuration CI runs under -race) to resolve.
func TestSpecSmokeResolves(t *testing.T) {
	for _, s := range Specs() {
		if _, err := s.ResolveStrings(s.Smoke); err != nil {
			t.Errorf("%s: smoke overrides do not resolve: %v", s.Name, err)
		}
	}
}

// TestSpecSmokeRuns executes every registered experiment at its smoke
// configuration end to end and requires a titled table with rows.
func TestSpecSmokeRuns(t *testing.T) {
	for _, s := range Specs() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			tab, err := RunStrings(s.Name, s.Smoke)
			if err != nil {
				t.Fatalf("smoke run: %v", err)
			}
			if tab.Title == "" || len(tab.Rows) == 0 {
				t.Fatalf("smoke run produced an empty table: title=%q rows=%d", tab.Title, len(tab.Rows))
			}
		})
	}
}

func TestSpecRejectsUnknownAndMalformedParams(t *testing.T) {
	for _, s := range Specs() {
		if _, err := s.ResolveStrings(map[string]string{"definitely-not-a-param": "1"}); err == nil {
			t.Errorf("%s: unknown parameter accepted", s.Name)
		}
	}
	// A numeric parameter must reject garbage with the parameter's name in
	// the message.
	spec, ok := Lookup("chaos")
	if !ok {
		t.Fatal("chaos spec missing")
	}
	if _, err := spec.ResolveStrings(map[string]string{"n": "abc"}); err == nil || !strings.Contains(err.Error(), "n") {
		t.Errorf("chaos: n=abc accepted or unclear: %v", err)
	}
}

// TestSpecChecks exercises the per-parameter validators through the string
// surface the CLIs use.
func TestSpecChecks(t *testing.T) {
	bad := []struct {
		spec  string
		param string
		value string
	}{
		{"chaos", "n", "0"},
		{"chaos", "intensities", "1.5"},
		{"chaos", "intensities", ""},
		{"chaos", "heuristics", "nope"},
		{"chaos", "heuristics", ""},
		{"crashed-source", "crash-at", "-1"},
		{"partition", "k", "1"},
		{"partition", "heal", ""},
		{"churn", "leave", "2"},
		{"churn", "rejoin", "-0.5"},
		{"graph-size", "topology", "nope"},
		{"graph-size", "sizes", ""},
		{"graph-size", "heuristics", "nope"},
		{"receiver-density", "thresholds", "1.5"},
		{"loss-coding", "redundancies", "0"},
		{"theorem4", "decoys", "-1"},
		{"figure7", "edge-p", "2"},
		{"tradeoff-curve", "instance", "/does/not/exist.json"},
	}
	for _, tc := range bad {
		spec, ok := Lookup(tc.spec)
		if !ok {
			t.Fatalf("spec %s missing", tc.spec)
		}
		if _, err := spec.ResolveStrings(map[string]string{tc.param: tc.value}); err == nil {
			t.Errorf("%s: %s=%q accepted", tc.spec, tc.param, tc.value)
		}
	}
	// The sweep heuristic domain accepts the empty list (meaning all
	// heuristics) that the chaos domain rejects.
	spec, _ := Lookup("graph-size")
	if _, err := spec.ResolveStrings(map[string]string{"heuristics": ""}); err != nil {
		t.Errorf("graph-size: empty heuristics (= all) rejected: %v", err)
	}
}

func TestRegistryUnknownName(t *testing.T) {
	_, err := RunStrings("nope", nil)
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("want unknown-experiment error, got %v", err)
	}
	// The error names the catalogue so a typo is self-correcting.
	if !strings.Contains(err.Error(), "figure1") {
		t.Errorf("error does not list the registry: %v", err)
	}
}

func TestDescribeListsEverySpec(t *testing.T) {
	var buf bytes.Buffer
	if err := Describe(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, s := range Specs() {
		if !strings.Contains(out, s.Name+" — ") {
			t.Errorf("Describe output missing spec %q", s.Name)
		}
		if !strings.Contains(out, "ocd."+s.Facade) {
			t.Errorf("Describe output missing facade ocd.%s", s.Facade)
		}
	}
}

// TestSinksStreamRows runs one tiny experiment with both streaming sinks
// attached and checks they observed the same rows as the canonical table.
func TestSinksStreamRows(t *testing.T) {
	var csv, jsonl bytes.Buffer
	tab, err := RunStrings("theorem4", map[string]string{"decoys": "1,4"},
		&CSVSink{W: &csv}, &JSONLSink{W: &jsonl})
	if err != nil {
		t.Fatal(err)
	}
	if got := csv.String(); got != tab.CSV() {
		t.Errorf("CSV sink diverged from Table.CSV():\n--- sink ---\n%s--- table ---\n%s", got, tab.CSV())
	}
	lines := strings.Split(strings.TrimRight(jsonl.String(), "\n"), "\n")
	// One head line, one line per row, one per note.
	want := 1 + len(tab.Rows) + len(tab.Notes)
	if len(lines) != want {
		t.Errorf("JSONL sink wrote %d lines, want %d:\n%s", len(lines), want, jsonl.String())
	}
	if !strings.Contains(lines[0], `"title"`) || !strings.Contains(lines[0], `"columns"`) {
		t.Errorf("JSONL head line malformed: %s", lines[0])
	}
}

func TestParseSpecFile(t *testing.T) {
	invs, err := ParseSpecFile([]byte(`[
		{"experiment": "figure1"},
		{"experiment": "theorem4", "params": {"decoys": "1,4"}}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(invs) != 2 || invs[0].Experiment != "figure1" || invs[1].Params["decoys"] != "1,4" {
		t.Fatalf("bad parse: %+v", invs)
	}
	// A single bare invocation object is also accepted.
	if invs, err := ParseSpecFile([]byte(`{"experiment": "figure1"}`)); err != nil || len(invs) != 1 {
		t.Fatalf("single-object spec: got %v, %v", invs, err)
	}
	for _, bad := range []string{
		`[{"experment": "figure1"}]`,              // misspelled key
		`[{"experiment": "figure1", "extra": 1}]`, // unknown key
		`[{"params": {"decoys": "1"}}]`,           // missing name
		`[{"experiment": "figure1"}] trailing`,    // trailing garbage
		`[{"experiment": "figure1"}] {}`,          // trailing JSON
		`[]`,                                      // no experiments
	} {
		if _, err := ParseSpecFile([]byte(bad)); err == nil {
			t.Errorf("ParseSpecFile accepted %s", bad)
		}
	}
}

// TestPaperSpecFiles checks the committed evaluation sweeps: both scales
// list the same 18 experiments in the same order, every invocation
// resolves, and the full scale keeps the paper's parameters.
func TestPaperSpecFiles(t *testing.T) {
	load := func(name string) ([]Invocation, []Args) {
		t.Helper()
		invs, err := LoadSpecFile(filepath.Join("..", "..", "specs", name))
		if err != nil {
			t.Fatal(err)
		}
		args := make([]Args, len(invs))
		for i, inv := range invs {
			spec, _ := Lookup(inv.Experiment)
			if args[i], err = spec.ResolveStrings(inv.Params); err != nil {
				t.Fatalf("%s entry %d: %v", name, i, err)
			}
		}
		return invs, args
	}
	full, fullArgs := load("paper-full.json")
	small, _ := load("paper-small.json")
	if len(full) != 18 || len(small) != 18 {
		t.Fatalf("full lists %d experiments, small %d; want 18 each", len(full), len(small))
	}
	for i := range full {
		if full[i].Experiment != small[i].Experiment {
			t.Errorf("entry %d: full runs %s, small runs %s", i, full[i].Experiment, small[i].Experiment)
		}
	}
	for i, a := range fullArgs {
		switch full[i].Experiment {
		case "graph-size":
			sizes := a.Ints("sizes")
			if sizes[len(sizes)-1] != 1000 || a.Int("tokens") != 200 ||
				a.Int("graph-seeds") != 3 || a.Int("repeats") != 3 {
				t.Errorf("entry %d: graph-size drifted from the paper: sizes %v, %d tokens, %d graph seeds, %d repeats",
					i, sizes, a.Int("tokens"), a.Int("graph-seeds"), a.Int("repeats"))
			}
		case "num-files":
			files := a.Ints("files")
			if a.Int("tokens") != 512 || files[len(files)-1] != 128 {
				t.Errorf("entry %d: num-files drifted from the paper: %d tokens, files %v", i, a.Int("tokens"), files)
			}
		}
	}
}

// TestRunValuesTypeMismatch ensures the typed Values surface the facade
// uses rejects wrongly-typed injections instead of panicking downstream.
func TestRunValuesTypeMismatch(t *testing.T) {
	if _, err := Run("chaos", Values{"n": "twelve"}); err == nil {
		t.Error("string for int param accepted")
	}
	if _, err := Run("chaos", Values{"intensities": 3}); err == nil {
		t.Error("int for floats param accepted")
	}
}

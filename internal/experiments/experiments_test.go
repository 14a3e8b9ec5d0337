package experiments

import (
	"encoding/csv"
	"reflect"
	"strings"
	"testing"
)

// mustRun runs a registered experiment with string overrides and fails
// the test on error.
func mustRun(t *testing.T, name string, params map[string]string) *Table {
	t.Helper()
	tab, err := Run(name, params, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return tab
}

// smallSweep is the one-graph, one-repeat, 16-token configuration of the
// §5.2/§5.3 sweep tests.
func smallSweep(params map[string]string) map[string]string {
	params["tokens"], params["graph-seeds"], params["repeats"] = "16", "1", "1"
	return params
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Notes:   []string{"hello"},
	}
	tab.AddRow(1, 2.5)
	tab.AddRow("x", "y")
	ascii := tab.ASCII()
	for _, want := range []string{"== demo ==", "a", "bb", "2.5", "note: hello"} {
		if !strings.Contains(ascii, want) {
			t.Errorf("ASCII missing %q:\n%s", want, ascii)
		}
	}
	tab.AddRow("a,b", `say "hi"`)
	out := tab.CSV()
	if !strings.HasPrefix(out, "a,bb\n") || !strings.Contains(out, "1,2.5\n") {
		t.Errorf("CSV malformed:\n%s", out)
	}
	// Cells holding a comma or a quote must parse back to the same cells.
	records, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("CSV does not parse: %v\n%s", err, out)
	}
	if want := append([][]string{tab.Columns}, tab.Rows...); !reflect.DeepEqual(records, want) {
		t.Errorf("CSV parsed back to %q, want %q", records, want)
	}
}

func TestGraphSizeSmall(t *testing.T) {
	for _, kind := range []string{"random", "transit-stub"} {
		tab := mustRun(t, "graph-size", smallSweep(map[string]string{"topology": kind, "sizes": "12,20"}))
		// 2 sizes × 5 heuristics.
		if len(tab.Rows) != 10 {
			t.Errorf("%v: %d rows, want 10", kind, len(tab.Rows))
		}
		for _, row := range tab.Rows {
			if row[len(row)-1] != "0" {
				t.Errorf("%v: failures recorded in row %v", kind, row)
			}
		}
	}
}

func TestGraphSizeUnknownHeuristic(t *testing.T) {
	if _, err := Run("graph-size", smallSweep(map[string]string{"sizes": "10", "heuristics": "nope"}), nil); err == nil {
		t.Error("unknown heuristic accepted")
	}
}

func TestReceiverDensitySmall(t *testing.T) {
	tab := mustRun(t, "receiver-density", smallSweep(map[string]string{
		"n": "15", "thresholds": "0.2,1", "heuristics": "random,bandwidth",
	}))
	if len(tab.Rows) != 4 {
		t.Errorf("%d rows, want 4", len(tab.Rows))
	}
}

func TestNumFilesSmall(t *testing.T) {
	for _, multi := range []string{"false", "true"} {
		tab := mustRun(t, "num-files", smallSweep(map[string]string{
			"n": "17", "files": "1,4", "multi-sender": multi, "heuristics": "local,bandwidth",
		}))
		if len(tab.Rows) != 4 {
			t.Errorf("multi=%v: %d rows, want 4", multi, len(tab.Rows))
		}
	}
}

func TestFigure1ExactNumbers(t *testing.T) {
	tab := mustRun(t, "figure1", nil)
	var gotFast, gotCheap bool
	for _, row := range tab.Rows {
		if row[0] == "min time" && row[2] == "2" && row[3] == "6" {
			gotFast = true
		}
		if row[0] == "min bandwidth" && row[2] == "3" && row[3] == "4" {
			gotCheap = true
		}
	}
	if !gotFast || !gotCheap {
		t.Errorf("Figure 1 optima not reproduced:\n%s", tab.ASCII())
	}
}

func TestFigure7AllAgree(t *testing.T) {
	tab := mustRun(t, "figure7", map[string]string{"graphs": "2", "n": "5", "edge-p": "0.4", "seed": "3"})
	if len(tab.Rows) != 2*6 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("reduction disagreement in row %v", row)
		}
	}
}

func TestTheorem4Monotone(t *testing.T) {
	tab := mustRun(t, "theorem4", map[string]string{"path": "1", "decoys": "1,4,16", "capacity": "1"})
	if len(tab.Rows) != 3 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	prev := ""
	for _, row := range tab.Rows {
		if prev != "" && row[2] <= prev {
			// string compare is fine: zero-padded? No — compare lengths
			// first to be safe.
			if len(row[2]) < len(prev) || (len(row[2]) == len(prev) && row[2] <= prev) {
				t.Errorf("online makespan not growing: %s after %s", row[2], prev)
			}
		}
		prev = row[2]
	}
}

func TestOracleAdditiveSmall(t *testing.T) {
	tab := mustRun(t, "oracle-additive", map[string]string{"sizes": "15", "tokens": "10", "seed": "2"})
	for _, row := range tab.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("oracle exceeded additive diameter: %v", row)
		}
	}
}

func TestILPvsBnBAgree(t *testing.T) {
	tab := mustRun(t, "ilp-vs-bnb", map[string]string{"instances": "3", "n": "4", "m": "2", "seed": "5"})
	for _, row := range tab.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("solver disagreement: %v", row)
		}
	}
}

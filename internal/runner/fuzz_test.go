package runner

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenJournal hardens the journal reader against torn lines, foreign
// lines and wrong headers: arbitrary file contents must fail to open with
// an error, or open as a journal that keeps working. A cell recorded after
// opening must be found on reopen, and every cell the first open loaded
// must still be there with the same value.
func FuzzOpenJournal(f *testing.F) {
	// A real journal: the header and three cells, written by Map.
	path := filepath.Join(f.TempDir(), "seed.jsonl")
	j, err := OpenJournal(path, "rows")
	if err != nil {
		f.Fatal(err)
	}
	if _, err := Map(7, rowCells(3), Options{Parallelism: 1, Journal: j}); err != nil {
		f.Fatal(err)
	}
	j.Close()
	real, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	header := `{"journal":"ocd-runner","run":"rows","base":7}` + "\n"
	for _, seed := range []string{
		string(real),
		string(real[:len(real)-9]),      // torn final line
		string(real) + `{"key":"cell/9`, // torn line after complete ones
		header + "not json\n" + `{"value":1}` + "\n" + `[1,2]` + "\n", // foreign lines
		header + `{"key":"cell/000","value":1}` + "\n" + `{"key":"cell/000","value":2}`,
		`{"journal":"ocd-runner","run":"other","base":7}` + "\n", // another run
		`{"journal":"not-a-runner","run":"rows"}` + "\n",         // wrong magic
		`{"key":"cell/000","value":1}` + "\n",                    // no header
		"\n\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path, "rows")
		if err != nil {
			return
		}
		loaded := make(map[string]string, len(j.completed))
		for k, v := range j.completed {
			loaded[k] = string(v)
		}
		base := int64(7)
		if j.haveBase {
			base = j.base
		}
		if err := j.bind(base); err != nil {
			t.Fatalf("binding the journal's own base seed %d: %v", base, err)
		}
		cell := row{Key: "fuzz/cell", Value: 1.5}
		if err := j.record(cell.Key, cell); err != nil {
			t.Fatal(err)
		}
		j.Close()

		j2, err := OpenJournal(path, "rows")
		if err != nil {
			t.Fatalf("journal does not reopen after a record: %v", err)
		}
		defer j2.Close()
		want, _ := json.Marshal(cell)
		if raw, ok := j2.lookup(cell.Key); !ok || string(raw) != string(want) {
			t.Fatalf("recorded cell reads back as %q (found %v), want %q", raw, ok, want)
		}
		for k, v := range loaded {
			if k == cell.Key {
				continue
			}
			if raw, ok := j2.lookup(k); !ok || string(raw) != v {
				t.Fatalf("cell %q read %q on open but %q (found %v) after a record", k, v, raw, ok)
			}
		}
	})
}

package runner

// The crash-safety journal: a JSONL file recording each completed cell's
// key and result as one appended line, so a sweep killed mid-flight can be
// re-invoked with the same journal and skip straight past the cells that
// already finished. Because Map assembles results in submission order from
// the journal and fresh runs alike, a resumed sweep's canonical output is
// byte-identical to an uninterrupted one — provided the cell result type
// round-trips through JSON, which the experiment drivers' row structs do.
//
// The journal is deliberately append-only: a line is written only after
// its cell succeeded, a torn final line (the process died mid-write) is
// skipped on reload, and failed cells are never recorded — they re-run on
// resume.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// journalMagic identifies the header line of a runner journal.
const journalMagic = "ocd-runner"

// journalHeader is the first line of every journal: the magic tag, the
// run the journal was opened for and the experiment base seed, so a
// journal cannot silently resume a different experiment.
type journalHeader struct {
	Journal string `json:"journal"`
	Run     string `json:"run"`
	Base    int64  `json:"base"`
}

// journalEntry is one completed cell.
type journalEntry struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// Journal is the persistent completed-cell store behind Options.Journal.
// One Journal may span several Map calls (multi-table sweeps journal into
// one file); it is safe for concurrent use by Map's workers.
type Journal struct {
	mu        sync.Mutex
	f         *os.File
	run       string
	base      int64
	haveBase  bool
	completed map[string]json.RawMessage
}

// OpenJournal opens or creates the journal at path for one run, loading
// every well-formed completed-cell line already present. run names
// everything that shapes the cells' results besides the base seed (for an
// experiment, its name and parameters); a journal recorded for a different
// run is rejected, because cell keys name only a position in the sweep and
// would otherwise resume another run's rows. A torn trailing line — the
// signature of a killed run — is skipped, not an error; any well-formed
// lines after it still count. For duplicate keys the last line wins.
func OpenJournal(path, run string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runner: open journal: %w", err)
	}
	j := &Journal{f: f, run: run, completed: make(map[string]json.RawMessage)}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if first {
			first = false
			var h journalHeader
			if err := json.Unmarshal(line, &h); err != nil || h.Journal != journalMagic {
				f.Close()
				return nil, fmt.Errorf("runner: %s is not a runner journal", path)
			}
			if h.Run != run {
				f.Close()
				return nil, fmt.Errorf("runner: journal %s was recorded for run %q, not %q", path, h.Run, run)
			}
			j.base, j.haveBase = h.Base, true
			continue
		}
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil || e.Key == "" {
			// Torn or foreign line: skip. Its cell simply re-runs.
			continue
		}
		j.completed[e.Key] = e.Value
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("runner: read journal: %w", err)
	}
	return j, nil
}

// Len reports the number of completed cells currently recorded.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.completed)
}

// Close releases the journal file. The journal must not be used afterwards.
func (j *Journal) Close() error { return j.f.Close() }

// bind pins the journal to an experiment base seed: the first Map call
// writes the header, later calls (and resumed runs) must match it.
func (j *Journal) bind(base int64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.haveBase {
		if j.base != base {
			return fmt.Errorf("runner: journal was recorded with base seed %d, not %d", j.base, base)
		}
		return nil
	}
	line, err := json.Marshal(journalHeader{Journal: journalMagic, Run: j.run, Base: base})
	if err != nil {
		return fmt.Errorf("runner: journal header: %w", err)
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("runner: journal header: %w", err)
	}
	j.base, j.haveBase = base, true
	return nil
}

// lookup returns the recorded result for key, if any.
func (j *Journal) lookup(key string) (json.RawMessage, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	raw, ok := j.completed[key]
	return raw, ok
}

// record appends one completed cell. The line is buffered into a single
// Write so a kill can only tear the final line, never interleave two.
func (j *Journal) record(key string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("runner: journal cell %q: %w", key, err)
	}
	line, err := json.Marshal(journalEntry{Key: key, Value: raw})
	if err != nil {
		return fmt.Errorf("runner: journal cell %q: %w", key, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("runner: journal cell %q: %w", key, err)
	}
	j.completed[key] = raw
	return nil
}

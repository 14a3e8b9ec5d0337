package experiments

// The driver layer of the spec → cells → sinks pipeline. Experiment
// drivers no longer hand-assemble a *Table: they write their header, rows,
// and notes through an Emitter, which maintains the canonical in-memory
// Table and simultaneously streams every row into any number of pluggable
// Sinks (CSV to a live writer, JSONL row logs, ...). The rows themselves
// are produced by runner.Cell fan-out inside each driver, so the pipeline
// is: Spec (declarative parameters) → cells (parallel, journaled,
// crash-safe execution) → sinks (presentation).

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"

	"ocd/internal/telemetry"
)

// Sink consumes an experiment's output as it is produced: the header once,
// then every row in emission order, then the notes. Errors are collected by
// the Emitter and surfaced when the run finishes.
type Sink interface {
	// Head announces the table title and column names before any row.
	Head(title string, columns []string) error
	// Row receives one formatted row (len matches the columns).
	Row(cells []string) error
	// Note receives one qualitative note after the rows.
	Note(note string) error
	// Flush finalizes the sink after the last note.
	Flush() error
}

// Emitter is the write side every experiment driver receives: it builds
// the canonical Table and fans each call out to the attached sinks.
type Emitter struct {
	t     *Table
	tel   *telemetry.Registry
	sinks []Sink
	err   error
}

// newEmitter returns an Emitter streaming into sinks (which may be empty).
func newEmitter(sinks []Sink) *Emitter {
	return &Emitter{t: &Table{}, sinks: sinks}
}

// Telemetry returns the run's metric registry, nil when telemetry is off.
// Drivers pass it to the instrumented seams (kernel observer, runner
// metrics, solver counters); a nil registry makes every recording call a
// no-op, so drivers attach instrumentation unconditionally. Telemetry
// never feeds the Table — the table of a telemetry-on run is byte-
// identical to a telemetry-off run.
func (e *Emitter) Telemetry() *telemetry.Registry { return e.tel }

// Head sets the table title and columns and announces them to the sinks.
func (e *Emitter) Head(title string, columns ...string) {
	e.t.Title = title
	e.t.Columns = columns
	for _, s := range e.sinks {
		e.keep(s.Head(title, columns))
	}
}

// Emit appends one row, formatting cells with the Table's rules (%.1f for
// float64, %v otherwise), and streams it to the sinks.
func (e *Emitter) Emit(cells ...any) {
	e.t.AddRow(cells...)
	row := e.t.Rows[len(e.t.Rows)-1]
	for _, s := range e.sinks {
		e.keep(s.Row(row))
	}
}

// Note appends one qualitative note verbatim.
func (e *Emitter) Note(note string) {
	e.t.Notes = append(e.t.Notes, note)
	for _, s := range e.sinks {
		e.keep(s.Note(note))
	}
}

// Notef appends one formatted qualitative note.
func (e *Emitter) Notef(format string, args ...any) {
	e.Note(fmt.Sprintf(format, args...))
}

func (e *Emitter) keep(err error) {
	if err != nil && e.err == nil {
		e.err = err
	}
}

// finish flushes the sinks and returns the assembled table together with
// the first sink error, if any.
func (e *Emitter) finish() (*Table, error) {
	for _, s := range e.sinks {
		e.keep(s.Flush())
	}
	if e.err != nil {
		return nil, fmt.Errorf("experiments: sink: %w", e.err)
	}
	return e.t, nil
}

// flusher is the optional interface a sink's underlying writer may
// implement (e.g. *bufio.Writer); sinks flush it from their own Flush so
// buffered tail rows are never silently dropped.
type flusher interface{ Flush() error }

// flushWriter flushes w when it buffers.
func flushWriter(w io.Writer) error {
	if f, ok := w.(flusher); ok {
		return f.Flush()
	}
	return nil
}

// CSVSink streams the experiment as RFC-4180 CSV via encoding/csv: a
// header line, then one line per row as it completes, with cells quoted
// whenever they contain a comma, quote, or newline. Records end in a bare
// \n (no CRLF), so outputs whose cells need no quoting are byte-identical
// to the historical join-with-comma format. Notes are dropped (matching
// Table.CSV).
type CSVSink struct {
	W io.Writer

	cw *csv.Writer
}

func (c *CSVSink) write(record []string) error {
	if c.cw == nil {
		c.cw = csv.NewWriter(c.W)
	}
	if err := c.cw.Write(record); err != nil {
		return err
	}
	// Flush per record so the stream tails correctly mid-sweep; the
	// write error (if any) surfaces here or in Flush via cw.Error().
	c.cw.Flush()
	return c.cw.Error()
}

func (c *CSVSink) Head(_ string, columns []string) error { return c.write(columns) }

func (c *CSVSink) Row(cells []string) error { return c.write(cells) }

func (c *CSVSink) Note(string) error { return nil }

func (c *CSVSink) Flush() error {
	if c.cw != nil {
		c.cw.Flush()
		if err := c.cw.Error(); err != nil {
			return err
		}
	}
	return flushWriter(c.W)
}

// JSONLSink streams the experiment as JSONL: one {"title","columns"}
// object, then one {"row"} object per row, then {"note"} objects — a
// machine-readable row log that tails correctly while a sweep is running.
type JSONLSink struct {
	W io.Writer
}

type jsonlHead struct {
	Title   string   `json:"title"`
	Columns []string `json:"columns"`
}

func (j *JSONLSink) Head(title string, columns []string) error {
	return json.NewEncoder(j.W).Encode(jsonlHead{Title: title, Columns: columns})
}

func (j *JSONLSink) Row(cells []string) error {
	return json.NewEncoder(j.W).Encode(struct {
		Row []string `json:"row"`
	}{Row: cells})
}

func (j *JSONLSink) Note(note string) error {
	return json.NewEncoder(j.W).Encode(struct {
		Note string `json:"note"`
	}{Note: note})
}

func (j *JSONLSink) Flush() error { return flushWriter(j.W) }

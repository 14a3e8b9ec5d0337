package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"ocd"
)

// span is one timed call into a layer. Cell is the cell index, or -1 for
// set-up. ID indexes the span within its cell and Parent names the span
// that made the call (-1 for the root). Busy is the time the span covers:
// End-Start for a single call, and the summed call durations for an
// aggregate span (Calls > 1), which folds every Plan call of one run into
// one record instead of one record per timestep.
type span struct {
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"` // the cell's key, on its root span
	Cell   int    `json:"cell"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns"`
	Calls  int    `json:"calls"`
}

// tracer records the spans of one cell (or of set-up). A nil tracer is the
// untraced mode: every method is a no-op, so the untraced pass makes the
// same facade calls as a plain caller would. A tracer belongs to one
// goroutine; cells return their spans in their outcome.
type tracer struct {
	t0    time.Time
	cell  int
	spans []span
}

func newTracer(t0 time.Time, cell int) *tracer { return &tracer{t0: t0, cell: cell} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := t.now()
	t.spans = append(t.spans, span{Name: name, Cell: t.cell, ID: len(t.spans), Parent: parent, Start: now, End: now, Calls: 1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = t.now()
	s.Busy = s.End - s.Start
}

// aggregate opens an empty aggregate span that add folds calls into.
func (t *tracer) aggregate(name string, parent int) int {
	id := t.begin(name, parent)
	t.spans[id].Calls = 0
	return id
}

func (t *tracer) add(id int, start, end int64) {
	s := &t.spans[id]
	if s.Calls == 0 {
		s.Start = start
	}
	s.Calls++
	s.End = end
	s.Busy += end - start
}

// timed wraps a strategy factory so that building the strategy is a
// "heuristics.<h>.build" span and its Plan calls fold into one
// "heuristics.<h>.plan" aggregate span, both children of parent. Untraced,
// it returns f itself.
func (t *tracer) timed(f ocd.StrategyFactory, h string, parent int) ocd.StrategyFactory {
	if t == nil {
		return f
	}
	return func(inst *ocd.Instance, rng *rand.Rand) (ocd.Strategy, error) {
		b := t.begin("heuristics."+h+".build", parent)
		s, err := f(inst, rng)
		t.end(b)
		if err != nil {
			return nil, err
		}
		return &timedStrategy{Strategy: s, t: t, plan: t.aggregate("heuristics."+h+".plan", parent)}, nil
	}
}

type timedStrategy struct {
	ocd.Strategy
	t    *tracer
	plan int
}

func (s *timedStrategy) Plan(st *ocd.PlanState) []ocd.Move {
	start := s.t.now()
	moves := s.Strategy.Plan(st)
	s.t.add(s.plan, start, s.t.now())
	return moves
}

// addSelfTimes adds the self time of one tracer's spans to self, keyed by
// span name: a span's Busy minus the Busy of its direct children.
func addSelfTimes(self map[string]int64, spans []span) {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Busy
		}
	}
	for i, s := range spans {
		self[s.Name] += s.Busy - child[i]
	}
}

// writeSpans writes spans as JSON lines to dir/<workload>.spans.jsonl.
func writeSpans(dir, workload string, spans []span) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, workload+".spans.jsonl"))
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("spans: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

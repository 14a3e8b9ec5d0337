// Package telemetry is the deterministic-friendly metrics layer behind
// ocdsim's -telemetry flag: named counters, gauges, and duration
// histograms registered on a Registry, recorded lock-free on the hot path,
// and emitted as a JSONL stream plus a human Summary table.
//
// Every metric carries a Class, and the split is enforced by
// construction:
//
//   - Counters are Deterministic: step counts, pivots, retries, cache
//     hits — pure functions of the seed, identical between parallel and
//     serial runs (atomic addition is order-free), safe to golden-test
//     and to gate in CI.
//   - Gauges and Histograms are WallClock: cell latency, worker
//     occupancy, queue wait — honest measurements of this machine and
//     this schedule, reported for humans but never folded into
//     experiment tables or byte-identity comparisons.
//
// This package is the only place in the repository allowed to read the
// wall clock inside the deterministic package set; each time.Now call
// site carries an //ocd:wallclock directive for the detrand analyzer
// (see internal/analysis/detrand). Experiment output must stay
// byte-identical whether a Registry is attached or not — the golden
// tests in internal/experiments pin that.
//
// Every handle method is nil-safe: a nil *Registry hands out nil
// *Counter/*Gauge/*Histogram handles whose methods are no-ops, so
// instrumented code records unconditionally and "telemetry off" costs
// one predictable nil check per event, with zero allocations either way.
package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Class separates metrics that are pure functions of the seed from
// measurements of this machine and this schedule.
type Class int

const (
	// Deterministic metrics are identical across parallel and serial
	// runs of the same seed and may be golden-tested.
	Deterministic Class = iota
	// WallClock metrics depend on the hardware and the scheduler; they
	// are reported but never compared byte-for-byte.
	WallClock
)

func (c Class) String() string {
	if c == WallClock {
		return "wallclock"
	}
	return "deterministic"
}

// Counter is a monotonically increasing Deterministic metric. The zero
// handle (nil) discards records.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Safe for concurrent use; no-op on a
// nil handle.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a WallClock high-watermark: Observe keeps the maximum value
// seen. The zero handle (nil) discards records.
type Gauge struct {
	max atomic.Int64
}

// Observe records v, retaining the maximum. Safe for concurrent use;
// no-op on a nil handle.
func (g *Gauge) Observe(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.max.Load()
		if v <= cur || g.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the maximum observed so far (0 on a nil handle).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// histBuckets is the number of power-of-two duration buckets: bucket i
// counts observations in [2^i ns, 2^(i+1) ns), with the last bucket
// open-ended (~34 s and beyond all land in bucket 35).
const histBuckets = 36

// Histogram is a WallClock duration distribution: count, sum, max, and
// power-of-two nanosecond buckets. The zero handle (nil) discards
// records.
type Histogram struct {
	count   atomic.Int64
	sumNS   atomic.Int64
	maxNS   atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one duration. Safe for concurrent use; no-op on a nil
// handle.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sumNS.Add(ns)
	for {
		cur := h.maxNS.Load()
		if ns <= cur || h.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
	b := bits.Len64(uint64(ns))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b].Add(1)
}

// Count returns the number of observations (0 on a nil handle).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Registry is a named set of metrics. Handles are interned: asking for
// the same name twice returns the same handle, so instrumented code
// resolves names once at wiring time and records through the handle on
// the hot path. All methods are safe for concurrent use and nil-safe (a
// nil Registry hands out nil no-op handles).
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// New returns an empty Registry.
func New() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the Deterministic counter registered under name,
// creating it on first use. Returns a nil (no-op) handle on a nil
// Registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the WallClock high-watermark gauge registered under
// name, creating it on first use. Returns a nil (no-op) handle on a nil
// Registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the WallClock duration histogram registered under
// name, creating it on first use. Returns a nil (no-op) handle on a nil
// Registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Metric is one registry entry in export form — the schema of the JSONL
// stream and the unit of Snapshot.
type Metric struct {
	// Name is the metric's registered name (e.g. "kernel.sim.delivered").
	Name string `json:"metric"`
	// Type is "counter", "gauge", or "histogram".
	Type string `json:"type"`
	// Class is "deterministic" or "wallclock".
	Class string `json:"class"`
	// Value is the counter total or gauge high-watermark.
	Value int64 `json:"value,omitempty"`
	// Count/SumNS/MaxNS summarize a histogram's observations.
	Count int64 `json:"count,omitempty"`
	SumNS int64 `json:"sum_ns,omitempty"`
	MaxNS int64 `json:"max_ns,omitempty"`
}

// IsDeterministic reports whether the metric belongs to the
// golden-testable class.
func (m Metric) IsDeterministic() bool { return m.Class == Deterministic.String() }

// Snapshot returns every registered metric sorted by (class, name):
// deterministic metrics first, each group alphabetical, so the JSONL
// stream and Summary table are stable and the deterministic prefix can
// be compared directly. A nil Registry snapshots empty.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Metric, 0, len(r.counts)+len(r.gauges)+len(r.hists))
	for name, c := range r.counts {
		out = append(out, Metric{Name: name, Type: "counter", Class: Deterministic.String(), Value: c.Value()})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Type: "gauge", Class: WallClock.String(), Value: g.Value()})
	}
	for name, h := range r.hists {
		out = append(out, Metric{
			Name: name, Type: "histogram", Class: WallClock.String(),
			Count: h.count.Load(), SumNS: h.sumNS.Load(), MaxNS: h.maxNS.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Class != out[j].Class {
			return out[i].Class == Deterministic.String()
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// DeterministicSnapshot returns only the Deterministic metrics, sorted
// by name — the slice experiment gates and byte-identity tests compare.
func (r *Registry) DeterministicSnapshot() []Metric {
	all := r.Snapshot()
	out := make([]Metric, 0, len(all))
	for _, m := range all {
		if m.IsDeterministic() {
			out = append(out, m)
		}
	}
	return out
}

// streamMagic identifies the header line of a telemetry JSONL stream.
const streamMagic = "ocd-telemetry/v1"

// streamHeader is the first line of the stream.
type streamHeader struct {
	Telemetry string `json:"telemetry"`
}

// WriteJSONL writes the registry as a JSONL stream: one header line
// {"telemetry":"ocd-telemetry/v1"}, then one Metric object per line in
// Snapshot order.
func (r *Registry) WriteJSONL(w io.Writer) error { return encodeJSONL(w, r.Snapshot()) }

// encodeJSONL writes the stream header, then one Metric object per line.
func encodeJSONL(w io.Writer, ms []Metric) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(streamHeader{Telemetry: streamMagic}); err != nil {
		return fmt.Errorf("telemetry: write header: %w", err)
	}
	for _, m := range ms {
		if err := enc.Encode(m); err != nil {
			return fmt.Errorf("telemetry: write %s: %w", m.Name, err)
		}
	}
	return nil
}

// DecodeJSONL parses and validates a telemetry stream produced by
// WriteJSONL: the magic header must come first and every following line
// must be a well-formed Metric with a known type and class. The CI
// telemetry-smoke job and the stream round-trip tests run on this.
func DecodeJSONL(rd io.Reader) ([]Metric, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("telemetry: read stream: %w", err)
		}
		return nil, fmt.Errorf("telemetry: empty stream")
	}
	var h streamHeader
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil || h.Telemetry != streamMagic {
		return nil, fmt.Errorf("telemetry: stream does not start with the %q header", streamMagic)
	}
	var out []Metric
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var m Metric
		if err := json.Unmarshal(line, &m); err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %w", len(out)+2, err)
		}
		switch {
		case m.Name == "":
			return nil, fmt.Errorf("telemetry: line %d: metric has no name", len(out)+2)
		case m.Type != "counter" && m.Type != "gauge" && m.Type != "histogram":
			return nil, fmt.Errorf("telemetry: metric %s has unknown type %q", m.Name, m.Type)
		case m.Class != Deterministic.String() && m.Class != WallClock.String():
			return nil, fmt.Errorf("telemetry: metric %s has unknown class %q", m.Name, m.Class)
		case m.Count < 0 || m.SumNS < 0 || m.MaxNS < 0:
			return nil, fmt.Errorf("telemetry: metric %s has negative histogram fields", m.Name)
		}
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: read stream: %w", err)
	}
	return out, nil
}

// Summary renders the registry as an aligned human-readable table,
// deterministic metrics first. Wall-clock histograms report count, mean,
// and max. An empty registry renders a single note line.
func (r *Registry) Summary() string {
	ms := r.Snapshot()
	if len(ms) == 0 {
		return "telemetry: no metrics recorded\n"
	}
	rows := make([][4]string, 0, len(ms))
	for _, m := range ms {
		var val string
		switch m.Type {
		case "histogram":
			mean := time.Duration(0)
			if m.Count > 0 {
				mean = time.Duration(m.SumNS / m.Count)
			}
			val = fmt.Sprintf("n=%d mean=%v max=%v", m.Count, mean, time.Duration(m.MaxNS))
		default:
			val = fmt.Sprintf("%d", m.Value)
		}
		rows = append(rows, [4]string{m.Name, m.Type, m.Class, val})
	}
	head := [4]string{"metric", "type", "class", "value"}
	width := [4]int{}
	for c := 0; c < 4; c++ {
		width[c] = len(head[c])
		for _, row := range rows {
			if len(row[c]) > width[c] {
				width[c] = len(row[c])
			}
		}
	}
	var b strings.Builder
	writeRow := func(row [4]string) {
		for c := 0; c < 4; c++ {
			b.WriteString(row[c])
			if c < 3 {
				b.WriteString(strings.Repeat(" ", width[c]-len(row[c])+2))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(head)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

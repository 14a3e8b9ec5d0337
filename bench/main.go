// Command bench is the repository benchmark. It builds one workload's inputs
// from a seed, runs its cells for a fixed time through runner.Map at two
// workers, checks every output, and prints every metric by name and unit,
// ending with one JSON line:
//
//	go run ./bench -workload static-grid -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it reports the end-to-end metrics. With -trace 1 it also
// re-runs one full cycle of the workload's cells with spans around every
// call into a layer, writes the spans to <spans>/<workload>.spans.jsonl,
// and reports the per-layer metrics. bench/run.sh builds and runs it inside
// the checkout; README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"ocd/internal/runner"
)

// workers is the fixed worker count: the benchmark host has two cores.
const workers = 2

// cycles bounds a timed pass at this many repetitions of the workload's
// cells, far more than its time budget admits.
const cycles = 8

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type config struct {
	w       workload
	seed    int64
	budget  time.Duration
	trace   bool
	spanDir string
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: static-grid | multifile-sparse | faulted | solver")
	seed := fs.Int64("seed", 1, "seed the inputs are built from")
	seconds := fs.Int("seconds", 10, "seconds the timed pass runs")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	spanDir := fs.String("spans", ".bench_build/spans", "directory the traced pass writes its spans to")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return config{}, err
	}
	if *seconds < 1 {
		return config{}, fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return config{}, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	return config{w, *seed, time.Duration(*seconds) * time.Second, *trace == 1, *spanDir}, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) error {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	var res result
	if cfg.trace {
		res, err = runTraced(cfg, stdout, stderr)
	} else {
		res, err = runEndToEnd(cfg, stdout, stderr)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return errors.New("output checks failed")
	}
	return nil
}

// runEndToEnd sets the workload up several times, keeping the median set-up
// time, then runs its cells for the time budget. Each set-up and the pass
// start from a collected heap, so that no timing pays for garbage an
// earlier one left.
func runEndToEnd(cfg config, stdout, stderr io.Writer) (result, error) {
	var jobs []job
	var setups []float64
	for start := time.Now(); len(setups) < 5 || time.Since(start) < time.Second && len(setups) < 50; {
		jobs = nil
		runtime.GC()
		t := time.Now()
		var err error
		if jobs, err = cfg.w.setup(cfg.seed, cfg.w.full, nil); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	runtime.GC()
	p, err := runPass(jobs, cfg.seed, cycles*len(jobs), workers, cfg.budget, false)
	if err != nil {
		return result{}, err
	}
	printHost(stdout, cfg, len(jobs), len(p.outs))
	fmt.Fprintf(stdout, "output_digest %016x over %d cells\n", digest(p.outs), len(p.outs))
	failed := reportFailures(stderr, p.outs)
	ms := p.cellMillis(len(jobs))
	vals := map[string]float64{
		"cells_per_s": p.throughput(cfg.budget),
		"cell_ms_p50": percentile(ms, 0.50),
		"cell_ms_p90": percentile(ms, 0.90),
		"setup_s":     percentile(setups, 0.5),
	}
	fmt.Fprintf(stdout, "samples: %d cells, %d set-ups\n", len(ms), len(setups))
	return result{failed == 0, len(p.outs), failed, emit(stdout, endToEnd, vals)}, nil
}

// runTraced sets up once with spans and runs the timed pass untraced, for
// the runner and runtime metrics. It then runs each cell of one cycle
// twice in a row, untraced and traced, so that the outputs and times of
// the two runs are compared at the same moment of the host's load.
func runTraced(cfg config, stdout, stderr io.Writer) (result, error) {
	st := newTracer(time.Now(), -1)
	root := st.begin("bench.setup", -1)
	jobs, err := cfg.w.setup(cfg.seed, cfg.w.full, st)
	st.end(root)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	before := readRuntime()
	timed, err := runPass(jobs, cfg.seed, cycles*len(jobs), workers, cfg.budget, false)
	if err != nil {
		return result{}, err
	}
	rt := readRuntime().since(before)
	if rt.peakRSS, err = peakRSS(); err != nil {
		return result{}, err
	}
	traced, err := runPass(jobs, cfg.seed, len(jobs), workers, 0, true)
	if err != nil {
		return result{}, err
	}
	spans := st.spans
	plain := make([]outcome, len(traced.outs))
	for i, o := range traced.outs {
		spans = append(spans, o.spans...)
		plain[i] = *o.plain
	}
	if err := writeSpans(cfg.spanDir, cfg.w.name, spans); err != nil {
		return result{}, err
	}

	printHost(stdout, cfg, len(jobs), len(timed.outs))
	untracedDigest, tracedDigest := digest(plain), digest(traced.outs)
	fmt.Fprintf(stdout, "output_digest %016x over %d cells untraced, %016x traced\n", untracedDigest, len(plain), tracedDigest)
	failed := reportFailures(stderr, timed.outs) + reportFailures(stderr, plain) + reportFailures(stderr, traced.outs)
	agree := untracedDigest == tracedDigest
	if !agree {
		fmt.Fprintln(stderr, "FAIL traced and untraced output digests differ")
	}
	vals := layerValues(st.spans, timed, traced, rt)
	return result{failed == 0 && agree, len(timed.outs) + 2*len(traced.outs), failed, emit(stdout, perLayer(), vals)}, nil
}

// pass is the outcome of one runner.Map over a workload's cells.
type pass struct {
	outs []outcome // completed cells, in cell order
	wall time.Duration
}

// runPass runs count cells, cycling through jobs. With a positive budget,
// cells that would start after it are skipped. Repeats of a job share its
// seed key, so they repeat its output. A traced pass runs each cell
// untraced first, into the outcome's plain field, and then traced.
func runPass(jobs []job, seed int64, count, workers int, budget time.Duration, traced bool) (pass, error) {
	t0 := time.Now()
	cells := make([]runner.Cell[outcome], count)
	for i := range cells {
		j := jobs[i%len(jobs)]
		run := func(tr *tracer, seed int64) outcome {
			start := time.Since(t0)
			root := tr.begin("bench.cell", -1)
			o := j.run(tr, seed)
			tr.end(root)
			o.index, o.key, o.start, o.end = i, j.key, start, time.Since(t0)
			if tr != nil {
				tr.spans[root].Key = j.key
				o.spans = tr.spans
			}
			return o
		}
		cells[i] = runner.Cell[outcome]{
			Key:     fmt.Sprintf("%d:%s", i/len(jobs), j.key),
			SeedKey: j.key,
			Run: func(cellSeed int64) (outcome, error) {
				if budget > 0 && time.Since(t0) >= budget {
					return outcome{skipped: true}, nil
				}
				if !traced {
					return run(nil, cellSeed), nil
				}
				plain := run(nil, cellSeed)
				o := run(newTracer(t0, i), cellSeed)
				o.plain = &plain
				return o, nil
			},
		}
	}
	outs, err := runner.Map(seed, cells, runner.Options{Parallelism: workers})
	p := pass{wall: time.Since(t0)}
	if err != nil {
		return p, err
	}
	for _, o := range outs {
		if !o.skipped {
			p.outs = append(p.outs, o)
		}
	}
	return p, nil
}

// throughput is the number of cells finished within the time budget per
// second up to the last of them; cells still running when the budget ran
// out do not count.
func (p pass) throughput(budget time.Duration) float64 {
	n, last := 0, time.Duration(0)
	for _, o := range p.outs {
		if o.end <= budget {
			n++
			last = max(last, o.end)
		}
	}
	if n == 0 {
		return 0
	}
	return float64(n) / last.Seconds()
}

// cellMillis returns the times of the cells of the first cycle, so that
// the percentiles weigh each distinct cell once.
func (p pass) cellMillis(cycle int) []float64 {
	var ms []float64
	for _, o := range p.outs {
		if o.index < cycle {
			ms = append(ms, float64(o.end-o.start)/1e6)
		}
	}
	return ms
}

// percentile interpolates linearly between the closest ranks.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// reportFailures names every failed cell on stderr and counts them.
func reportFailures(stderr io.Writer, outs []outcome) int {
	n := 0
	for _, o := range outs {
		if o.fail != "" {
			fmt.Fprintf(stderr, "FAIL %s: %s\n", o.key, o.fail)
			n++
		}
	}
	return n
}

// emit prints the metrics in the order of defs, one per line, and returns
// them for the result line.
func emit(stdout io.Writer, defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		fmt.Fprintf(stdout, "%-40s %14.6g %s\n", d.name, v, d.unit)
		out[d.name] = metric{v, d.unit}
	}
	return out
}

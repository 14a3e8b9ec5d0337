package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"

	"ocd"
)

type metricDef struct{ name, unit, better string }

// endToEnd are the metrics of a -trace 0 run.
var endToEnd = []metricDef{
	{"cells_per_s", "cells/s", "higher"},
	{"cell_ms_p50", "ms", "lower"},
	{"cell_ms_p90", "ms", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer lists the metrics of a -trace 1 run. A "<span>_share" metric is
// the self time of the spans named <span> as a share of the traced cells'
// time, or for set-up spans of the traced set-up's time.
func perLayer() []metricDef {
	var m []metricDef
	for _, h := range ocd.Heuristics() {
		m = append(m,
			metricDef{"heuristics." + h + ".build_share", "frac", "lower"},
			metricDef{"heuristics." + h + ".plan_share", "frac", "lower"},
			metricDef{"heuristics." + h + ".accept_ratio", "frac", "higher"},
			metricDef{"sim." + h + ".kernel_share", "frac", "lower"})
	}
	m = append(m,
		metricDef{"sim.steps", "count", "lower"},
		metricDef{"sim.moves", "count", "lower"},
		metricDef{"sim.rejected", "count", "lower"},
		metricDef{"core.prune_share", "frac", "lower"},
		metricDef{"core.prune_kept_frac", "frac", "higher"},
		metricDef{"core.validate_share", "frac", "lower"})
	for _, p := range faultPlans {
		m = append(m, metricDef{"fault." + p.name + ".engine_share", "frac", "lower"})
	}
	return append(m,
		metricDef{"fault.validate_share", "frac", "lower"},
		metricDef{"fault.steps", "count", "lower"},
		metricDef{"fault.lost", "count", "lower"},
		metricDef{"fault.retransmissions", "count", "lower"},
		metricDef{"underlay.engine_share", "frac", "lower"},
		metricDef{"underlay.validate_share", "frac", "lower"},
		metricDef{"underlay.steps", "count", "lower"},
		metricDef{"exact.focd_share", "frac", "lower"},
		metricDef{"exact.eocd_share", "frac", "lower"},
		metricDef{"ilp.build_share", "frac", "lower"},
		metricDef{"ilp.solve_share", "frac", "lower"},
		metricDef{"ilp.nodes", "count", "lower"},
		metricDef{"ilp.warm_starts", "count", "lower"},
		metricDef{"ilp.nodes_per_s", "1/s", "higher"},
		metricDef{"lp.simplex_iterations", "count", "lower"},
		metricDef{"lp.bound_flips", "count", "lower"},
		metricDef{"lp.dual_restorations", "count", "lower"},
		metricDef{"topology.random_share", "frac", "lower"},
		metricDef{"topology.transit_stub_share", "frac", "lower"},
		metricDef{"workload.build_share", "frac", "lower"},
		metricDef{"core.bounds_share", "frac", "lower"},
		metricDef{"underlay.build_share", "frac", "lower"},
		metricDef{"experiments.tiny_share", "frac", "lower"},
		metricDef{"bench.cell_share", "frac", "lower"},
		metricDef{"runner.occupancy", "frac", "higher"},
		metricDef{"runtime.alloc_mb_per_cell", "MB", "lower"},
		metricDef{"runtime.peak_rss_mb", "MB", "lower"},
		metricDef{"runtime.gc_cpu_frac", "frac", "lower"},
		metricDef{"bench.trace_overhead_frac", "frac", "lower"},
		metricDef{"bench.traced_cell_ms_mean", "ms", "lower"},
		metricDef{"bench.traced_setup_ms", "ms", "lower"})
}

// layerValues derives the per-layer metrics from the set-up spans, the
// timed untraced pass with its runtime deltas, and the traced pass.
func layerValues(setupSpans []span, timed, traced pass, rt runtimeStats) map[string]float64 {
	vals := make(map[string]float64)
	setupSelf := make(map[string]int64)
	addSelfTimes(setupSelf, setupSpans)
	cellSelf := make(map[string]int64)
	var cellBusy int64
	c := make(map[string]int)
	for _, o := range traced.outs {
		addSelfTimes(cellSelf, o.spans)
		cellBusy += o.spans[0].Busy
		switch o.engine {
		case engineSim:
			c["sim.steps"] += o.steps
			c["sim.moves"] += o.moves
			c["sim.rejected"] += o.rejected
			c["sim.pruned"] += o.pruned
		case engineFault:
			c["fault.steps"] += o.steps
			c["fault.lost"] += o.lost
			c["fault.retransmissions"] += o.retrans
		case engineUnderlay:
			c["underlay.steps"] += o.steps
		case engineSolver:
			c["ilp.nodes"] += o.nodes
			c["ilp.warm_starts"] += o.warm
			c["lp.simplex_iterations"] += o.iters
			c["lp.bound_flips"] += o.flips
			c["lp.dual_restorations"] += o.restores
		}
		if o.heuristic != "" {
			c[o.heuristic+".admitted"] += o.moves
			c[o.heuristic+".proposed"] += o.moves + o.rejected
		}
	}
	setupBusy := setupSpans[0].Busy
	for _, d := range perLayer() {
		if name, ok := strings.CutSuffix(d.name, "_share"); ok {
			vals[d.name] = ratio(cellSelf[name], cellBusy) + ratio(setupSelf[name], setupBusy)
		} else {
			vals[d.name] = float64(c[d.name])
		}
	}
	for _, h := range ocd.Heuristics() {
		vals["heuristics."+h+".accept_ratio"] = ratio(c[h+".admitted"], c[h+".proposed"])
	}
	vals["core.prune_kept_frac"] = ratio(c["sim.pruned"], c["sim.moves"])
	vals["ilp.nodes_per_s"] = ratio(int64(c["ilp.nodes"])*1e9, cellSelf["ilp.solve"])

	var busy int64
	for _, o := range timed.outs {
		busy += int64(o.end - o.start)
	}
	vals["runner.occupancy"] = ratio(busy, int64(timed.wall)*workers)
	vals["runtime.alloc_mb_per_cell"] = rt.allocBytes / (1 << 20) / float64(len(timed.outs))
	vals["runtime.peak_rss_mb"] = rt.peakRSS
	if rt.totalCPU > 0 {
		vals["runtime.gc_cpu_frac"] = rt.gcCPU / rt.totalCPU
	}

	var plain, withSpans int64
	for _, o := range traced.outs {
		plain += int64(o.plain.end - o.plain.start)
		withSpans += int64(o.end - o.start)
	}
	vals["bench.trace_overhead_frac"] = ratio(withSpans, plain) - 1
	vals["bench.traced_cell_ms_mean"] = float64(cellBusy) / 1e6 / float64(len(traced.outs))
	vals["bench.traced_setup_ms"] = float64(setupBusy) / 1e6
	return vals
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio[T int | int64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// digest is the FNV-1a hash of every cell's key and output counters, in
// cell order.
func digest(outs []outcome) uint64 {
	h := fnv.New64a()
	for _, o := range outs {
		fmt.Fprintf(h, "%s %d %d %d %d %d %d %d %d %d %d %d\n", o.key, o.steps, o.moves, o.pruned,
			o.rejected, o.lost, o.retrans, o.nodes, o.iters, o.warm, o.flips, o.restores)
	}
	return h.Sum64()
}

// printHost prints the host record as a JSON line.
func printHost(stdout io.Writer, cfg config, cycle, ran int) {
	rec := struct {
		GoMaxProcs int    `json:"gomaxprocs"`
		NumCPU     int    `json:"numcpu"`
		CPU        string `json:"cpu"`
		Go         string `json:"go"`
		Revision   string `json:"revision"`
		Workload   string `json:"workload"`
		Seed       int64  `json:"seed"`
		Workers    int    `json:"workers"`
		Cycle      int    `json:"cells_per_cycle"`
		Ran        int    `json:"cells_timed"`
	}{runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), revision(),
		cfg.w.name, cfg.seed, workers, cycle, ran}
	line, _ := json.Marshal(rec) // a struct of strings and ints always marshals
	fmt.Fprintf(stdout, "host %s\n", line)
}

func cpuModel() string {
	v, _ := procField("/proc/cpuinfo", "model name")
	if v == "" {
		return "unknown"
	}
	return v
}

func revision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// peakRSS is the process's peak resident set size in MB (2^20 bytes).
func peakRSS() (float64, error) {
	v, err := procField("/proc/self/status", "VmHWM")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("peak RSS: parsing VmHWM %q: %w", v, err)
	}
	return kb / 1024, nil
}

// procField returns the value of the first "key: value" line of a /proc
// file.
func procField(path, key string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no %q line", path, key)
}

// runtimeStats are Go runtime counters over a pass, and the process's peak
// resident set size after it.
type runtimeStats struct{ allocBytes, gcCPU, totalCPU, peakRSS float64 }

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeStats{allocBytes: float64(s[0].Value.Uint64()), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
}

func (r runtimeStats) since(before runtimeStats) runtimeStats {
	return runtimeStats{allocBytes: r.allocBytes - before.allocBytes, gcCPU: r.gcCPU - before.gcCPU, totalCPU: r.totalCPU - before.totalCPU}
}

package experiments

import (
	"fmt"

	"ocd/internal/core"
	"ocd/internal/graph"
	"ocd/internal/heuristics"
	"ocd/internal/runner"
	"ocd/internal/sim"
	"ocd/internal/stats"
	"ocd/internal/telemetry"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

// GraphKind selects the topology family of §5.2.
type GraphKind int

const (
	// RandomGraph is the Erdős–Rényi G(n, 2·ln n/n) family.
	RandomGraph GraphKind = iota + 1
	// TransitStubGraph is the GT-ITM-style hierarchical family.
	TransitStubGraph
)

func (k GraphKind) String() string {
	if k == TransitStubGraph {
		return "transit-stub"
	}
	return "random"
}

// SweepConfig configures the §5.2/§5.3 heuristic sweeps.
type SweepConfig struct {
	// Kind selects the topology family.
	Kind GraphKind
	// Tokens is the number of tokens in the (initial) file.
	Tokens int
	// GraphSeeds is the number of graph instances per sweep point.
	GraphSeeds int
	// Repeats is the number of heuristic repetitions per graph (paper: 3).
	Repeats int
	// Heuristics restricts the strategies (nil = all five).
	Heuristics []string
	// MaxSteps bounds each run (0 = Theorem 1 horizon).
	MaxSteps int
	// BaseSeed decorrelates repeated invocations.
	BaseSeed int64
	// Parallelism is the worker count for fanning the (graph × heuristic ×
	// repeat) cells across goroutines (0 = GOMAXPROCS, 1 = serial). The
	// output is identical at every setting: each cell's seed is derived
	// from its stable key, never from scheduling.
	Parallelism int
	// Telemetry, when non-nil, receives kernel step-phase counters and
	// runner cell metrics from the sweep. It never affects the results.
	Telemetry *telemetry.Registry
}

func (c SweepConfig) factories() ([]string, []sim.Factory, error) {
	names := c.Heuristics
	if len(names) == 0 {
		names = heuristics.Names()
	}
	fs := make([]sim.Factory, len(names))
	for i, name := range names {
		f, ok := heuristics.Named(name)
		if !ok {
			return nil, nil, fmt.Errorf("experiments: unknown heuristic %q", name)
		}
		fs[i] = f
	}
	return names, fs, nil
}

func (c SweepConfig) graph(n int, seed int64) (*graph.Graph, error) {
	if c.Kind == TransitStubGraph {
		return topology.TransitStubN(n, topology.DefaultCaps, seed)
	}
	return topology.Random(n, topology.DefaultCaps, seed)
}

// point aggregates the runs of one heuristic at one sweep point.
type point struct {
	steps    []int
	bw       []int
	pruned   []int
	failures int
}

// cellResult is the outcome of one (graph, heuristic, repeat) cell.
type cellResult struct {
	steps  int
	bw     int
	pruned int
	failed bool
}

// runPoint executes all repeats of every heuristic on the instances
// produced by build (one per graph seed) and returns per-heuristic
// aggregates plus the mean lower bounds. The instances are built serially
// (they are shared read-only by every cell touching that graph seed); the
// independent simulation cells then fan out through the runner. Each cell's
// seed derives from its (graph seed, repeat) key, so every heuristic sees
// the same draw at the same grid point — the paired-comparison structure of
// the paper's figures — and the result table is identical at any
// parallelism.
func (c SweepConfig) runPoint(build func(seed int64) (*core.Instance, error)) (map[string]*point, stats.Summary, stats.Summary, error) {
	names, fs, err := c.factories()
	if err != nil {
		return nil, stats.Summary{}, stats.Summary{}, err
	}
	insts := make([]*core.Instance, c.GraphSeeds)
	var stepLBs, bwLBs []int
	for gs := 0; gs < c.GraphSeeds; gs++ {
		inst, err := build(c.BaseSeed + int64(gs))
		if err != nil {
			return nil, stats.Summary{}, stats.Summary{}, err
		}
		insts[gs] = inst
		stepLBs = append(stepLBs, core.MakespanLowerBound(inst, nil))
		bwLBs = append(bwLBs, core.BandwidthLowerBound(inst, nil))
	}

	// One shared observer for every cell: the counters are atomic and the
	// observer never touches per-run state, so concurrent cells may feed it.
	obs := telemetry.NewKernelObserver(c.Telemetry, "sim").Observer()
	var cells []runner.Cell[cellResult]
	for gs := 0; gs < c.GraphSeeds; gs++ {
		inst := insts[gs]
		for i := range fs {
			f := fs[i]
			for r := 0; r < c.Repeats; r++ {
				cells = append(cells, runner.Cell[cellResult]{
					Key:     fmt.Sprintf("gs%d/%s/r%d", gs, names[i], r),
					SeedKey: fmt.Sprintf("gs%d/r%d", gs, r),
					Run: func(seed int64) (cellResult, error) {
						res, err := sim.Run(inst, f, sim.Options{
							MaxSteps: c.MaxSteps,
							Seed:     seed,
							Prune:    true,
							Observer: obs,
						})
						if err != nil || !res.Completed {
							return cellResult{failed: true}, nil
						}
						return cellResult{steps: res.Steps, bw: res.Moves, pruned: res.PrunedMoves}, nil
					},
				})
			}
		}
	}
	results, err := runner.Map(c.BaseSeed, cells, runner.Options{
		Parallelism: c.Parallelism,
		Metrics:     telemetry.NewRunnerMetrics(c.Telemetry),
	})
	if err != nil {
		return nil, stats.Summary{}, stats.Summary{}, err
	}

	points := make(map[string]*point, len(names))
	for _, name := range names {
		points[name] = &point{}
	}
	idx := 0
	for gs := 0; gs < c.GraphSeeds; gs++ {
		for i := range fs {
			p := points[names[i]]
			for r := 0; r < c.Repeats; r++ {
				res := results[idx]
				idx++
				if res.failed {
					p.failures++
					continue
				}
				p.steps = append(p.steps, res.steps)
				p.bw = append(p.bw, res.bw)
				p.pruned = append(p.pruned, res.pruned)
			}
		}
	}
	return points, stats.SummarizeInts(stepLBs), stats.SummarizeInts(bwLBs), nil
}

// checkTopology admits the two §5.2 topology family names.
func checkTopology(v any) error {
	if s := v.(string); s != "random" && s != "transit-stub" {
		return fmt.Errorf("must be \"random\" or \"transit-stub\", got %q", s)
	}
	return nil
}

// sweepParams is the shared parameter-schema tail of the §5.2/§5.3 sweep
// specs — everything SweepConfig holds besides the per-figure axis.
func sweepParams() []Param {
	return []Param{
		{Name: "tokens", Kind: Int, Default: 200, Doc: "number of tokens in the (initial) file", Check: checkPositive},
		{Name: "graph-seeds", Kind: Int, Default: 3, Doc: "number of graph instances per sweep point", Check: checkPositive},
		{Name: "repeats", Kind: Int, Default: 3, Doc: "number of heuristic repetitions per graph", Check: checkPositive},
		{Name: "heuristics", Kind: Strings, Default: []string(nil), Doc: "paper heuristic names; empty = all five", Check: checkSweepHeuristics},
		{Name: "max-steps", Kind: Int, Default: 0, Doc: "timestep limit per run (0 = Theorem 1 horizon)", Check: checkNonNegative},
		{Name: "parallelism", Kind: Int, Default: 0, Doc: "runner worker count (0 = GOMAXPROCS); output is identical at every setting", Check: checkNonNegative},
		{Name: "seed", Kind: Int64, Default: int64(0), Doc: "base seed decorrelating repeated invocations"},
	}
}

// sweepFromArgs assembles a SweepConfig from the sweepParams tail.
func sweepFromArgs(a Args, kind GraphKind) SweepConfig {
	return SweepConfig{
		Kind:        kind,
		Tokens:      a.Int("tokens"),
		GraphSeeds:  a.Int("graph-seeds"),
		Repeats:     a.Int("repeats"),
		Heuristics:  a.Strings("heuristics"),
		MaxSteps:    a.Int("max-steps"),
		BaseSeed:    a.Int64("seed"),
		Parallelism: a.Int("parallelism"),
	}
}

func init() {
	Register(Spec{
		Name:       "graph-size",
		Facade:     "ExperimentGraphSize",
		Doc:        "Figures 2/3: moves and bandwidth vs graph size on random or transit-stub graphs",
		SeedPolicy: SeedDerived,
		Params: append([]Param{
			{Name: "topology", Kind: String, Default: "random", Doc: "topology family: random | transit-stub", Check: checkTopology},
			{Name: "sizes", Kind: Ints, Default: []int{25, 50, 100}, Doc: "graph sizes to sweep", Check: checkAll(checkNonEmpty, checkPositive)},
		}, sweepParams()...),
		Smoke: map[string]string{"sizes": "12,16", "tokens": "8", "graph-seeds": "1", "repeats": "1"},
		Run: func(a Args, em *Emitter) error {
			kind := RandomGraph
			if a.String("topology") == "transit-stub" {
				kind = TransitStubGraph
			}
			c := sweepFromArgs(a, kind)
			c.Telemetry = em.Telemetry()
			return graphSizeImpl(c, a.Ints("sizes"), em)
		},
	})
	Register(Spec{
		Name:       "receiver-density",
		Facade:     "ExperimentReceiverDensity",
		Doc:        "Figure 4: moves and bandwidth vs receiver density on a fixed-size graph",
		SeedPolicy: SeedDerived,
		Params: append([]Param{
			{Name: "n", Kind: Int, Default: 100, Doc: "number of vertices", Check: checkPositive},
			{Name: "thresholds", Kind: Floats, Default: []float64{0.1, 0.3, 0.5, 0.7, 0.9},
				Doc: "want-set score thresholds in [0,1]", Check: checkAll(checkNonEmpty, checkUnit)},
		}, sweepParams()...),
		Smoke: map[string]string{"n": "12", "thresholds": "0.5", "tokens": "8", "graph-seeds": "1", "repeats": "1"},
		Run: func(a Args, em *Emitter) error {
			c := sweepFromArgs(a, RandomGraph)
			c.Telemetry = em.Telemetry()
			return receiverDensityImpl(c, a.Int("n"), a.Floats("thresholds"), em)
		},
	})
	Register(Spec{
		Name:       "num-files",
		Facade:     "ExperimentNumFiles",
		Doc:        "Figures 5/6: moves and bandwidth vs number of files, single source or multiple senders",
		SeedPolicy: SeedDerived,
		Params: append([]Param{
			{Name: "n", Kind: Int, Default: 100, Doc: "number of vertices", Check: checkPositive},
			{Name: "files", Kind: Ints, Default: []int{1, 2, 4, 8}, Doc: "file counts to sweep", Check: checkAll(checkNonEmpty, checkPositive)},
			{Name: "multi-sender", Kind: Bool, Default: false, Doc: "source each file at a random non-wanting vertex (Figure 6)"},
		}, sweepParams()...),
		Smoke: map[string]string{"n": "12", "files": "1,2", "tokens": "8", "graph-seeds": "1", "repeats": "1"},
		Run: func(a Args, em *Emitter) error {
			c := sweepFromArgs(a, RandomGraph)
			c.Telemetry = em.Telemetry()
			return numFilesImpl(c, a.Int("n"), a.Ints("files"), a.Bool("multi-sender"), em)
		},
	})
}

// graphSizeImpl reproduces Figures 2 and 3: single source distributing one
// file to all receivers, sweeping the graph size. Columns report the
// paper's two metrics — "moves" (turns/makespan) and bandwidth — plus the
// pruned bandwidth and the two §5.1 lower bounds.
func graphSizeImpl(c SweepConfig, sizes []int, em *Emitter) error {
	title := fmt.Sprintf("Figure 2 (%s): moves and bandwidth vs graph size", c.Kind)
	if c.Kind == TransitStubGraph {
		title = fmt.Sprintf("Figure 3 (%s): moves and bandwidth vs graph size", c.Kind)
	}
	em.Head(title,
		"n", "heuristic", "moves", "bandwidth", "pruned-bw",
		"movesLB", "bwLB", "fails")
	for _, n := range sizes {
		points, stepLB, bwLB, err := c.runPoint(func(seed int64) (*core.Instance, error) {
			g, err := c.graph(n, seed)
			if err != nil {
				return nil, err
			}
			return workload.SingleFile(g, c.Tokens), nil
		})
		if err != nil {
			return err
		}
		names, _, _ := c.factories()
		for _, name := range names {
			p := points[name]
			em.Emit(n, name,
				stats.SummarizeInts(p.steps).Mean,
				stats.SummarizeInts(p.bw).Mean,
				stats.SummarizeInts(p.pruned).Mean,
				stepLB.Mean, bwLB.Mean, p.failures)
		}
	}
	em.Note("paper: moves (turns) do not correlate with n; bandwidth grows roughly linearly with n")
	em.Note("paper: round robin completes but is much slower; random stays within a constant factor of the smarter heuristics")
	return nil
}

// receiverDensityImpl reproduces Figure 4: single source, 200 tokens,
// sweeping the want-set score threshold on a fixed-size graph.
func receiverDensityImpl(c SweepConfig, n int, thresholds []float64, em *Emitter) error {
	em.Head(fmt.Sprintf("Figure 4 (%s, n=%d): moves and bandwidth vs receiver density", c.Kind, n),
		"threshold", "heuristic", "moves", "bandwidth", "pruned-bw",
		"movesLB", "bwLB", "fails")
	for _, th := range thresholds {
		th := th
		points, stepLB, bwLB, err := c.runPoint(func(seed int64) (*core.Instance, error) {
			g, err := c.graph(n, seed)
			if err != nil {
				return nil, err
			}
			return workload.ReceiverDensity(g, c.Tokens, th, seed+7919), nil
		})
		if err != nil {
			return err
		}
		names, _, _ := c.factories()
		for _, name := range names {
			p := points[name]
			em.Emit(fmt.Sprintf("%.2f", th), name,
				stats.SummarizeInts(p.steps).Mean,
				stats.SummarizeInts(p.bw).Mean,
				stats.SummarizeInts(p.pruned).Mean,
				stepLB.Mean, bwLB.Mean, p.failures)
		}
	}
	em.Note("paper: flooding heuristics consume near-constant bandwidth regardless of density")
	em.Note("paper: the bandwidth heuristic is slightly slower but uses far less bandwidth at low densities")
	em.Note("paper: pruned bandwidth of the flooding heuristics is roughly optimal")
	return nil
}

// numFilesImpl reproduces Figures 5 and 6: a fixed token mass subdivided
// into 1..maxFiles files wanted by disjoint vertex groups, sourced at a
// single vertex (multiSender=false, Figure 5) or at random non-wanting
// vertices (multiSender=true, Figure 6).
func numFilesImpl(c SweepConfig, n int, fileCounts []int, multiSender bool, em *Emitter) error {
	fig := "Figure 5 (single source)"
	if multiSender {
		fig = "Figure 6 (multiple senders)"
	}
	em.Head(fmt.Sprintf("%s (%s, n=%d, %d tokens): moves and bandwidth vs number of files", fig, c.Kind, n, c.Tokens),
		"files", "heuristic", "moves", "bandwidth", "pruned-bw",
		"movesLB", "bwLB", "fails")
	for _, files := range fileCounts {
		files := files
		points, stepLB, bwLB, err := c.runPoint(func(seed int64) (*core.Instance, error) {
			g, err := c.graph(n, seed)
			if err != nil {
				return nil, err
			}
			if multiSender {
				return workload.MultiSender(g, c.Tokens, files, seed+104729)
			}
			return workload.MultiFile(g, c.Tokens, files)
		})
		if err != nil {
			return err
		}
		names, _, _ := c.factories()
		for _, name := range names {
			p := points[name]
			em.Emit(files, name,
				stats.SummarizeInts(p.steps).Mean,
				stats.SummarizeInts(p.bw).Mean,
				stats.SummarizeInts(p.pruned).Mean,
				stepLB.Mean, bwLB.Mean, p.failures)
		}
	}
	em.Note("paper: after an initial descent, flooding heuristics level off regardless of subdivision")
	em.Note("paper: only the bandwidth heuristic improves as wants become more constrained, tracking the lower bound and the pruned flooding bandwidth")
	return nil
}

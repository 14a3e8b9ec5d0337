package experiments

// Partition and churn sweeps: the robustness-layer drivers. Both sweep a
// fault-severity axis × heuristic under the deterministic partition/churn
// models, optionally with the kernel invariant monitor attached (any
// violation fails the cell, and therefore the process) and with a crash-
// safety journal so a killed sweep resumes from its completed cells.

import (
	"errors"
	"fmt"
	"strings"

	"ocd/internal/core"
	"ocd/internal/fault"
	"ocd/internal/runner"
	"ocd/internal/sim"
	"ocd/internal/telemetry"
	"ocd/internal/topology"
	"ocd/internal/trace"
	"ocd/internal/workload"
)

// FaultSweepOptions configures the partition/churn sweeps' harness ring —
// everything orthogonal to the experimental axes.
type FaultSweepOptions struct {
	// JournalPath, when non-empty, journals completed cells to this JSONL
	// file and resumes from it (see runner.Journal).
	JournalPath string
	// Monitor attaches the kernel invariant monitor to every run; a
	// violation fails the cell.
	Monitor bool
	// Parallelism is forwarded to the runner. Zero means GOMAXPROCS.
	Parallelism int
	// Telemetry, when non-nil, receives runner cell metrics from the
	// sweep. Kernel step-phase counters are not collected here: the
	// invariant monitor occupies the single kernel Observer seat when
	// -monitor is set, and fault cells keep that seat free for it.
	Telemetry *telemetry.Registry

	// run is the journal's run identity (see journalRun).
	run string
}

// harnessParams is the shared parameter-schema tail of every spec whose
// driver takes FaultSweepOptions: the crash-safety journal, the invariant
// monitor, and runner parallelism.
func harnessParams() []Param {
	return []Param{
		{Name: "journal", Kind: String, Default: "", Doc: "crash-safety journal path; re-invoking with the same journal resumes from completed cells"},
		{Name: "monitor", Kind: Bool, Default: false, Doc: "attach the kernel invariant monitor; any violation fails the run"},
		{Name: "parallelism", Kind: Int, Default: 0, Doc: "runner worker count (0 = GOMAXPROCS); output is identical at every setting", Check: checkNonNegative},
	}
}

// harnessOptions reads the harnessParams tail back out of resolved args.
func harnessOptions(a Args) FaultSweepOptions {
	return FaultSweepOptions{
		JournalPath: a.String("journal"),
		Monitor:     a.Bool("monitor"),
		Parallelism: a.Int("parallelism"),
		run:         journalRun(a),
	}
}

// journalRun renders the run a crash-safety journal is pinned to: the spec
// name and every resolved parameter except the harnessParams tail, which
// changes how cells execute but never what they produce.
func journalRun(a Args) string {
	harness := make(map[string]bool)
	for _, p := range harnessParams() {
		harness[p.Name] = true
	}
	var b strings.Builder
	b.WriteString(a.spec.Name)
	for _, p := range a.spec.Params {
		if !harness[p.Name] {
			fmt.Fprintf(&b, " %s=%v", p.Name, a.vals[p.Name])
		}
	}
	return b.String()
}

// faultRow is one sweep cell's outcome. Every field is JSON-round-trippable
// so journaled cells resume to byte-identical tables.
type faultRow struct {
	Outcome    string  `json:"outcome"`
	Liveness   string  `json:"liveness"`
	Delivered  float64 `json:"delivered"`
	Steps      int     `json:"steps"`
	Moves      int     `json:"moves"`
	Lost       int     `json:"lost"`
	Retrans    int     `json:"retrans"`
	Wasted     int     `json:"wasted"`
	Crashes    int     `json:"crashes"`
	Departures int     `json:"departures"`
}

// runFaultCell executes one sweep cell: build the plan, optionally attach
// the monitor, run, classify. Genuine failures (anything but a stall, plus
// any invariant violation) fail the cell.
func runFaultCell(c sweepCell) (faultRow, error) {
	plan := c.plan()
	f, err := chaosFactory(c.heuristic, plan)
	if err != nil {
		return faultRow{}, err
	}
	opts := sim.Options{Seed: c.seed, IdlePatience: 40}
	var mon *trace.InvariantMonitor
	if c.monitor {
		mon = trace.NewInvariantMonitor(c.inst, trace.InvariantConfig{
			Down: plan.DownAt, Capacity: plan.EffectiveCapacity,
		})
		opts.Observer = mon
	}
	res, err := fault.Run(c.inst, f, plan, opts)
	if err != nil && !errors.Is(err, sim.ErrStalled) {
		return faultRow{}, err
	}
	if mon != nil {
		if merr := mon.Err(); merr != nil {
			return faultRow{}, merr
		}
	}
	return faultRow{
		Outcome:    outcome(res, err),
		Liveness:   string(res.Liveness),
		Delivered:  res.DeliveredFraction,
		Steps:      res.Steps,
		Moves:      res.Moves,
		Lost:       res.Lost,
		Retrans:    res.Retransmissions,
		Wasted:     res.WastedMoves,
		Crashes:    res.Crashes,
		Departures: res.Departures,
	}, nil
}

// sweepCell bundles runFaultCell's inputs.
type sweepCell struct {
	inst      *core.Instance
	heuristic string
	seed      int64
	monitor   bool
	plan      func() fault.Plan
}

// partitionStartP is the per-step episode start probability of the
// partition sweep. Makespans here are short (single-digit steps on the
// default workloads), so a modest rate would often let a run finish before
// any episode begins and the heal-time axis would read as eight identical
// baselines; a high rate guarantees cuts bite within the first steps.
const partitionStartP = 0.5

// checkPartitionSides requires at least two partition sides — one side
// would make every "partition" a no-op.
func checkPartitionSides(v any) error {
	if k := v.(int); k < 2 {
		return fmt.Errorf("must be at least 2, got %d", k)
	}
	return nil
}

func init() {
	Register(Spec{
		Name:       "partition",
		Facade:     "ExperimentPartition",
		Doc:        "partition heal time × heuristic under the k-way RandomPartitions model",
		SeedPolicy: SeedDerived,
		Params: append([]Param{
			{Name: "n", Kind: Int, Default: 30, Doc: "number of vertices", Check: checkPositive},
			{Name: "tokens", Kind: Int, Default: 24, Doc: "number of tokens in the file", Check: checkPositive},
			{Name: "k", Kind: Int, Default: 2, Doc: "number of partition sides", Check: checkPartitionSides},
			{Name: "heal", Kind: Ints, Default: []int{0, 4, 16, -1},
				Doc: "partition heal times in steps; negative = never heals", Check: checkNonEmpty},
			{Name: "heuristics", Kind: Strings, Default: []string{"local", "bandwidth", "retry-local"},
				Doc: "heuristic names; retry-<name> wraps in the backoff sender", Check: checkChaosHeuristics},
			{Name: "seed", Kind: Int64, Default: int64(1), Doc: "random seed (topology, partition model, strategies)"},
		}, harnessParams()...),
		Smoke: map[string]string{"n": "12", "tokens": "6", "heal": "0,-1", "heuristics": "local"},
		Run: func(a Args, em *Emitter) error {
			opts := harnessOptions(a)
			opts.Telemetry = em.Telemetry()
			return partitionImpl(a.Int("n"), a.Int("tokens"), a.Int("k"), a.Ints("heal"),
				a.Strings("heuristics"), a.Int64("seed"), opts, em)
		},
	})
	Register(Spec{
		Name:       "churn",
		Facade:     "ExperimentChurn",
		Doc:        "membership churn rate × heuristic; members leave losing all state and rejoin empty",
		SeedPolicy: SeedDerived,
		Params: append([]Param{
			{Name: "n", Kind: Int, Default: 30, Doc: "number of vertices", Check: checkPositive},
			{Name: "tokens", Kind: Int, Default: 24, Doc: "number of tokens in the file", Check: checkPositive},
			{Name: "leave", Kind: Floats, Default: []float64{0, 0.02, 0.05, 0.1},
				Doc: "per-step leave probabilities in [0,1]", Check: checkAll(checkNonEmpty, checkUnit)},
			{Name: "rejoin", Kind: Float, Default: 0.5,
				Doc: "per-step rejoin probability for absent members; 0 = departures are permanent", Check: checkUnit},
			{Name: "heuristics", Kind: Strings, Default: []string{"local", "bandwidth", "retry-local"},
				Doc: "heuristic names; retry-<name> wraps in the backoff sender", Check: checkChaosHeuristics},
			{Name: "seed", Kind: Int64, Default: int64(1), Doc: "random seed (topology, churn model, strategies)"},
		}, harnessParams()...),
		Smoke: map[string]string{"n": "12", "tokens": "6", "leave": "0,0.05", "heuristics": "local"},
		Run: func(a Args, em *Emitter) error {
			opts := harnessOptions(a)
			opts.Telemetry = em.Telemetry()
			return churnImpl(a.Int("n"), a.Int("tokens"), a.Floats("leave"), a.Float("rejoin"),
				a.Strings("heuristics"), a.Int64("seed"), opts, em)
		},
	})
}

// partitionImpl sweeps partition heal time × heuristic: the overlay is
// split into k sides by the seeded RandomPartitions model, cross-side arcs
// sever during episodes, and each column of the sweep gives the episodes a
// different heal time (negative: the first episode never heals). The
// liveness column separates "stalled but satisfiable once healed" from
// proven unsatisfiability.
func partitionImpl(n, tokens, k int, healAfters []int, heuristicNames []string, seed int64, opts FaultSweepOptions, em *Emitter) error {
	g, err := topology.Random(n, topology.DefaultCaps, seed)
	if err != nil {
		return err
	}
	inst := workload.SingleFile(g, tokens)
	em.Head(fmt.Sprintf("partition sweep: heal time × heuristic (n=%d, %d tokens, k=%d sides)",
		n, tokens, k),
		"heal", "heuristic", "outcome", "liveness", "delivered",
		"steps", "moves", "lost", "retrans")
	if _, err := ResolveHeuristics(heuristicNames, fault.Plan{}); err != nil {
		return err
	}

	var cells []runner.Cell[faultRow]
	for hi, heal := range healAfters {
		heal := heal
		for _, name := range heuristicNames {
			name := name
			cells = append(cells, runner.Cell[faultRow]{
				Key:     fmt.Sprintf("heal%d=%d/%s", hi, heal, name),
				SeedKey: "partition-workload",
				Run: func(cellSeed int64) (faultRow, error) {
					return runFaultCell(sweepCell{
						inst: inst, heuristic: name, seed: cellSeed, monitor: opts.Monitor,
						plan: func() fault.Plan {
							return fault.Plan{
								Partitions: fault.NewRandomPartitions(k, partitionStartP, heal, cellSeed),
							}
						},
					})
				},
			})
		}
	}
	rows, err := mapWithJournal(seed, cells, opts)
	if err != nil {
		return fmt.Errorf("partition: %w", err)
	}

	idx := 0
	for _, heal := range healAfters {
		label := fmt.Sprintf("%d", heal)
		if heal < 0 {
			label = "never"
		}
		for _, name := range heuristicNames {
			r := rows[idx]
			idx++
			em.Emit(label, name, r.Outcome, r.Liveness,
				fmt.Sprintf("%.0f%%", r.Delivered*100),
				r.Steps, r.Moves, r.Lost, r.Retrans)
		}
	}
	em.Notef("RandomPartitions splits the overlay into %d seeded sides; episodes start with p=%.2f per step and last the heal time", k, partitionStartP)
	em.Note("liveness 'healable' marks runs stalled behind transient cuts — satisfiable once healed; 'unsatisfiable' marks proven dead wants")
	if opts.Monitor {
		em.Note("kernel invariant monitor attached: any violation fails the sweep")
	}
	return nil
}

// churnImpl sweeps membership churn rate × heuristic: members leave with
// the per-step probability of the column (losing all state) and rejoin
// empty with probability rejoinP; the source is protected. rejoinP of 0
// makes every departure permanent.
func churnImpl(n, tokens int, leaveRates []float64, rejoinP float64, heuristicNames []string, seed int64, opts FaultSweepOptions, em *Emitter) error {
	g, err := topology.Random(n, topology.DefaultCaps, seed)
	if err != nil {
		return err
	}
	inst := workload.SingleFile(g, tokens)
	em.Head(fmt.Sprintf("churn sweep: leave rate × heuristic (n=%d, %d tokens, rejoin %.2f)",
		n, tokens, rejoinP),
		"leave", "heuristic", "outcome", "liveness", "delivered",
		"steps", "departures", "retrans", "wasted")
	if _, err := ResolveHeuristics(heuristicNames, fault.Plan{}); err != nil {
		return err
	}

	var cells []runner.Cell[faultRow]
	for li, leave := range leaveRates {
		leave := leave
		for _, name := range heuristicNames {
			name := name
			cells = append(cells, runner.Cell[faultRow]{
				Key:     fmt.Sprintf("leave%d=%.3f/%s", li, leave, name),
				SeedKey: "churn-workload",
				Run: func(cellSeed int64) (faultRow, error) {
					return runFaultCell(sweepCell{
						inst: inst, heuristic: name, seed: cellSeed, monitor: opts.Monitor,
						plan: func() fault.Plan {
							return fault.Plan{
								Churn: fault.NewRandomChurn(leave, rejoinP, cellSeed, 0),
							}
						},
					})
				},
			})
		}
	}
	rows, err := mapWithJournal(seed, cells, opts)
	if err != nil {
		return fmt.Errorf("churn: %w", err)
	}

	idx := 0
	for _, leave := range leaveRates {
		for _, name := range heuristicNames {
			r := rows[idx]
			idx++
			em.Emit(fmt.Sprintf("%.3f", leave), name, r.Outcome, r.Liveness,
				fmt.Sprintf("%.0f%%", r.Delivered*100),
				r.Steps, r.Departures, r.Retrans, r.Wasted)
		}
	}
	em.Note("departing members lose everything they downloaded and rejoin empty; the source (vertex 0) never leaves")
	em.Note("liveness 'healable' marks runs stalled behind transient absences; 'unsatisfiable' marks proven dead wants")
	if opts.Monitor {
		em.Note("kernel invariant monitor attached: any violation fails the sweep")
	}
	return nil
}

// mapWithJournal forwards a sweep to the runner, wiring up the optional
// crash-safety journal. The journal's close error is propagated: a
// journal that cannot flush its tail would silently lose completed cells
// on the next resume.
func mapWithJournal(seed int64, cells []runner.Cell[faultRow], opts FaultSweepOptions) ([]faultRow, error) {
	ropts := runner.Options{
		Parallelism: opts.Parallelism,
		Metrics:     telemetry.NewRunnerMetrics(opts.Telemetry),
	}
	var j *runner.Journal
	if opts.JournalPath != "" {
		var err error
		j, err = runner.OpenJournal(opts.JournalPath, opts.run)
		if err != nil {
			return nil, err
		}
		ropts.Journal = j
	}
	rows, err := runner.Map(seed, cells, ropts)
	if j != nil {
		if cerr := j.Close(); cerr != nil && err == nil {
			return nil, fmt.Errorf("journal close: %w", cerr)
		}
	}
	return rows, err
}

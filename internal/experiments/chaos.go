package experiments

import (
	"errors"
	"fmt"
	"strings"

	"ocd/internal/fault"
	"ocd/internal/heuristics"
	"ocd/internal/protocol"
	"ocd/internal/runner"
	"ocd/internal/sim"
	"ocd/internal/telemetry"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

// chaosFactory resolves a heuristic name for the chaos harness: the five
// paper heuristics, "protocol-local", and any of those wrapped in the
// retry-with-backoff strategy via a "retry-" prefix. The plan is consulted
// so protocol strategies gossip over the plan's lossy channel — the engine
// applies the plan's other models itself.
func chaosFactory(name string, plan fault.Plan) (sim.Factory, error) {
	if inner, ok := strings.CutPrefix(name, "retry-"); ok {
		f, err := chaosFactory(inner, plan)
		if err != nil {
			return nil, err
		}
		return fault.WithRetry(f, fault.RetryOptions{}), nil
	}
	if f, ok := heuristics.Named(name); ok {
		return f, nil
	}
	if name == "protocol-local" {
		if plan.Gossip != nil {
			return protocol.LocalWithGossipLoss(plan.Gossip.Drop), nil
		}
		return protocol.Local, nil
	}
	return nil, fmt.Errorf("chaos: unknown heuristic %q (have %v, protocol-local, retry-<name>)",
		name, heuristics.Names())
}

// ResolveHeuristics resolves every name through the chaos naming scheme
// (paper heuristics, protocol-local, retry-<name>) against plan. It is the
// single validation point for the fault-layer sweeps (Chaos, Partition,
// ChurnSweep) and the spec layer's heuristic-list checks, so an unknown
// name produces one canonical error everywhere.
func ResolveHeuristics(names []string, plan fault.Plan) ([]sim.Factory, error) {
	fs := make([]sim.Factory, len(names))
	for i, name := range names {
		f, err := chaosFactory(name, plan)
		if err != nil {
			return nil, err
		}
		fs[i] = f
	}
	return fs, nil
}

// chaosCell carries a faulted run's result through the runner; a stall is
// row data ("stalled" outcome), not a cell failure.
type chaosCell struct {
	res *fault.Result
	err error
}

// outcome folds a faulted run into one word for the table. Only a genuine
// stall reads as "stalled"; any other error is the cell's failure and must
// surface as one (see the drivers), never masquerade as a stall.
func outcome(res *fault.Result, err error) string {
	switch {
	case errors.Is(err, sim.ErrStalled):
		return "stalled"
	case err != nil:
		return "error"
	case res.Completed:
		return "completed"
	case res.Graceful:
		return "graceful"
	default:
		return "timeout"
	}
}

func init() {
	Register(Spec{
		Name:       "chaos",
		Facade:     "ExperimentChaos",
		Doc:        "fault intensity × heuristic sweep under the canonical chaos plan",
		SeedPolicy: SeedDerived,
		Params: []Param{
			{Name: "n", Kind: Int, Default: 30, Doc: "number of vertices", Check: checkPositive},
			{Name: "tokens", Kind: Int, Default: 24, Doc: "number of tokens in the file", Check: checkPositive},
			{Name: "intensities", Kind: Floats, Default: []float64{0, 0.25, 0.5, 0.75, 1},
				Doc: "fault intensities in [0,1]", Check: checkAll(checkNonEmpty, checkUnit)},
			{Name: "heuristics", Kind: Strings, Default: []string{"local", "bandwidth", "retry-local"},
				Doc: "heuristic names; retry-<name> wraps in the backoff sender", Check: checkChaosHeuristics},
			{Name: "seed", Kind: Int64, Default: int64(1), Doc: "random seed (topology, fault plan, strategies)"},
		},
		Smoke: map[string]string{"n": "12", "tokens": "6", "intensities": "0,0.5", "heuristics": "local,retry-local"},
		Run: func(a Args, em *Emitter) error {
			return chaosImpl(a.Int("n"), a.Int("tokens"), a.Floats("intensities"), a.Strings("heuristics"), a.Int64("seed"), em)
		},
	})
	Register(Spec{
		Name:       "crashed-source",
		Facade:     "ExperimentCrashedSource",
		Doc:        "crash-stop the sole source mid-distribution; graceful unsatisfiability report",
		SeedPolicy: SeedDerived,
		Params: []Param{
			{Name: "n", Kind: Int, Default: 30, Doc: "number of vertices", Check: checkPositive},
			{Name: "tokens", Kind: Int, Default: 24, Doc: "number of tokens in the file", Check: checkPositive},
			{Name: "crash-at", Kind: Int, Default: 2, Doc: "step at which the sole source crash-stops", Check: checkNonNegative},
			{Name: "seed", Kind: Int64, Default: int64(1), Doc: "random seed"},
		},
		Smoke: map[string]string{"n": "12", "tokens": "6", "crash-at": "1"},
		Run: func(a Args, em *Emitter) error {
			return crashedSourceImpl(a.Int("n"), a.Int("tokens"), a.Int("crash-at"), a.Int64("seed"), em)
		},
	})
}

// chaosImpl sweeps fault intensity × heuristic on one workload: each cell
// runs the heuristic under the canonical composite plan fault.AtIntensity
// (bursty Gilbert–Elliott loss, random crash/recovery churn with download
// loss, gossip loss) and reports the degradation metrics next to a
// fault-free baseline of the same heuristic, so the "inflation" column is
// makespan under faults relative to makespan without.
func chaosImpl(n, tokens int, intensities []float64, heuristicNames []string, seed int64, em *Emitter) error {
	// Validate every name up front so an unknown heuristic fails before any
	// cell runs.
	if _, err := ResolveHeuristics(heuristicNames, fault.Plan{}); err != nil {
		return err
	}
	g, err := topology.Random(n, topology.DefaultCaps, seed)
	if err != nil {
		return err
	}
	inst := workload.SingleFile(g, tokens)
	em.Head(fmt.Sprintf("chaos sweep: fault intensity × heuristic (n=%d, %d tokens)",
		n, tokens),
		"intensity", "heuristic", "outcome", "delivered",
		"moves", "lost", "retrans", "wasted", "crashes", "inflation")

	// Every chaos cell shares one seed key: the original harness ran the
	// whole table off a single seed, and the intensity-0 cells must replay
	// the baseline run exactly for the inflation column to read 1.00.
	const chaosSeedKey = "chaos-workload"

	// Fault-free baselines give the inflation denominator per heuristic.
	baseCells := make([]runner.Cell[int], len(heuristicNames))
	for i, name := range heuristicNames {
		name := name
		baseCells[i] = runner.Cell[int]{
			Key:     "baseline/" + name,
			SeedKey: chaosSeedKey,
			Run: func(cellSeed int64) (int, error) {
				f, _ := chaosFactory(name, fault.Plan{}) // validated above
				res, err := fault.Run(inst, f, fault.Plan{}, sim.Options{Seed: cellSeed, IdlePatience: 40})
				if err != nil || !res.Completed {
					return 0, fmt.Errorf("fault-free baseline did not complete (err=%v)", err)
				}
				return res.Steps, nil
			},
		}
	}
	baseSteps, err := runner.Map(seed, baseCells, runner.Options{Metrics: telemetry.NewRunnerMetrics(em.Telemetry())})
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	baseline := make(map[string]int, len(heuristicNames))
	for i, name := range heuristicNames {
		baseline[name] = baseSteps[i]
	}

	// Grid cells: plans hold stateful loss/crash models (each owns a PRNG
	// advanced during the run), so every cell constructs its own plan inside
	// Run rather than sharing one per intensity.
	var cells []runner.Cell[chaosCell]
	for xi, x := range intensities {
		x := x
		for _, name := range heuristicNames {
			name := name
			cells = append(cells, runner.Cell[chaosCell]{
				Key:     fmt.Sprintf("x%d=%.2f/%s", xi, x, name),
				SeedKey: chaosSeedKey,
				Run: func(cellSeed int64) (chaosCell, error) {
					plan := fault.AtIntensity(x, cellSeed, 0) // vertex 0 is the source: protect it
					f, _ := chaosFactory(name, plan)          // validated above
					res, err := fault.Run(inst, f, plan, sim.Options{Seed: cellSeed, IdlePatience: 40})
					// A stall is row data; anything else fails the cell so it
					// reaches the process exit code.
					if err != nil && !errors.Is(err, sim.ErrStalled) {
						return chaosCell{}, fmt.Errorf("intensity %.2f: %w", x, err)
					}
					return chaosCell{res: res, err: err}, nil
				},
			})
		}
	}
	results, err := runner.Map(seed, cells, runner.Options{Metrics: telemetry.NewRunnerMetrics(em.Telemetry())})
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}

	idx := 0
	for _, x := range intensities {
		for _, name := range heuristicNames {
			cell := results[idx]
			idx++
			res := cell.res
			inflation := "-"
			if res.Completed && baseline[name] > 0 {
				inflation = fmt.Sprintf("%.2f", float64(res.Steps)/float64(baseline[name]))
			}
			em.Emit(fmt.Sprintf("%.2f", x), name, outcome(res, cell.err),
				fmt.Sprintf("%.0f%%", res.DeliveredFraction*100),
				res.Moves, res.Lost, res.Retransmissions, res.WastedMoves,
				res.Crashes, inflation)
		}
	}
	em.Note("intensity x scales the canonical plan: Gilbert–Elliott loss, crash/recovery churn (source protected), download loss on crash, gossip loss")
	em.Note("inflation is faulted makespan over the same heuristic's fault-free makespan; '-' when the faulted run did not complete")
	em.Note("retry-<name> wraps a heuristic in the retry-with-backoff sender")
	return nil
}

// crashedSourceImpl demonstrates graceful degradation on the harshest
// fault: the sole holder of the file crash-stops mid-distribution.
// Whatever the source pushed out before dying keeps spreading; every token
// it still held exclusively becomes provably undeliverable, and the run
// terminates with an explicit unsatisfiable-receiver report instead of
// idling to the Theorem 1 horizon.
func crashedSourceImpl(n, tokens, crashAt int, seed int64, em *Emitter) error {
	g, err := topology.Random(n, topology.DefaultCaps, seed)
	if err != nil {
		return err
	}
	inst := workload.SingleFile(g, tokens)
	em.Head(fmt.Sprintf("crashed sole source: crash-stop at step %d (n=%d, %d tokens, horizon %d)",
		crashAt, n, tokens, inst.TheoremOneHorizon()),
		"heuristic", "outcome", "steps", "delivered",
		"unsatisfiable", "moves", "lost")
	factories := heuristics.All()
	cells := make([]runner.Cell[chaosCell], len(factories))
	for i, f := range factories {
		f := f
		cells[i] = runner.Cell[chaosCell]{
			Key:     "crash/" + heuristics.Names()[i],
			SeedKey: "crash-workload",
			Run: func(cellSeed int64) (chaosCell, error) {
				plan := fault.Plan{
					Crashes: fault.CrashSchedule{Events: []fault.CrashEvent{
						{V: 0, At: crashAt, RecoverAt: -1},
					}},
				}
				res, err := fault.Run(inst, f, plan, sim.Options{Seed: cellSeed, IdlePatience: 40})
				if err != nil && !errors.Is(err, sim.ErrStalled) {
					return chaosCell{}, err
				}
				return chaosCell{res: res, err: err}, nil
			},
		}
	}
	results, err := runner.Map(seed, cells, runner.Options{Metrics: telemetry.NewRunnerMetrics(em.Telemetry())})
	if err != nil {
		return fmt.Errorf("crashed source: %w", err)
	}
	for i := range factories {
		res := results[i].res
		em.Emit(heuristics.Names()[i], outcome(res, results[i].err), res.Steps,
			fmt.Sprintf("%.0f%%", res.DeliveredFraction*100),
			len(res.Unsatisfiable), res.Moves, res.Lost)
	}
	em.Note("the source crash-stops holding every token not yet pushed out; those become provably undeliverable")
	em.Note("'graceful' rows terminated via live-holder reachability detection, well before the m(n-1) horizon and without an IdlePatience stall")
	return nil
}

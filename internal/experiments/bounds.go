package experiments

import (
	"fmt"

	"ocd/internal/core"
	"ocd/internal/exact"
	"ocd/internal/flow"
	"ocd/internal/heuristics"
	"ocd/internal/runner"
	"ocd/internal/sim"
	"ocd/internal/telemetry"
)

func init() {
	Register(Spec{
		Name:       "bounds-quality",
		Doc:        "heuristic makespan/bandwidth as ratios to certified optima on random small instances",
		SeedPolicy: SeedDerived,
		Params: []Param{
			{Name: "instances", Kind: Int, Default: "5", Doc: "number of random instances", Check: checkPositive},
			{Name: "n", Kind: Int, Default: "5", Doc: "vertices per instance", Check: checkPositive},
			{Name: "m", Kind: Int, Default: "3", Doc: "tokens per instance", Check: checkPositive},
			{Name: "seed", Kind: Int64, Default: "1", Doc: "random seed for the instance stream"},
		},
		Smoke: map[string]string{"instances": "2", "n": "4", "m": "2"},
		Run: func(a Args, em *Emitter) error {
			return boundsQualityImpl(a.Int("instances"), a.Int("n"), a.Int("m"), a.Int64("seed"), em)
		},
	})
}

// boundsQualityImpl delivers the paper's §1 promise to "calculate bounds
// (not necessarily tight) to provide a rough notion of the quality of our
// local and global heuristics": on random small instances where the exact
// optima are computable, it reports each heuristic's makespan and pruned
// bandwidth as ratios to the certified optimum, alongside the §5.1 lower
// bounds' own tightness.
func boundsQualityImpl(instances, n, m int, seed int64, em *Emitter) error {
	em.Head(fmt.Sprintf("heuristic quality vs certified optima (%d random instances, n=%d, m=%d)",
		instances, n, m),
		"instance", "heuristic", "moves/opt", "bw/opt",
		"movesLB/opt", "flowLB/opt", "bwLB/opt")
	// The tiny instances are drawn serially from one RNG stream (each draw
	// depends on the previous); the expensive exact solves and heuristic
	// runs then fan out with one cell per instance.
	insts := RandomTinyInstances(seed, instances, n, m)
	type heurOutcome struct {
		steps, pruned int
		failed        bool
	}
	type boundsCell struct {
		optSteps, optBW, stepLB, flowLB, bwLB int
		heur                                  []heurOutcome
	}
	cells := make([]runner.Cell[boundsCell], instances)
	for i := range insts {
		i := i
		inst := insts[i]
		cells[i] = runner.Cell[boundsCell]{
			Key: fmt.Sprintf("inst%d", i),
			Run: func(cellSeed int64) (boundsCell, error) {
				fast, err := exact.SolveFOCD(inst, exact.Options{})
				if err != nil {
					return boundsCell{}, fmt.Errorf("instance %d focd: %w", i, err)
				}
				cheap, err := exact.SolveEOCD(inst, 0, exact.Options{})
				if err != nil {
					return boundsCell{}, fmt.Errorf("instance %d eocd: %w", i, err)
				}
				flowLB, err := flow.FlowMakespanLowerBound(inst)
				if err != nil {
					return boundsCell{}, fmt.Errorf("instance %d flow bound: %w", i, err)
				}
				cell := boundsCell{
					optSteps: fast.Makespan(), optBW: cheap.Moves(),
					stepLB: core.MakespanLowerBound(inst, nil),
					flowLB: flowLB,
					bwLB:   core.BandwidthLowerBound(inst, nil),
					heur:   make([]heurOutcome, len(heuristics.All())),
				}
				for h, factory := range heuristics.All() {
					res, err := sim.Run(inst, factory, sim.Options{Seed: cellSeed, Prune: true})
					telemetry.RecordRun(em.Telemetry(), "sim", res)
					if err != nil || !res.Completed {
						cell.heur[h] = heurOutcome{failed: true}
						continue
					}
					cell.heur[h] = heurOutcome{steps: res.Steps, pruned: res.PrunedMoves}
				}
				return cell, nil
			},
		}
	}
	results, err := runner.Map(seed, cells, runner.Options{Metrics: telemetry.NewRunnerMetrics(em.Telemetry())})
	if err != nil {
		return err
	}
	for i, cell := range results {
		for h, out := range cell.heur {
			if out.failed {
				em.Emit(i, heuristics.Names()[h], "-", "-", "-", "-", "-")
				continue
			}
			em.Emit(i, heuristics.Names()[h],
				ratio(out.steps, cell.optSteps), ratio(out.pruned, cell.optBW),
				ratio(cell.stepLB, cell.optSteps), ratio(cell.flowLB, cell.optSteps), ratio(cell.bwLB, cell.optBW))
		}
	}
	em.Note("ratios are to the certified optimum: 1.00 is optimal; lower-bound ratios below 1.00 measure bound looseness")
	return nil
}

func ratio(x, opt int) string {
	if opt == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(x)/float64(opt))
}

package experiments

import (
	"fmt"

	"ocd/internal/competitive"
	"ocd/internal/heuristics"
	"ocd/internal/runner"
	"ocd/internal/sim"
	"ocd/internal/telemetry"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

func init() {
	Register(Spec{
		Name:       "theorem4",
		Doc:        "Theorem 4: unbounded competitive ratio on the adversarial decoy family",
		SeedPolicy: SeedNone,
		Params: []Param{
			{Name: "path", Kind: Int, Default: "1", Doc: "length of the adversarial path", Check: checkPositive},
			{Name: "decoys", Kind: Ints, Default: "1,4,16,64", Doc: "decoy token counts to sweep", Check: checkAll(checkNonEmpty, checkPositive)},
			{Name: "capacity", Kind: Int, Default: "1", Doc: "arc capacity on the path", Check: checkPositive},
		},
		Smoke: map[string]string{"decoys": "1,4"},
		Run: func(a Args, em *Emitter) error {
			return theorem4Impl(a.Int("path"), a.Ints("decoys"), a.Int("capacity"), em)
		},
	})
	Register(Spec{
		Name:       "oracle-additive",
		Doc:        "§4.2: the propagate-then-plan oracle finishes within an additive graph diameter",
		SeedPolicy: SeedDerived,
		Params: []Param{
			{Name: "sizes", Kind: Ints, Default: "20,40,80", Doc: "graph sizes to sweep", Check: checkAll(checkNonEmpty, checkPositive)},
			{Name: "tokens", Kind: Int, Default: "20", Doc: "number of tokens in the file", Check: checkPositive},
			{Name: "seed", Kind: Int64, Default: "1", Doc: "random seed"},
		},
		Smoke: map[string]string{"sizes": "12", "tokens": "6"},
		Run: func(a Args, em *Emitter) error {
			return oracleAdditiveImpl(a.Ints("sizes"), a.Int("tokens"), a.Int64("seed"), em)
		},
	})
}

// theorem4Impl demonstrates that no c-competitive online algorithm exists
// for FOCD: on the adversarial family (a path whose far endpoint wants one
// of m tokens), the worst-case makespan of the knowledge-free online
// algorithm grows linearly in the number of decoy tokens while the offline
// optimum stays at the path length, so the ratio is unbounded.
func theorem4Impl(pathLen int, decoySweep []int, capacity int, em *Emitter) error {
	em.Head("Theorem 4: unbounded competitive ratio on the adversarial family",
		"decoys", "path", "online-makespan", "offline-optimum", "ratio")
	// The adversarial construction is deterministic; the runner only
	// parallelizes the independent decoy counts.
	cells := make([]runner.Cell[competitive.RatioPoint], len(decoySweep))
	for i, d := range decoySweep {
		d := d
		cells[i] = runner.Cell[competitive.RatioPoint]{
			Key: fmt.Sprintf("decoys%d", d),
			Run: func(int64) (competitive.RatioPoint, error) {
				pt, err := competitive.WorstCaseRatio(pathLen, d+1, capacity)
				if err != nil {
					return competitive.RatioPoint{}, fmt.Errorf("theorem4 decoys=%d: %w", d, err)
				}
				return pt, nil
			},
		}
	}
	results, err := runner.Map(0, cells, runner.Options{Metrics: telemetry.NewRunnerMetrics(em.Telemetry())})
	if err != nil {
		return err
	}
	for _, pt := range results {
		em.Emit(pt.Decoys, pt.PathLen, pt.Online, pt.Offline, fmt.Sprintf("%.2f", pt.Ratio))
	}
	em.Note("Theorem 4: the ratio grows without bound in the decoy count, so no fixed c suffices")
	return nil
}

// oracleAdditiveImpl demonstrates the §4.2 upper bound: an online
// algorithm that first lets knowledge propagate for diameter steps and
// then follows a globally planned schedule finishes within an additive
// diameter of that plan. Measured on random graphs with a single-file
// workload.
func oracleAdditiveImpl(sizes []int, tokens int, seed int64, em *Emitter) error {
	em.Head("§4.2: propagate-then-plan oracle is within an additive diameter",
		"n", "diameter", "oracle-makespan", "planned-makespan", "additive-gap", "within-diameter")
	type oracleCell struct {
		diameter, oracleSteps, plannedSteps int
	}
	cells := make([]runner.Cell[oracleCell], len(sizes))
	for i, n := range sizes {
		n := n
		cells[i] = runner.Cell[oracleCell]{
			Key: fmt.Sprintf("n%d", n),
			Run: func(cellSeed int64) (oracleCell, error) {
				g, err := topology.Random(n, topology.DefaultCaps, cellSeed)
				if err != nil {
					return oracleCell{}, err
				}
				inst := workload.SingleFile(g, tokens)
				planned, err := sim.Run(inst, heuristics.Global, sim.Options{Seed: cellSeed})
				telemetry.RecordRun(em.Telemetry(), "sim", planned)
				if err != nil {
					return oracleCell{}, fmt.Errorf("oracle additive n=%d planned: %w", n, err)
				}
				oracle, err := competitive.RunOracle(inst, heuristics.Global, cellSeed)
				telemetry.RecordRun(em.Telemetry(), "sim", oracle)
				if err != nil {
					return oracleCell{}, fmt.Errorf("oracle additive n=%d oracle: %w", n, err)
				}
				return oracleCell{diameter: g.Diameter(), oracleSteps: oracle.Steps, plannedSteps: planned.Steps}, nil
			},
		}
	}
	results, err := runner.Map(seed, cells, runner.Options{Metrics: telemetry.NewRunnerMetrics(em.Telemetry())})
	if err != nil {
		return err
	}
	for i, res := range results {
		gap := res.oracleSteps - res.plannedSteps
		em.Emit(sizes[i], res.diameter, res.oracleSteps, res.plannedSteps, gap, gap <= res.diameter)
	}
	return nil
}

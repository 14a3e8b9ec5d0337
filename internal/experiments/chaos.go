package experiments

import (
	"fmt"

	"ocd/internal/fault"
	"ocd/internal/heuristics"
	"ocd/internal/runner"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

func init() {
	Register(Spec{
		Name:       "chaos",
		Doc:        "fault intensity × heuristic sweep under the canonical chaos plan",
		SeedPolicy: SeedDerived,
		Params: []Param{
			{Name: "n", Kind: Int, Default: "30", Doc: "number of vertices", Check: checkPositive},
			{Name: "tokens", Kind: Int, Default: "24", Doc: "number of tokens in the file", Check: checkPositive},
			{Name: "intensities", Kind: Floats, Default: "0,0.25,0.5,0.75,1",
				Doc: "fault intensities in [0,1]", Check: checkAll(checkNonEmpty, checkUnit)},
			{Name: "heuristics", Kind: Strings, Default: "local,bandwidth,retry-local",
				Doc: "heuristic names; retry-<name> wraps in the backoff sender", Check: checkStrategies},
			{Name: "seed", Kind: Int64, Default: "1", Doc: "random seed (topology, fault plan, strategies)"},
		},
		Smoke: map[string]string{"n": "12", "tokens": "6", "intensities": "0,0.5", "heuristics": "local,retry-local"},
		Run: func(a Args, em *Emitter) error {
			return chaosImpl(a.Int("n"), a.Int("tokens"), a.Floats("intensities"), a.Strings("heuristics"), a.Int64("seed"), em)
		},
	})
	Register(Spec{
		Name:       "crashed-source",
		Doc:        "crash-stop the sole source mid-distribution; graceful unsatisfiability report",
		SeedPolicy: SeedDerived,
		Params: []Param{
			{Name: "n", Kind: Int, Default: "30", Doc: "number of vertices", Check: checkPositive},
			{Name: "tokens", Kind: Int, Default: "24", Doc: "number of tokens in the file", Check: checkPositive},
			{Name: "crash-at", Kind: Int, Default: "2", Doc: "step at which the sole source crash-stops", Check: checkNonNegative},
			{Name: "seed", Kind: Int64, Default: "1", Doc: "random seed"},
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

	opts := faultSweepOptions{Telemetry: em.Telemetry()}

	// Fault-free baselines give the inflation denominator per heuristic.
	baseCells := make([]runner.Cell[faultRow], len(heuristicNames))
	for i, name := range heuristicNames {
		name := name
		baseCells[i] = runner.Cell[faultRow]{
			Key:     "baseline/" + name,
			SeedKey: chaosSeedKey,
			Run: func(cellSeed int64) (faultRow, error) {
				r, err := runFaultCell(sweepCell{
					inst: inst, heuristic: name, seed: cellSeed, tel: opts.Telemetry,
					plan: func() fault.Plan { return fault.Plan{} },
				})
				if err == nil && r.Outcome != "completed" {
					err = fmt.Errorf("fault-free baseline did not complete (%s)", r.Outcome)
				}
				return r, err
			},
		}
	}
	baseRows, err := mapWithJournal(seed, baseCells, opts)
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	baseline := make(map[string]int, len(heuristicNames))
	for i, name := range heuristicNames {
		baseline[name] = baseRows[i].Steps
	}

	// Grid cells: plans hold stateful loss/crash models (each owns a PRNG
	// advanced during the run), so every cell constructs its own plan inside
	// Run rather than sharing one per intensity.
	var cells []runner.Cell[faultRow]
	for xi, x := range intensities {
		x := x
		for _, name := range heuristicNames {
			name := name
			cells = append(cells, runner.Cell[faultRow]{
				Key:     fmt.Sprintf("x%d=%.2f/%s", xi, x, name),
				SeedKey: chaosSeedKey,
				Run: func(cellSeed int64) (faultRow, error) {
					return runFaultCell(sweepCell{
						inst: inst, heuristic: name, seed: cellSeed, tel: opts.Telemetry,
						// vertex 0 is the source: protect it
						plan: func() fault.Plan { return fault.AtIntensity(x, cellSeed, 0) },
					})
				},
			})
		}
	}
	rows, err := mapWithJournal(seed, cells, opts)
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}

	idx := 0
	for _, x := range intensities {
		for _, name := range heuristicNames {
			r := rows[idx]
			idx++
			inflation := "-"
			if r.Outcome == "completed" && baseline[name] > 0 {
				inflation = fmt.Sprintf("%.2f", float64(r.Steps)/float64(baseline[name]))
			}
			em.Emit(fmt.Sprintf("%.2f", x), name, r.Outcome,
				fmt.Sprintf("%.0f%%", r.Delivered*100),
				r.Moves, r.Lost, r.Retrans, r.Wasted, r.Departures, inflation)
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
	opts := faultSweepOptions{Telemetry: em.Telemetry()}
	names := heuristics.Names()
	cells := make([]runner.Cell[faultRow], len(names))
	for i, name := range names {
		name := name
		cells[i] = runner.Cell[faultRow]{
			Key:     "crash/" + name,
			SeedKey: "crash-workload",
			Run: func(cellSeed int64) (faultRow, error) {
				return runFaultCell(sweepCell{
					inst: inst, heuristic: name, seed: cellSeed, tel: opts.Telemetry,
					plan: func() fault.Plan {
						return fault.Plan{
							Crashes: fault.CrashSchedule{Events: []fault.CrashEvent{
								{V: 0, At: crashAt, RecoverAt: -1},
							}},
						}
					},
				})
			},
		}
	}
	rows, err := mapWithJournal(seed, cells, opts)
	if err != nil {
		return fmt.Errorf("crashed source: %w", err)
	}
	for i, name := range names {
		r := rows[i]
		em.Emit(name, r.Outcome, r.Steps, fmt.Sprintf("%.0f%%", r.Delivered*100),
			r.Unsatisfiable, r.Moves, r.Lost)
	}
	em.Note("the source crash-stops holding every token not yet pushed out; those become provably undeliverable")
	em.Note("'graceful' rows terminated via live-holder reachability detection, well before the m(n-1) horizon and without an IdlePatience stall")
	return nil
}

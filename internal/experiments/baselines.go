package experiments

import (
	"fmt"

	"ocd/internal/core"
	"ocd/internal/fault"
	"ocd/internal/runner"
	"ocd/internal/sim"
	"ocd/internal/telemetry"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

func init() {
	Register(Spec{
		Name:       "architectures",
		Doc:        "§2 architectures: tree and striped-forest overlays vs the paper's mesh heuristics",
		SeedPolicy: SeedDerived,
		Params: []Param{
			{Name: "n", Kind: Int, Default: "30", Doc: "number of vertices", Check: checkPositive},
			{Name: "tokens", Kind: Int, Default: "24", Doc: "number of tokens in the file", Check: checkPositive},
			{Name: "seed", Kind: Int64, Default: "1", Doc: "random seed"},
		},
		Smoke: map[string]string{"n": "12", "tokens": "6"},
		Run: func(a Args, em *Emitter) error {
			return architectureComparisonImpl(a.Int("n"), a.Int("tokens"), a.Int64("seed"), em)
		},
	})
}

// architectureComparisonImpl reproduces the §2 narrative as an experiment:
// the tree and striped-forest architectures the paper surveys (Overcast,
// SplitStream/CoopNet) versus its mesh heuristics, on the single-file
// workload. Trees conserve bandwidth exactly (every token crosses each
// tree edge once); meshes exploit cross-links to finish faster.
func architectureComparisonImpl(n, tokens int, seed int64, em *Emitter) error {
	g, err := topology.Random(n, topology.DefaultCaps, seed)
	if err != nil {
		return err
	}
	inst := workload.SingleFile(g, tokens)
	em.Head(fmt.Sprintf("§2 architectures vs mesh heuristics (n=%d, %d tokens)", n, tokens),
		"architecture", "moves", "bandwidth", "pruned-bw",
		"bw-optimal")
	bwLB := core.BandwidthLowerBound(inst, nil)

	names := []string{"tree", "forest-2", "forest-4", "local", "global", "random"}
	type archCell struct {
		steps, moves, pruned int
	}
	cells := make([]runner.Cell[archCell], len(names))
	for i, name := range names {
		name := name
		cells[i] = runner.Cell[archCell]{
			Key:     "arch/" + name,
			SeedKey: "arch-workload",
			Run: func(cellSeed int64) (archCell, error) {
				f, err := NamedStrategy(name, fault.Plan{})
				if err != nil {
					return archCell{}, err
				}
				res, err := sim.Run(inst, f, sim.Options{Seed: cellSeed, Prune: true})
				telemetry.RecordRun(em.Telemetry(), "sim", res)
				if err != nil {
					return archCell{}, fmt.Errorf("architecture %s: %w", name, err)
				}
				return archCell{steps: res.Steps, moves: res.Moves, pruned: res.PrunedMoves}, nil
			},
		}
	}
	results, err := runner.Map(seed, cells, runner.Options{Metrics: telemetry.NewRunnerMetrics(em.Telemetry())})
	if err != nil {
		return err
	}
	for i, res := range results {
		em.Emit(names[i], res.steps, res.moves, res.pruned, res.moves == bwLB)
	}
	em.Note("§2: spanning trees were the traditional topology, meshes came into favor for speed")
	em.Note("trees hit the bandwidth lower bound exactly; meshes trade duplicate-free delivery for parallel paths")
	return nil
}

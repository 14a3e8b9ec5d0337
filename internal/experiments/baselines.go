package experiments

import (
	"fmt"

	"ocd/internal/baselines"
	"ocd/internal/core"
	"ocd/internal/heuristics"
	"ocd/internal/runner"
	"ocd/internal/sim"
	"ocd/internal/telemetry"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

func init() {
	Register(Spec{
		Name:       "architectures",
		Facade:     "ExperimentArchitectures",
		Doc:        "§2 architectures: tree and striped-forest overlays vs the paper's mesh heuristics",
		SeedPolicy: SeedDerived,
		Params: []Param{
			{Name: "n", Kind: Int, Default: 30, Doc: "number of vertices", Check: checkPositive},
			{Name: "tokens", Kind: Int, Default: 24, Doc: "number of tokens in the file", Check: checkPositive},
			{Name: "seed", Kind: Int64, Default: int64(1), Doc: "random seed"},
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

	type entry struct {
		name    string
		factory sim.Factory
	}
	entries := []entry{
		{"tree", baselines.Tree},
		{"forest-2", baselines.Forest(2)},
		{"forest-4", baselines.Forest(4)},
		{"local", heuristics.Local},
		{"global", heuristics.Global},
		{"random", heuristics.Random},
	}
	type archCell struct {
		steps, moves, pruned int
	}
	cells := make([]runner.Cell[archCell], len(entries))
	for i, e := range entries {
		e := e
		cells[i] = runner.Cell[archCell]{
			Key:     "arch/" + e.name,
			SeedKey: "arch-workload",
			Run: func(cellSeed int64) (archCell, error) {
				res, err := sim.Run(inst, e.factory, sim.Options{Seed: cellSeed, Prune: true})
				if err != nil {
					return archCell{}, fmt.Errorf("architecture %s: %w", e.name, err)
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
		em.Emit(entries[i].name, res.steps, res.moves, res.pruned, res.moves == bwLB)
	}
	em.Note("§2: spanning trees were the traditional topology, meshes came into favor for speed")
	em.Note("trees hit the bandwidth lower bound exactly; meshes trade duplicate-free delivery for parallel paths")
	return nil
}

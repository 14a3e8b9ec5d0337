package experiments

import (
	"fmt"

	"ocd/internal/heuristics"
	"ocd/internal/locd"
	"ocd/internal/runner"
	"ocd/internal/sim"
	"ocd/internal/telemetry"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

func init() {
	Register(Spec{
		Name:       "protocol-comparison",
		Doc:        "§4.1: idealized instant-aggregate Local vs the message-passing protocol realization",
		SeedPolicy: SeedDerived,
		Params: []Param{
			{Name: "sizes", Kind: Ints, Default: "16,32,64", Doc: "graph sizes to sweep", Check: checkAll(checkNonEmpty, checkPositive)},
			{Name: "tokens", Kind: Int, Default: "16", Doc: "number of tokens in the file", Check: checkPositive},
			{Name: "seed", Kind: Int64, Default: "1", Doc: "random seed"},
		},
		Smoke: map[string]string{"sizes": "12", "tokens": "6"},
		Run: func(a Args, em *Emitter) error {
			return protocolComparisonImpl(a.Ints("sizes"), a.Int("tokens"), a.Int64("seed"), em)
		},
	})
}

// protocolComparisonImpl quantifies the price of honest knowledge: the
// message-passing realization of the Local heuristic (every vertex learns
// only through per-turn neighbor gossip, §4.1) versus the idealized
// instant-aggregate version §5.1 assumes. The extra turns stay in the
// order of the knowledge diameter — the propagation delay the idealized
// model hides.
func protocolComparisonImpl(sizes []int, tokens int, seed int64, em *Emitter) error {
	em.Head("§4.1/§5.1: idealized Local vs message-passing protocol Local",
		"n", "diameter", "ideal-moves", "protocol-moves", "extra",
		"ideal-bw", "protocol-bw")
	// Each cell owns one graph size end to end: it builds the graph, runs
	// the idealized and the protocol variant on the same seed, and returns
	// the whole row.
	type protoCell struct {
		diameter               int
		idealSteps, protoSteps int
		idealMoves, protoMoves int
	}
	cells := make([]runner.Cell[protoCell], len(sizes))
	for i, n := range sizes {
		n := n
		cells[i] = runner.Cell[protoCell]{
			Key: fmt.Sprintf("n%d", n),
			Run: func(cellSeed int64) (protoCell, error) {
				g, err := topology.Random(n, topology.DefaultCaps, cellSeed)
				if err != nil {
					return protoCell{}, err
				}
				inst := workload.SingleFile(g, tokens)
				ideal, err := sim.Run(inst, heuristics.Local, sim.Options{Seed: cellSeed})
				telemetry.RecordRun(em.Telemetry(), "sim", ideal)
				if err != nil {
					return protoCell{}, fmt.Errorf("ideal n=%d: %w", n, err)
				}
				proto, err := sim.Run(inst, heuristics.ProtocolLocal(nil), sim.Options{
					Seed: cellSeed, IdlePatience: locd.KnowledgeDiameter(g) + 2,
				})
				telemetry.RecordRun(em.Telemetry(), "sim", proto)
				if err != nil {
					return protoCell{}, fmt.Errorf("protocol n=%d: %w", n, err)
				}
				return protoCell{
					diameter:   locd.KnowledgeDiameter(g),
					idealSteps: ideal.Steps, protoSteps: proto.Steps,
					idealMoves: ideal.Moves, protoMoves: proto.Moves,
				}, nil
			},
		}
	}
	results, err := runner.Map(seed, cells, runner.Options{Metrics: telemetry.NewRunnerMetrics(em.Telemetry())})
	if err != nil {
		return err
	}
	for i, res := range results {
		em.Emit(sizes[i], res.diameter, res.idealSteps, res.protoSteps,
			res.protoSteps-res.idealSteps, res.idealMoves, res.protoMoves)
	}
	em.Note("the protocol variant learns only via per-turn neighbor gossip; its first turn is necessarily idle")
	em.Note("extra turns are the §4.1 knowledge-propagation delay the idealized aggregates hide")
	return nil
}

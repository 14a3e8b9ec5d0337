package experiments

import (
	"fmt"
	"math/rand"

	"ocd/internal/core"
	"ocd/internal/exact"
	"ocd/internal/npc"
)

func init() {
	Register(Spec{
		Name:       "figure7",
		Facade:     "ExperimentFigure7",
		Doc:        "Figure 7 / Theorem 5: the Dominating Set → FOCD reduction on random graphs",
		SeedPolicy: SeedDerived,
		Params: []Param{
			{Name: "graphs", Kind: Int, Default: 3, Doc: "number of random graphs", Check: checkPositive},
			{Name: "n", Kind: Int, Default: 6, Doc: "vertices per graph", Check: checkPositive},
			{Name: "edge-p", Kind: Float, Default: 0.4, Doc: "edge probability in [0,1]", Check: checkUnit},
			{Name: "seed", Kind: Int64, Default: int64(1), Doc: "random seed for the graph stream"},
		},
		Smoke: map[string]string{"graphs": "1", "n": "5"},
		Run: func(a Args, em *Emitter) error {
			return figure7Impl(a.Int("graphs"), a.Int("n"), a.Float("edge-p"), a.Int64("seed"), em)
		},
	})
}

// figure7Impl exercises the appendix reduction (Theorem 5): for random
// small undirected graphs and every k, it checks that G has a dominating
// set of size ≤ k if and only if the reduced FOCD instance completes in two
// timesteps. The forward direction is certified constructively (the proof's
// two-step schedule is built and validated); the reverse direction is
// certified with the exact FOCD solver.
func figure7Impl(graphs, n int, edgeP float64, seed int64, em *Emitter) error {
	em.Head("Figure 7: Dominating Set -> FOCD reduction (Theorem 5)",
		"graph", "n", "edges", "minDS", "k", "ds<=k", "focd-tau", "agree")
	rng := rand.New(rand.NewSource(seed))
	for gi := 0; gi < graphs; gi++ {
		ug := randomUGraph(rng, n, edgeP)
		minDS, err := npc.MinDominatingSet(ug)
		if err != nil {
			return err
		}
		for k := 0; k <= n; k++ {
			red, err := npc.Reduce(ug, k)
			if err != nil {
				return err
			}
			hasDS := len(minDS) <= k
			var tau int
			if hasDS {
				// Constructive direction: build and validate the proof's
				// two-step schedule.
				sched, err := red.ScheduleFromDominatingSet(ug, minDS)
				if err != nil {
					return fmt.Errorf("graph %d k=%d: %w", gi, k, err)
				}
				if verr := core.Validate(red.Inst, sched); verr != nil {
					return fmt.Errorf("graph %d k=%d: constructed schedule invalid: %w", gi, k, verr)
				}
				tau = sched.Makespan()
			} else {
				// Soundness direction: the exact solver must need > 2 steps.
				sched, err := exact.SolveFOCD(red.Inst, exact.Options{MaxNodes: 2_000_000})
				if err != nil {
					return fmt.Errorf("graph %d k=%d focd: %w", gi, k, err)
				}
				tau = sched.Makespan()
			}
			agree := hasDS == (tau <= 2)
			em.Emit(gi, n, len(ug.Edges), len(minDS), k, hasDS, tau, agree)
		}
	}
	em.Note("Theorem 5: dominating set of size <= k exists iff the reduced FOCD instance completes in 2 timesteps")
	return nil
}

func randomUGraph(rng *rand.Rand, n int, p float64) *npc.UGraph {
	g := &npc.UGraph{N: n}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.Edges = append(g.Edges, [2]int{u, v})
			}
		}
	}
	return g
}

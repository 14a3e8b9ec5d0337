// Package competitive realizes §4 of the paper: the Local-knowledge
// Overlay Content Distribution (LOCD) setting, the Theorem 4 family showing
// that no c-competitive online algorithm exists for FOCD, and the §4.2
// "propagate knowledge, then plan" oracle that is always within an additive
// diameter of the offline optimum.
package competitive

import (
	"fmt"

	"ocd/internal/core"
	"ocd/internal/graph"
	"ocd/internal/heuristics"
	"ocd/internal/locd"
	"ocd/internal/sim"
	"ocd/internal/topology"
)

// AdversarialInstance builds the Theorem 4 family: a bidirectional path of
// length pathLen with all arcs at capacity cap; vertex 0 (the sender) holds
// m tokens, and the far endpoint wants exactly one of them — which one, a
// knowledge-free online algorithm cannot know. The offline optimum delivers
// the wanted token in exactly pathLen timesteps.
func AdversarialInstance(pathLen, m, wantedToken, cap int) (*core.Instance, error) {
	if pathLen < 1 || m < 1 || wantedToken < 0 || wantedToken >= m {
		return nil, fmt.Errorf("competitive: bad family parameters L=%d m=%d t=%d", pathLen, m, wantedToken)
	}
	g, err := topology.Line(pathLen+1, cap)
	if err != nil {
		return nil, err
	}
	inst := core.NewInstance(g, m)
	inst.Have[0].AddRange(0, m)
	inst.Want[pathLen].Add(wantedToken)
	return inst, nil
}

// RatioPoint is one measurement of the online/offline makespan ratio.
type RatioPoint struct {
	Decoys  int
	PathLen int
	// Online is the worst-case (over the adversary's choice of wanted
	// token) makespan of the knowledge-free online algorithm.
	Online int
	// Offline is the prescient optimum (= PathLen).
	Offline int
	// Ratio is Online / Offline.
	Ratio float64
}

// WorstCaseRatio measures the competitive ratio of the knowledge-free
// Round Robin algorithm on the Theorem 4 family. Round Robin's behaviour
// is independent of the want sets, so the adversary simply picks the token
// that arrives at the receiver last; we run once with every token wanted
// and read off the latest arrival. The ratio grows without bound in the
// number of decoy tokens, demonstrating Theorem 4.
func WorstCaseRatio(pathLen, m, cap int) (RatioPoint, error) {
	inst, err := AdversarialInstance(pathLen, m, 0, cap)
	if err != nil {
		return RatioPoint{}, err
	}
	// Make the far endpoint want everything: Round Robin ignores wants,
	// and completion then records the last token's arrival step.
	inst.Want[pathLen].Clear()
	inst.Want[pathLen].AddRange(0, m)
	res, err := sim.Run(inst, heuristics.RoundRobin, sim.Options{Seed: 1})
	if err != nil {
		return RatioPoint{}, err
	}
	if !res.Completed {
		return RatioPoint{}, fmt.Errorf("competitive: round robin did not complete within horizon")
	}
	return RatioPoint{
		Decoys:  m - 1,
		PathLen: pathLen,
		Online:  res.Steps,
		Offline: pathLen,
		Ratio:   float64(res.Steps) / float64(pathLen),
	}, nil
}

// Oracle wraps any strategy with the §4.2 construction: stay idle until
// complete knowledge of the initial graph state has propagated to every
// vertex (the §4.1 knowledge model lets information travel both ways along
// every edge, so this is the bidirectional knowledge diameter), then follow
// a globally planned strategy. Its makespan is therefore within an additive
// diameter of the optimal offline schedule, the best general guarantee
// available (§4.2).
func Oracle(inner sim.Factory) sim.Factory {
	// The facade name composes as oracle(<inner>) — experiment tables key
	// on it.
	return sim.WrapStrategy(inner, func(inst *core.Instance, s sim.Strategy) (sim.Strategy, error) {
		return &oracleStrategy{inner: s, wait: knowledgeWait(inst.G)}, nil
	})
}

type oracleStrategy struct {
	inner sim.Strategy
	wait  int
}

func (o *oracleStrategy) Name() string { return "oracle(" + o.inner.Name() + ")" }

func (o *oracleStrategy) Plan(st *sim.State) []core.Move {
	if st.Step < o.wait {
		return nil // listening phase: knowledge propagates, nothing moves
	}
	return o.inner.Plan(st)
}

// RunOracle executes the oracle wrapper with enough idle patience for its
// listening phase.
func RunOracle(inst *core.Instance, inner sim.Factory, seed int64) (*sim.Result, error) {
	return sim.Run(inst, Oracle(inner), sim.Options{
		Seed:         seed,
		IdlePatience: knowledgeWait(inst.G) + 1,
		Prune:        true,
	})
}

// knowledgeWait is the number of listening steps the oracle needs: the
// knowledge diameter, after which §4.1 exchange has given every vertex
// full knowledge.
func knowledgeWait(g *graph.Graph) int {
	d := locd.KnowledgeDiameter(g)
	if d < 0 {
		return g.N() // disconnected knowledge graph: trivial bound
	}
	return d
}

// Benchmarks regenerating each table/figure of the paper's evaluation at
// benchmark-friendly scale, plus ablations for the design choices called
// out in DESIGN.md. Run everything with:
//
//	go test -bench=. -benchmem .
//
// The full paper-scale figures come from specs/paper-full.json (run it with
// `go run ./cmd/ocdsim -spec specs/paper-full.json -seed 1`); these
// benchmarks exercise the same code paths with smaller parameters so the
// whole suite stays within laptop minutes.
package ocd_test

import (
	"testing"

	"ocd"
)

// benchInstance builds the standard single-file workload used by the
// figure benchmarks.
func benchInstance(b *testing.B, transitStub bool, n, tokens int) *ocd.Instance {
	b.Helper()
	var g *ocd.Graph
	var err error
	if transitStub {
		g, err = ocd.TransitStubTopology(n, ocd.DefaultCaps, 42)
	} else {
		g, err = ocd.RandomTopology(n, ocd.DefaultCaps, 42)
	}
	if err != nil {
		b.Fatal(err)
	}
	return ocd.SingleFile(g, tokens)
}

func benchHeuristics(b *testing.B, inst *ocd.Instance) {
	for _, name := range ocd.Heuristics() {
		name := name
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := ocd.RunHeuristic(inst, name, ocd.RunOptions{Seed: int64(i), Prune: true})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Completed {
					b.Fatal("run incomplete")
				}
			}
		})
	}
}

// BenchmarkFig1Tradeoff regenerates Figure 1: both certified optima on the
// tension gadget via branch-and-bound and the time-indexed ILP.
func BenchmarkFig1Tradeoff(b *testing.B) {
	inst := ocd.Figure1Instance()
	b.Run("focd-bnb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ocd.SolveFOCD(inst, ocd.ExactOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("eocd-bnb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ocd.SolveEOCD(inst, 0, ocd.ExactOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ilp-tau3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := ocd.SolveILP(inst, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig2GraphSizeRandom regenerates the Figure 2 series point at
// n=100 on the random topology (one run per heuristic per iteration).
func BenchmarkFig2GraphSizeRandom(b *testing.B) {
	benchHeuristics(b, benchInstance(b, false, 100, 100))
}

// BenchmarkFig3GraphSizeTransitStub is the Figure 3 counterpart on the
// transit-stub topology.
func BenchmarkFig3GraphSizeTransitStub(b *testing.B) {
	benchHeuristics(b, benchInstance(b, true, 100, 100))
}

// BenchmarkFig4ReceiverDensity regenerates a Figure 4 point: sparse
// receivers, where the bandwidth heuristic's caution pays off.
func BenchmarkFig4ReceiverDensity(b *testing.B) {
	g, err := ocd.RandomTopology(100, ocd.DefaultCaps, 42)
	if err != nil {
		b.Fatal(err)
	}
	inst := ocd.ReceiverDensity(g, 100, 0.3, 7)
	benchHeuristics(b, inst)
}

// BenchmarkFig5NumFiles regenerates a Figure 5 point: 8 files subdivided
// from one source's tokens.
func BenchmarkFig5NumFiles(b *testing.B) {
	g, err := ocd.RandomTopology(100, ocd.DefaultCaps, 42)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := ocd.MultiFile(g, 128, 8)
	if err != nil {
		b.Fatal(err)
	}
	benchHeuristics(b, inst)
}

// BenchmarkFig6MultiSender regenerates a Figure 6 point: the same
// subdivision with random per-file sources.
func BenchmarkFig6MultiSender(b *testing.B) {
	g, err := ocd.RandomTopology(100, ocd.DefaultCaps, 42)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := ocd.MultiSender(g, 128, 8, 11)
	if err != nil {
		b.Fatal(err)
	}
	benchHeuristics(b, inst)
}

// BenchmarkFig7Reduction regenerates the Figure 7 validation: reduce a
// 5-vertex graph and decide FOCD-in-2-steps exactly.
func BenchmarkFig7Reduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := ocd.ExperimentFigure7(1, 5, 0.4, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkThm4Competitive regenerates the Theorem 4 adversarial family
// measurement.
func BenchmarkThm4Competitive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ocd.ExperimentTheorem4(1, []int{1, 8, 64}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkILPvsBnB regenerates the §3.4 solver cross-check.
func BenchmarkILPvsBnB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ocd.ExperimentILPvsBnB(2, 4, 2, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md "key design decisions") ---

// BenchmarkPrune measures the §5.1 pruning post-pass on a flooded
// schedule — the post-pass design keeps the hot simulation loop free of
// bookkeeping.
func BenchmarkPrune(b *testing.B) {
	inst := benchInstance(b, false, 100, 100)
	res, err := ocd.RunHeuristic(inst, "random", ocd.RunOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ocd.Prune(inst, res.Schedule)
	}
}

// BenchmarkGlobalGreedy isolates the Global heuristic's greedy coordinated
// planner (the paper trades exhaustive diversity matching for this greedy
// sweep to function at scale).
func BenchmarkGlobalGreedy(b *testing.B) {
	inst := benchInstance(b, false, 200, 100)
	for i := 0; i < b.N; i++ {
		res, err := ocd.RunHeuristic(inst, "global", ocd.RunOptions{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatal("incomplete")
		}
	}
}

// BenchmarkLowerBounds measures the §5.1 bound estimators that gate the
// exact solvers' pruning.
func BenchmarkLowerBounds(b *testing.B) {
	inst := benchInstance(b, false, 200, 100)
	b.Run("makespan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = ocd.MakespanLowerBound(inst)
		}
	})
	b.Run("bandwidth", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = ocd.BandwidthLowerBound(inst)
		}
	})
}

// BenchmarkSteinerSerial measures the §3.3 serial Steiner schedule that
// anchors the bandwidth-optimality discussion.
func BenchmarkSteinerSerial(b *testing.B) {
	g, err := ocd.RandomTopology(60, ocd.DefaultCaps, 42)
	if err != nil {
		b.Fatal(err)
	}
	inst := ocd.SingleFile(g, 16)
	for i := 0; i < b.N; i++ {
		if _, err := ocd.SteinerSchedule(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynamicModels measures the §6 changing-conditions engine under
// each capacity model.
func BenchmarkDynamicModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ocd.ExperimentDynamicConditions(20, 12, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncoding measures the §6 coding-under-loss comparison.
func BenchmarkEncoding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ocd.ExperimentLossCoding(12, 32, 0.3, []float64{1.5}, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnderlay measures the §6 shared-physical-links comparison.
func BenchmarkUnderlay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ocd.ExperimentUnderlay(60, 8, 16, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKnowledgeDelay measures the §5.1 staleness ablation.
func BenchmarkKnowledgeDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ocd.ExperimentKnowledgeDelay(20, 16, 4, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTradeoffCurve measures the §3.4 hybrid-objective sweep on the
// Figure 1 gadget.
func BenchmarkTradeoffCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ocd.ExperimentTradeoffCurve(ocd.Figure1Instance()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolLocal measures the message-passing Local realization
// (per-turn gossip of versioned knowledge tables).
func BenchmarkProtocolLocal(b *testing.B) {
	inst := benchInstance(b, false, 100, 50)
	for i := 0; i < b.N; i++ {
		res, err := ocd.RunStrategy(inst, ocd.ProtocolLocalFactory(),
			ocd.RunOptions{Seed: int64(i), IdlePatience: 10})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatal("incomplete")
		}
	}
}

// BenchmarkArchitectures measures the §2 tree/forest baselines.
func BenchmarkArchitectures(b *testing.B) {
	inst := benchInstance(b, false, 100, 50)
	b.Run("tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ocd.RunStrategy(inst, ocd.TreeFactory(), ocd.RunOptions{Seed: int64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("forest-4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ocd.RunStrategy(inst, ocd.ForestFactory(4), ocd.RunOptions{Seed: int64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFlowBound measures the min-cut makespan bound (§2 relaxation).
func BenchmarkFlowBound(b *testing.B) {
	inst := benchInstance(b, false, 60, 30)
	for i := 0; i < b.N; i++ {
		if _, err := ocd.FlowMakespanLowerBound(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopologyGeneration measures both graph generators.
func BenchmarkTopologyGeneration(b *testing.B) {
	b.Run("random-200", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ocd.RandomTopology(200, ocd.DefaultCaps, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("transit-stub-200", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ocd.TransitStubTopology(200, ocd.DefaultCaps, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package exact

import (
	"fmt"
	"testing"

	"ocd/internal/workload"
)

// FuzzSolveEOCDMatchesReference draws one instance with
// workload.RandomTinyInstances from a fuzzed seed, with n 2–5 and m 1–3,
// and requires SolveEOCD to agree with the reference search at horizons 0
// (the Theorem 1 horizon), τ* and τ*+1 under node budgets 5, 20, 50 and
// the default: the same error text or the same schedule move for move,
// and the same node count. Under the default budget it must also agree with the unpruned
// oracle on the error class and the move count.
func FuzzSolveEOCDMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2))
	f.Add(int64(2), uint8(2), uint8(1))
	f.Add(int64(7), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, n, m uint8) {
		inst := workload.RandomTinyInstances(seed, 1, 2+int(n%4), 1+int(m%3))[0]
		horizons := []int{0}
		if fast, err := SolveFOCD(inst, Options{}); err == nil {
			horizons = append(horizons, fast.Makespan(), fast.Makespan()+1)
		}
		for _, h := range horizons {
			for _, budget := range []int{5, 20, 50, 0} {
				opts := Options{MaxNodes: budget}
				got, nodes, err := solveEOCD(inst, h, opts)
				want, refNodes, refErr := refSolveEOCDNodes(inst, h, opts)
				label := fmt.Sprintf("seed %d n %d m %d eocd@%d budget %d", seed, inst.N(), inst.NumTokens, h, budget)
				sameOutcome(t, label, got, want, err, refErr)
				if nodes != refNodes {
					t.Fatalf("%s: %d nodes, reference %d", label, nodes, refNodes)
				}
				if budget == 0 {
					oracle, oracleErr := oracleSolveEOCD(inst, h, opts)
					sameValue(t, label, got, oracle, err, oracleErr)
				}
			}
		}
	})
}

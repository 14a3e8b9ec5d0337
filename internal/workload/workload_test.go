package workload

import (
	"fmt"
	"hash/fnv"
	"testing"

	"ocd/internal/core"
	"ocd/internal/exact"
	"ocd/internal/topology"
)

func TestSingleFile(t *testing.T) {
	g, err := topology.Ring(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst := SingleFile(g, 7)
	if err := inst.Check(); err != nil {
		t.Fatal(err)
	}
	if inst.Have[0].Count() != 7 {
		t.Error("source does not hold the full file")
	}
	for v := 1; v < 5; v++ {
		if inst.Want[v].Count() != 7 {
			t.Errorf("vertex %d wants %d tokens", v, inst.Want[v].Count())
		}
	}
	if inst.Want[0].Count() != 0 {
		t.Error("source wants its own file")
	}
}

func TestReceiverDensityExtremes(t *testing.T) {
	g, err := topology.Ring(20, 2)
	if err != nil {
		t.Fatal(err)
	}
	full := ReceiverDensity(g, 5, 1.0, 3)
	receivers := 0
	for v := 1; v < 20; v++ {
		if full.Want[v].Count() > 0 {
			receivers++
		}
	}
	if receivers != 19 {
		t.Errorf("threshold 1.0: %d receivers, want 19", receivers)
	}
	// Threshold 0 still guarantees at least one receiver.
	sparse := ReceiverDensity(g, 5, 0.0, 3)
	receivers = 0
	for v := 1; v < 20; v++ {
		if sparse.Want[v].Count() > 0 {
			receivers++
		}
	}
	if receivers != 1 {
		t.Errorf("threshold 0: %d receivers, want exactly 1", receivers)
	}
}

func TestReceiverDensityDeterministic(t *testing.T) {
	g, err := topology.Ring(20, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := ReceiverDensity(g, 5, 0.5, 9)
	b := ReceiverDensity(g, 5, 0.5, 9)
	for v := 0; v < 20; v++ {
		if !a.Want[v].Equal(b.Want[v]) {
			t.Fatalf("vertex %d wants differ across identical seeds", v)
		}
	}
}

func TestMultiFilePartition(t *testing.T) {
	g, err := topology.Ring(9, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := MultiFile(g, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Check(); err != nil {
		t.Fatal(err)
	}
	// 8 receivers in 4 groups of 2; each wants a distinct 2-token file.
	seen := make(map[int]int) // token → wanting receivers
	for v := 1; v < 9; v++ {
		if got := inst.Want[v].Count(); got != 2 {
			t.Errorf("vertex %d wants %d tokens, want 2", v, got)
		}
		inst.Want[v].ForEach(func(tok int) bool {
			seen[tok]++
			return true
		})
	}
	for tok := 0; tok < 8; tok++ {
		if seen[tok] != 2 {
			t.Errorf("token %d wanted by %d receivers, want 2", tok, seen[tok])
		}
	}
}

func TestMultiFileErrors(t *testing.T) {
	g, err := topology.Ring(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MultiFile(g, 8, 3); err == nil {
		t.Error("non-dividing file count accepted")
	}
	if _, err := MultiFile(g, 8, 8); err == nil {
		t.Error("more files than receivers accepted")
	}
	if _, err := MultiFile(g, 8, 0); err == nil {
		t.Error("zero files accepted")
	}
}

func TestMultiSenderSourcesDoNotWant(t *testing.T) {
	g, err := topology.Ring(9, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := MultiSender(g, 8, 4, 17)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Check(); err != nil {
		t.Fatal(err)
	}
	// Every file's holder must not want that file.
	for v := 0; v < 9; v++ {
		if inst.Have[v].Intersects(inst.Want[v]) {
			t.Errorf("vertex %d both has and wants tokens %v ∩ %v",
				v, inst.Have[v], inst.Want[v])
		}
	}
	// All 8 tokens are held somewhere.
	total := 0
	for v := 0; v < 9; v++ {
		total += inst.Have[v].Count()
	}
	if total != 8 {
		t.Errorf("held tokens = %d, want 8", total)
	}
}

func TestPointToPoint(t *testing.T) {
	g, err := topology.Line(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	inst := PointToPoint(g, 3, 0, 3)
	if inst.Have[0].Count() != 3 || inst.Want[3].Count() != 3 {
		t.Error("point-to-point layout wrong")
	}
}

func TestFigure1CertifiedOptima(t *testing.T) {
	inst := Figure1()
	if err := inst.Check(); err != nil {
		t.Fatal(err)
	}
	fast, err := exact.SolveFOCD(inst, exact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Makespan() != 2 {
		t.Errorf("min time = %d steps, want 2", fast.Makespan())
	}
	fastCheapest, err := exact.SolveEOCD(inst, 2, exact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fastCheapest.Moves() != 6 {
		t.Errorf("min bandwidth at tau=2 is %d, want 6", fastCheapest.Moves())
	}
	cheap, err := exact.SolveEOCD(inst, 0, exact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cheap.Moves() != 4 || cheap.Makespan() != 3 {
		t.Errorf("min bandwidth = %d moves / %d steps, want 4/3",
			cheap.Moves(), cheap.Makespan())
	}
	if err := core.Validate(inst, cheap); err != nil {
		t.Fatal(err)
	}
}

// TestRandomTinyInstancesShape holds the generator to the shape the exact
// solvers rely on, over seeds 1–10, n = 2–7 and m = 1–3: every instance
// passes Check, is strongly connected and has arc capacities 1–2, and
// every token has one holder and one or two wanters.
func TestRandomTinyInstancesShape(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		for n := 2; n <= 7; n++ {
			for m := 1; m <= 3; m++ {
				for i, inst := range RandomTinyInstances(seed, 20, n, m) {
					label := fmt.Sprintf("seed %d n=%d m=%d #%d", seed, n, m, i)
					if err := inst.Check(); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if inst.N() != n || inst.NumTokens != m {
						t.Fatalf("%s: %d vertices and %d tokens", label, inst.N(), inst.NumTokens)
					}
					if !inst.G.StronglyConnected() {
						t.Fatalf("%s: not strongly connected", label)
					}
					for _, a := range inst.G.Arcs() {
						if a.Cap < 1 || a.Cap > 2 {
							t.Fatalf("%s: arc %d->%d has capacity %d", label, a.From, a.To, a.Cap)
						}
					}
					for tok := 0; tok < m; tok++ {
						holders, wanters := 0, 0
						for v := 0; v < n; v++ {
							if inst.Have[v].Has(tok) {
								holders++
							}
							if inst.Want[v].Has(tok) {
								wanters++
							}
						}
						if holders != 1 || wanters < 1 || wanters > 2 {
							t.Fatalf("%s: token %d has %d holders and %d wanters", label, tok, holders, wanters)
						}
					}
				}
			}
		}
	}
}

// TestRandomTinyInstancesStream pins the first 3,000 instances at n=5,
// m=3, seed 1, the stream the benchmark's solver cells and most pinned
// solver counts come from: the digest folds every arc and every vertex's
// have and want sets, so any change to the draws fails here first.
func TestRandomTinyInstancesStream(t *testing.T) {
	h := fnv.New64a()
	for _, inst := range RandomTinyInstances(1, 3000, 5, 3) {
		fmt.Fprintf(h, "n=%d m=%d\n", inst.N(), inst.NumTokens)
		for _, a := range inst.G.Arcs() {
			fmt.Fprintf(h, "%d>%d:%d\n", a.From, a.To, a.Cap)
		}
		for v := 0; v < inst.N(); v++ {
			fmt.Fprintf(h, "%d have%v want%v\n", v, inst.Have[v].Slice(), inst.Want[v].Slice())
		}
	}
	if got, want := h.Sum64(), uint64(0xd4dd6b7d7c02aec8); got != want {
		t.Errorf("stream digest %016x, want %016x", got, want)
	}
}

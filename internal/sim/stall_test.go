package sim_test

// The stall fence: one stalled run per engine, pinned by the schedule it
// leaves, its rejected and lost counts and its error classification. The
// literals were recorded before the engines shared one run entry, so the
// change of entry provably moves no stalled run by a single move. The one
// stall contract holds for all three: the result is finalized however the
// run stopped.

import (
	"errors"
	"math/rand"
	"testing"

	"ocd/internal/core"
	"ocd/internal/fault"
	"ocd/internal/graph"
	"ocd/internal/sim"
	"ocd/internal/underlay"
)

// oneShot proposes its moves at step 0 and nothing afterwards; err is the
// failure it names through sim.Failer, nil for none.
type oneShot struct {
	moves core.Step
	err   error
}

func (oneShot) Name() string { return "one-shot" }

func (s oneShot) Plan(st *sim.State) []core.Move {
	if st.Step == 0 {
		return s.moves
	}
	return nil
}

func (s oneShot) Err() error { return s.err }

func (s oneShot) factory(*core.Instance, *rand.Rand) (sim.Strategy, error) { return s, nil }

// errGaveUp is the failure the underlay case's strategy names.
var errGaveUp = errors.New("one-shot gave up")

// pathGraph is 0–1–…–(n−1) with capacity c in both directions.
func pathGraph(t *testing.T, n, c int) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1, c); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// singleToken has vertex 0 hold token 0 and vertex n−1 want it.
func singleToken(g *graph.Graph) *core.Instance {
	inst := core.NewInstance(g, 1)
	inst.Have[0].Add(0)
	inst.Want[g.N()-1].Add(0)
	return inst
}

func TestStalledRunPerEngine(t *testing.T) {
	mv := func(from, to, tok int) core.Move { return core.Move{From: from, To: to, Token: tok} }

	// sim.Run: one delivery, one move over a missing arc, then silence.
	simInst := singleToken(pathGraph(t, 3, 1))
	simRes, simErr := sim.Run(simInst, oneShot{moves: core.Step{mv(0, 1, 0), mv(0, 2, 0)}}.factory,
		sim.Options{Seed: 1, IdlePatience: 1})

	// The shared underlay: one delivery, then silence naming a failure.
	net, err := underlay.Build(pathGraph(t, 3, 2), []int{0, 1, 2}, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	netRes, netErr := net.Run(singleToken(net.Overlay), oneShot{moves: core.Step{mv(0, 1, 0)}, err: errGaveUp}.factory,
		sim.Options{Seed: 1, IdlePatience: 2})

	// fault.Run: under total loss the retry wrapper exhausts its attempts.
	faultInst := core.NewInstance(pathGraph(t, 2, 2), 4)
	faultInst.Have[0].AddRange(0, 4)
	faultInst.Want[1].AddRange(0, 4)
	sends := oneShot{moves: core.Step{mv(0, 1, 0), mv(0, 1, 1), mv(0, 1, 2), mv(0, 1, 3)}}
	faultRes, faultErr := fault.Run(faultInst, fault.WithRetry(sends.factory, fault.RetryOptions{MaxAttempts: 3}),
		fault.Plan{Loss: fault.Bernoulli{P: 1, Seed: 1}}, sim.Options{Seed: 2, IdlePatience: 10, MaxSteps: 200})
	var faultBase *sim.Result
	if faultRes != nil {
		faultBase = faultRes.Result
	}

	for _, c := range []struct {
		engine string
		res    *sim.Result
		err    error
		failer error
		// Recorded before the engines shared one run entry.
		hash                   uint64
		length, rejected, lost int
	}{
		{"sim", simRes, simErr, nil, 0x6d5e951da41d98d4, 2, 1, 0},
		{"underlay", netRes, netErr, errGaveUp, 0x7b02e0057ffa07cc, 3, 0, 0},
		{"fault", faultBase, faultErr, fault.ErrRetriesExhausted, 0xcbf76d91c8c4c28d, 15, 8, 8},
	} {
		if c.res == nil {
			t.Fatalf("%s: no result beside %v", c.engine, c.err)
		}
		if got := hashSchedule(c.res.Schedule); got != c.hash || len(c.res.Schedule.Steps) != c.length {
			t.Errorf("%s: schedule hash %016x over %d steps, want %016x over %d",
				c.engine, got, len(c.res.Schedule.Steps), c.hash, c.length)
		}
		if c.res.Rejected != c.rejected || c.res.Lost != c.lost {
			t.Errorf("%s: rejected %d lost %d, want %d and %d", c.engine, c.res.Rejected, c.res.Lost, c.rejected, c.lost)
		}
		if c.res.Completed || c.res.Steps != len(c.res.Schedule.Steps) || c.res.Moves != c.res.Schedule.Moves()+c.res.Lost {
			t.Errorf("%s: stalled result not finalized: completed=%v steps=%d moves=%d over %d steps, %d delivered, %d lost",
				c.engine, c.res.Completed, c.res.Steps, c.res.Moves, len(c.res.Schedule.Steps), c.res.Schedule.Moves(), c.res.Lost)
		}
		if !errors.Is(c.err, sim.ErrStalled) {
			t.Errorf("%s: want a stall, got %v", c.engine, c.err)
		}
		if c.failer != nil && !errors.Is(c.err, c.failer) {
			t.Errorf("%s: stall error %v dropped the strategy's failure %v", c.engine, c.err, c.failer)
		}
	}
}

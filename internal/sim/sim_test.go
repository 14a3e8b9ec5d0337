package sim

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"ocd/internal/core"
	"ocd/internal/graph"
	"ocd/internal/tokenset"
)

// lineInstance is 0→1→…→n−1 with capacity c; vertex 0 holds m tokens,
// the tail wants them all.
func lineInstance(t *testing.T, n, m, c int) *core.Instance {
	t.Helper()
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddArc(i, i+1, c); err != nil {
			t.Fatal(err)
		}
	}
	inst := core.NewInstance(g, m)
	inst.Have[0].AddRange(0, m)
	inst.Want[n-1].AddRange(0, m)
	return inst
}

// pusher is a minimal correct strategy: every vertex sends every useful
// token to each successor up to capacity.
type pusher struct{}

func (pusher) Name() string { return "pusher" }

func (pusher) Plan(st *State) []core.Move {
	var moves []core.Move
	for u := 0; u < st.Inst.N(); u++ {
		for _, a := range st.Inst.G.Out(u) {
			sent := 0
			st.Possess[u].ForEach(func(tok int) bool {
				if sent >= a.Cap {
					return false
				}
				if !st.Possess[a.To].Has(tok) {
					moves = append(moves, core.Move{From: u, To: a.To, Token: tok})
					sent++
				}
				return true
			})
		}
	}
	return moves
}

func pusherFactory(_ *core.Instance, _ *rand.Rand) (Strategy, error) {
	return pusher{}, nil
}

func TestRunCompletesAndValidates(t *testing.T) {
	inst := lineInstance(t, 4, 3, 2)
	res, err := Run(inst, pusherFactory, Options{Seed: 1, Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	if err := core.Validate(inst, res.Schedule); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	// 3 tokens over 3 hops at capacity 2: steps = 3 hops + 1 extra for the
	// second batch ≥ 4; just sanity-check metrics agree with the schedule.
	if res.Steps != res.Schedule.Makespan() || res.Moves != res.Schedule.Moves() {
		t.Error("result metrics disagree with schedule")
	}
	if res.PrunedMoves == 0 || res.PrunedMoves > res.Moves {
		t.Errorf("pruned moves %d out of range (moves %d)", res.PrunedMoves, res.Moves)
	}
	if res.Rejected != 0 {
		t.Errorf("correct strategy had %d rejected moves", res.Rejected)
	}
}

// violator proposes moves that break possession and capacity; the engine
// must clip them and count rejections.
type violator struct{}

func (violator) Name() string { return "violator" }

func (violator) Plan(st *State) []core.Move {
	return []core.Move{
		{From: 1, To: 2, Token: 0},  // vertex 1 has nothing on step 0
		{From: 0, To: 1, Token: 0},  // fine
		{From: 0, To: 1, Token: 0},  // duplicate but within capacity 2
		{From: 0, To: 1, Token: 99}, // token out of range
		{From: 0, To: 2, Token: 0},  // arc does not exist
	}
}

func TestRunRejectsIllegalMoves(t *testing.T) {
	inst := lineInstance(t, 3, 1, 2)
	res, err := Run(inst, func(*core.Instance, *rand.Rand) (Strategy, error) {
		return violator{}, nil
	}, Options{Seed: 1})
	// The violator eventually completes: its legal move is delivered each
	// step and vertex 1 starts sending once it holds the token... it never
	// sends 1→2 legally? It always proposes (1,2,0): once vertex 1 holds
	// token 0 that move becomes legal.
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("violator run did not complete")
	}
	if res.Rejected == 0 {
		t.Error("no rejected moves counted")
	}
	if err := core.Validate(inst, res.Schedule); err != nil {
		t.Fatalf("engine emitted invalid schedule: %v", err)
	}
}

// silent never proposes anything.
type silent struct{}

func (silent) Name() string            { return "silent" }
func (silent) Plan(*State) []core.Move { return nil }

func TestRunStallDetection(t *testing.T) {
	inst := lineInstance(t, 3, 1, 1)
	_, err := Run(inst, func(*core.Instance, *rand.Rand) (Strategy, error) {
		return silent{}, nil
	}, Options{Seed: 1})
	if !errors.Is(err, ErrStalled) {
		t.Errorf("want ErrStalled, got %v", err)
	}
}

// lazy idles for `wait` steps, then behaves like pusher.
type lazy struct {
	wait int
}

func (l *lazy) Name() string { return "lazy" }

func (l *lazy) Plan(st *State) []core.Move {
	if st.Step < l.wait {
		return nil
	}
	return pusher{}.Plan(st)
}

func TestRunIdlePatience(t *testing.T) {
	inst := lineInstance(t, 3, 1, 1)
	factory := func(*core.Instance, *rand.Rand) (Strategy, error) {
		return &lazy{wait: 3}, nil
	}
	if _, err := Run(inst, factory, Options{Seed: 1, IdlePatience: 1}); !errors.Is(err, ErrStalled) {
		t.Errorf("patience 1 should stall, got %v", err)
	}
	res, err := Run(inst, factory, Options{Seed: 1, IdlePatience: 3})
	if err != nil {
		t.Fatalf("patience 3 failed: %v", err)
	}
	if !res.Completed {
		t.Error("lazy run did not complete")
	}
	// Idle steps count toward the makespan.
	if res.Steps != 3+2 {
		t.Errorf("makespan = %d, want 5 (3 idle + 2 hops)", res.Steps)
	}
}

func TestRunAlreadyDone(t *testing.T) {
	inst := lineInstance(t, 3, 1, 1)
	inst.Want[2].Clear() // nobody wants anything
	res, err := Run(inst, pusherFactory, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Steps != 0 || res.Moves != 0 {
		t.Errorf("trivially-done run: %+v", res)
	}
}

func TestRunMaxStepsBound(t *testing.T) {
	inst := lineInstance(t, 5, 1, 1)
	res, err := Run(inst, pusherFactory, Options{Seed: 1, MaxSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Error("completed despite tiny step budget")
	}
	if res.Steps > 2 {
		t.Errorf("ran %d steps, limit 2", res.Steps)
	}
}

func TestRunRejectsBrokenInstance(t *testing.T) {
	inst := lineInstance(t, 3, 1, 1)
	inst.Have[0].Clear() // wanted token held by nobody
	if _, err := Run(inst, pusherFactory, Options{Seed: 1}); err == nil {
		t.Error("broken instance accepted")
	}
}

func TestStateHelpers(t *testing.T) {
	inst := lineInstance(t, 3, 4, 1)
	inst.Want[1].Add(2)
	st := &State{Inst: inst, Possess: inst.InitialPossession()}
	// One buffer throughout: each call must overwrite what the last left.
	dst := tokenset.New(inst.NumTokens)
	st.MissingInto(1, dst)
	if got := dst.Slice(); len(got) != 1 || got[0] != 2 {
		t.Errorf("MissingInto(1) = %v", got)
	}
	st.LackingInto(0, dst)
	if got := dst.Count(); got != 0 {
		t.Errorf("LackingInto(source) = %d tokens", got)
	}
	st.LackingInto(2, dst)
	if got := dst.Count(); got != 4 {
		t.Errorf("LackingInto(2) = %d, want 4", got)
	}
}

func TestFactoryErrorPropagates(t *testing.T) {
	inst := lineInstance(t, 3, 1, 1)
	_, err := Run(inst, func(*core.Instance, *rand.Rand) (Strategy, error) {
		return nil, errors.New("boom")
	}, Options{Seed: 1})
	if err == nil {
		t.Error("factory error swallowed")
	}
}

// alternateLoss drops every second accepted move: 50% loss.
type alternateLoss struct{ n int }

func (l *alternateLoss) Lost(int, core.Move, int) bool {
	l.n++
	return l.n%2 == 0
}

func TestRunLossModel(t *testing.T) {
	// With 50% loss on a single link, bandwidth includes the lost moves
	// and the recorded schedule still validates (only successful moves
	// are recorded). sim.Run is lossless, so this drives the kernel's
	// loss path directly, as fault.Run does with a plan's Loss model.
	inst := lineInstance(t, 2, 20, 4)
	res, _, reason, err := Exec(inst, pusherFactory, Options{MaxSteps: 500, IdlePatience: 3},
		Engine{Loss: &alternateLoss{}})
	if err != nil {
		t.Fatal(err)
	}
	if reason != StopDone {
		t.Fatalf("stop reason %d, want StopDone", reason)
	}
	if !res.Completed {
		t.Fatal("lossy run incomplete")
	}
	if res.Lost == 0 {
		t.Error("no losses at 50% loss rate")
	}
	if res.Moves != res.Schedule.Moves()+res.Lost {
		t.Errorf("bandwidth accounting: %d != %d + %d",
			res.Moves, res.Schedule.Moves(), res.Lost)
	}
	if err := core.Validate(inst, res.Schedule); err != nil {
		t.Fatalf("lossy schedule invalid: %v", err)
	}
}

func TestRunCustomDone(t *testing.T) {
	// Stop as soon as vertex 1 holds 2 of the 4 tokens (a threshold
	// predicate, the §6 coding hook).
	inst := lineInstance(t, 2, 4, 1)
	res, err := Run(inst, pusherFactory, Options{
		Seed: 1,
		Done: func(in *core.Instance, possess []tokenset.Set) bool {
			return possess[1].Count() >= 2
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("custom-done run incomplete")
	}
	if res.Steps != 2 {
		t.Errorf("steps = %d, want 2 (capacity 1, threshold 2)", res.Steps)
	}
}

// mv is the move from → to carrying tok.
func mv(from, to, tok int) core.Move { return core.Move{From: from, To: to, Token: tok} }

// script proposes its moves at step 0 and nothing afterwards.
type script core.Step

func (script) Name() string { return "script" }

func (s script) Plan(st *State) []core.Move {
	if st.Step == 0 {
		return s
	}
	return nil
}

// TestKernelArcRuns checks that admission, which looks an arc up once per
// run of proposals on one pair, still rejects exactly the moves it must: a
// missing arc after a run, moves around one with an out-of-range token, a
// first move on no pair, and the move over capacity on a run split by
// another arc.
func TestKernelArcRuns(t *testing.T) {
	g := graph.New(4)
	for _, a := range []graph.Arc{{From: 0, To: 1, Cap: 3}, {From: 0, To: 3, Cap: 1}} {
		if err := g.AddArc(a.From, a.To, a.Cap); err != nil {
			t.Fatal(err)
		}
	}
	inst := core.NewInstance(g, 4)
	inst.Have[0].AddRange(0, 4)
	inst.Want[1].AddRange(0, 4)
	for _, tc := range []struct {
		name     string
		proposed script
		accepted core.Step
	}{
		{"missing arc after a run", script{mv(0, 1, 0), mv(0, 1, 1), mv(0, 2, 2)}, core.Step{mv(0, 1, 0), mv(0, 1, 1)}},
		{"run broken by a token", script{mv(0, 1, 0), mv(0, 1, 4), mv(0, 1, 1)}, core.Step{mv(0, 1, 0), mv(0, 1, 1)}},
		{"token then a missing arc", script{mv(0, 1, 0), mv(0, 2, 4), mv(0, 2, 1)}, core.Step{mv(0, 1, 0)}},
		{"missing arc then a token", script{mv(0, 2, 0), mv(0, 1, 4), mv(0, 1, 1)}, core.Step{mv(0, 1, 1)}},
		{"first move (-1, -1)", script{mv(-1, -1, 0), mv(0, 1, 0)}, core.Step{mv(0, 1, 0)}},
		{"first move (0, 0)", script{mv(0, 0, 0), mv(0, 1, 0)}, core.Step{mv(0, 1, 0)}},
		{"capacity across a split run", script{mv(0, 1, 0), mv(0, 1, 1), mv(0, 3, 0), mv(0, 1, 2), mv(0, 1, 3)},
			core.Step{mv(0, 1, 0), mv(0, 1, 1), mv(0, 3, 0), mv(0, 1, 2)}},
	} {
		proposed := tc.proposed
		res, _, reason, err := Exec(inst, func(*core.Instance, *rand.Rand) (Strategy, error) { return proposed, nil },
			Options{MaxSteps: 1, IdlePatience: 1}, Engine{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if reason != StopLimit {
			t.Fatalf("%s: stop reason %d, want StopLimit", tc.name, reason)
		}
		if got, want := res.Rejected, len(tc.proposed)-len(tc.accepted); got != want {
			t.Errorf("%s: rejected %d moves, want %d", tc.name, got, want)
		}
		if len(res.Schedule.Steps) != 1 || !slices.Equal(res.Schedule.Steps[0], tc.accepted) {
			t.Errorf("%s: schedule %v, want one step %v", tc.name, res.Schedule.Steps, tc.accepted)
		}
	}
}

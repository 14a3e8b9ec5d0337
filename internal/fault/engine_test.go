package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ocd/internal/core"
	"ocd/internal/dynamic"
	"ocd/internal/graph"
	"ocd/internal/heuristics"
	"ocd/internal/sim"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

// lineInstance is 0→1→…→n−1 with capacity c; vertex 0 holds m tokens, the
// tail wants them all.
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

// pusher sends every useful token to each successor up to capacity — a
// minimal correct strategy that retries implicitly (it re-sends whatever
// the receiver still lacks).
type pusher struct{}

func (pusher) Name() string { return "pusher" }

func (pusher) Plan(st *sim.State) []core.Move {
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

func pusherFactory(_ *core.Instance, _ *rand.Rand) (sim.Strategy, error) {
	return pusher{}, nil
}

func TestFaultFreePlanMatchesStaticEngine(t *testing.T) {
	inst := lineInstance(t, 4, 3, 2)
	res, err := Run(inst, pusherFactory, Plan{}, sim.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, err := sim.Run(inst, pusherFactory, sim.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Graceful {
		t.Fatalf("fault-free run: completed=%v graceful=%v", res.Completed, res.Graceful)
	}
	if !reflect.DeepEqual(res.Schedule, base.Schedule) {
		t.Error("fault-free plan diverged from the static engine")
	}
	if res.DeliveredFraction != 1 {
		t.Errorf("delivered fraction %v, want 1", res.DeliveredFraction)
	}
}

// TestCrashedSoleHolderTerminatesGracefully is the acceptance scenario:
// the sole holder crash-stops mid-run; the run must end well before the
// Theorem 1 horizon with an explicit unsatisfiable-receivers report and a
// partial delivered fraction — no patience-timeout stall — and identical
// seeds must reproduce the identical faulted schedule.
func TestCrashedSoleHolderTerminatesGracefully(t *testing.T) {
	inst := lineInstance(t, 3, 6, 2)
	plan := Plan{Crashes: CrashSchedule{Events: []CrashEvent{{V: 0, At: 1, RecoverAt: -1}}}}
	opts := sim.Options{Seed: 1, IdlePatience: 50}

	res, err := Run(inst, pusherFactory, plan, opts)
	if err != nil {
		t.Fatalf("graceful termination expected, got error %v", err)
	}
	if res.Completed {
		t.Fatal("run completed despite the source crashing with 4 tokens undelivered")
	}
	if !res.Graceful || res.Liveness != LivenessUnsatisfiable {
		t.Fatalf("graceful=%v liveness=%q, want graceful unsatisfiable", res.Graceful, res.Liveness)
	}
	if res.Steps >= inst.TheoremOneHorizon() {
		t.Errorf("took %d steps, not before the horizon %d", res.Steps, inst.TheoremOneHorizon())
	}
	if len(res.Unsatisfiable) != 1 || res.Unsatisfiable[0].V != 2 {
		t.Fatalf("unsatisfiable receivers = %+v, want vertex 2", res.Unsatisfiable)
	}
	r := res.Unsatisfiable[0]
	if r.Wanted != 6 || r.Got != 2 || r.Undeliverable != 4 {
		t.Errorf("receiver report %+v, want 2/6 delivered with 4 undeliverable", r)
	}
	if want := 2.0 / 6.0; res.DeliveredFraction != want {
		t.Errorf("delivered fraction %v, want %v", res.DeliveredFraction, want)
	}
	if err := core.ValidateConstraints(inst, res.Schedule); err != nil {
		t.Errorf("partial schedule violates static constraints: %v", err)
	}
	if err := Validate(inst, res.Schedule, plan); err != nil {
		t.Errorf("partial schedule fails plan replay: %v", err)
	}

	again, err := Run(inst, pusherFactory, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Schedule, again.Schedule) {
		t.Error("identical seeds produced different faulted schedules")
	}
}

func TestInitialPartitionStopsImmediately(t *testing.T) {
	// 0→1 and 2→3 are separate components; 1 and 3 both want the file
	// held by 0. Receiver 3 is unsatisfiable from step 0; receiver 1 is
	// fine. The run must satisfy 1, then stop gracefully.
	g := graph.New(4)
	if err := g.AddArc(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddArc(2, 3, 2); err != nil {
		t.Fatal(err)
	}
	inst := core.NewInstance(g, 4)
	inst.Have[0].AddRange(0, 4)
	inst.Want[1].AddRange(0, 4)
	inst.Want[3].AddRange(0, 4)

	res, err := Run(inst, pusherFactory, Plan{}, sim.Options{Seed: 1, IdlePatience: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Graceful || res.Completed {
		t.Fatalf("partitioned run: graceful=%v completed=%v", res.Graceful, res.Completed)
	}
	if len(res.Unsatisfiable) != 1 || res.Unsatisfiable[0].V != 3 {
		t.Fatalf("unsatisfiable = %+v, want vertex 3 only", res.Unsatisfiable)
	}
	if res.Unsatisfiable[0].Undeliverable != 4 {
		t.Errorf("undeliverable = %d, want 4", res.Unsatisfiable[0].Undeliverable)
	}
	if want := 0.5; res.DeliveredFraction != want {
		t.Errorf("delivered fraction %v, want %v (vertex 1 satisfied)", res.DeliveredFraction, want)
	}
}

func TestCrashRecoveryKeepStateCompletes(t *testing.T) {
	// The middle vertex goes down for a while with frozen state; the run
	// just takes longer.
	inst := lineInstance(t, 3, 4, 2)
	plan := Plan{
		Crashes:   CrashSchedule{Events: []CrashEvent{{V: 1, At: 1, RecoverAt: 5}}},
		StateLoss: KeepState,
	}
	res, err := Run(inst, pusherFactory, plan, sim.Options{Seed: 1, IdlePatience: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("crash-recovery run did not complete")
	}
	if res.Crashes != 1 || res.DownSteps != 4 {
		t.Errorf("crashes=%d downSteps=%d, want 1 and 4", res.Crashes, res.DownSteps)
	}
	if err := Validate(inst, res.Schedule, plan); err != nil {
		t.Errorf("replay validation: %v", err)
	}
}

func TestStateLossChargesWastedMoves(t *testing.T) {
	inst := lineInstance(t, 3, 4, 2)
	plan := Plan{
		Crashes:   CrashSchedule{Events: []CrashEvent{{V: 1, At: 2, RecoverAt: 3}}},
		StateLoss: DropDownloads,
	}
	res, err := Run(inst, pusherFactory, plan, sim.Options{Seed: 1, IdlePatience: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run did not complete after transient wipe")
	}
	if res.WastedMoves == 0 {
		t.Error("vertex 1 lost downloads but WastedMoves = 0")
	}
	if res.Retransmissions == 0 {
		t.Error("wiped tokens were re-delivered but Retransmissions = 0")
	}
	if err := Validate(inst, res.Schedule, plan); err != nil {
		t.Errorf("replay validation: %v", err)
	}
}

func TestDropAllMakesSoleTokensExtinct(t *testing.T) {
	// Vertex 0 is the sole holder and crashes with full state loss, then
	// recovers empty: the tokens are extinct even though every vertex is
	// eventually up. The run must detect extinction and stop gracefully.
	inst := lineInstance(t, 3, 4, 1)
	plan := Plan{
		Crashes:   CrashSchedule{Events: []CrashEvent{{V: 0, At: 1, RecoverAt: 3}}},
		StateLoss: DropAll,
	}
	res, err := Run(inst, pusherFactory, plan, sim.Options{Seed: 1, IdlePatience: 30})
	if err != nil {
		t.Fatalf("expected graceful stop, got %v", err)
	}
	if res.Completed {
		t.Fatal("completed despite token extinction")
	}
	if !res.Graceful {
		t.Fatal("extinction not detected; run was not graceful")
	}
	if res.DeliveredFraction >= 1 || res.DeliveredFraction < 0 {
		t.Errorf("delivered fraction %v out of range", res.DeliveredFraction)
	}
}

func TestLossModelAccounting(t *testing.T) {
	inst := lineInstance(t, 2, 20, 4)
	plan := Plan{Loss: Bernoulli{P: 0.5, Seed: 3}}
	res, err := Run(inst, pusherFactory, plan, sim.Options{Seed: 9, IdlePatience: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("lossy run incomplete")
	}
	if res.Lost == 0 {
		t.Error("no losses at 50% loss")
	}
	if res.Moves != res.Schedule.Moves()+res.Lost {
		t.Errorf("bandwidth accounting: %d != %d + %d", res.Moves, res.Schedule.Moves(), res.Lost)
	}
	if err := core.Validate(inst, res.Schedule); err != nil {
		t.Errorf("lossy schedule invalid: %v", err)
	}
}

func TestCapacityModelComposesWithCrashes(t *testing.T) {
	inst := lineInstance(t, 4, 4, 3)
	plan := Plan{
		Loss:      NewGilbertElliott(0.2, 0.4, 0.02, 0.6, 7),
		Crashes:   CrashSchedule{Events: []CrashEvent{{V: 2, At: 3, RecoverAt: 6}}},
		StateLoss: DropDownloads,
		Capacity:  dynamic.CrossTraffic{MaxShare: 0.6, Seed: 7},
	}
	res, err := Run(inst, pusherFactory, plan, sim.Options{Seed: 4, IdlePatience: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("composed-fault run incomplete")
	}
	// Replay against a freshly-built identical plan: the memoizing models
	// must reproduce the same trajectories from scratch.
	fresh := Plan{
		Loss:      NewGilbertElliott(0.2, 0.4, 0.02, 0.6, 7),
		Crashes:   CrashSchedule{Events: []CrashEvent{{V: 2, At: 3, RecoverAt: 6}}},
		StateLoss: DropDownloads,
		Capacity:  dynamic.CrossTraffic{MaxShare: 0.6, Seed: 7},
	}
	if err := Validate(inst, res.Schedule, fresh); err != nil {
		t.Errorf("fresh-plan replay validation: %v", err)
	}
	if err := core.ValidateConstraints(inst, res.Schedule); err != nil {
		t.Errorf("static constraint check: %v", err)
	}
}

// TestCapacityModelsRunThroughEngine runs each §6 capacity model of
// internal/dynamic as Plan.Capacity. Every run must complete with every
// want satisfied, and its schedule must replay valid under Validate with a
// freshly built model, which for the possession-aware adversary checks
// that its cuts are reproduced from possession alone.
func TestCapacityModelsRunThroughEngine(t *testing.T) {
	g, err := topology.Random(20, topology.DefaultCaps, 7)
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.SingleFile(g, 16)
	opts := sim.Options{Seed: 6, IdlePatience: 40}
	static, err := Run(inst, heuristics.Local, Plan{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	capacity := func(mk func() dynamic.Model) func() Plan {
		return func() Plan { return Plan{Capacity: mk()} }
	}
	cases := []struct {
		name string
		plan func() Plan
		// slower marks the stress case: heavy link failure must not let
		// distribution finish in fewer steps than static capacities do.
		slower bool
	}{
		{"static", capacity(func() dynamic.Model { return dynamic.Static{} }), false},
		{"cross-traffic(0.60)", capacity(func() dynamic.Model { return dynamic.CrossTraffic{MaxShare: 0.6, Seed: 5} }), false},
		{"link-failure(0.25)", capacity(func() dynamic.Model { return dynamic.LinkFailure{P: 0.25, Seed: 5} }), false},
		{"link-failure(0.50)", capacity(func() dynamic.Model { return dynamic.LinkFailure{P: 0.5, Seed: 6} }), true},
		{"periodic(6)", capacity(func() dynamic.Model { return dynamic.Periodic{Period: 6, Floor: 0.3} }), false},
		// §6 node churn is not a capacity model: it runs as the crash
		// chain whose per-step downtime is independent of the last step.
		{"churn(0.15)", func() Plan { return Plan{Crashes: NewRandomCrashes(0.15, 0.85, 5, 0)} }, false},
		{"adversary(2)", capacity(func() dynamic.Model { return dynamic.NewAdversary(inst, 2) }), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(inst, heuristics.Local, tc.plan(), opts)
			if err != nil {
				t.Fatal(err)
			}
			final := core.Simulate(inst, res.Schedule)[res.Steps]
			if !res.Completed || !core.Done(inst, final) {
				t.Fatal("run incomplete")
			}
			if err := Validate(inst, res.Schedule, tc.plan()); err != nil {
				t.Fatalf("fresh-model replay validation: %v", err)
			}
			if tc.slower && res.Steps < static.Steps {
				t.Errorf("heavy link failure sped distribution up (%d < %d steps)", res.Steps, static.Steps)
			}
		})
	}
	// A schedule legal under static capacities must fail replay once the
	// model has failed the links it uses.
	t.Run("link-failure(1.00)-rejected", func(t *testing.T) {
		line := lineInstance(t, 3, 1, 1)
		sched := &core.Schedule{Steps: []core.Step{
			{{From: 0, To: 1, Token: 0}},
			{{From: 1, To: 2, Token: 0}},
		}}
		if err := Validate(line, sched, Plan{}); err != nil {
			t.Fatalf("static replay validation: %v", err)
		}
		if err := Validate(line, sched, Plan{Capacity: dynamic.LinkFailure{P: 1, Seed: 1}}); err == nil {
			t.Error("replay validation accepted moves over failed links")
		}
	})
}

// recorder logs every move its inner strategy proposes.
type recorder struct {
	sim.Strategy
	log *[]core.Move
}

func (r recorder) Plan(st *sim.State) []core.Move {
	mvs := r.Strategy.Plan(st)
	*r.log = append(*r.log, mvs...)
	return mvs
}

// TestLossStreamDecoupledFromStrategy: a plan's loss model must not change
// a randomized strategy's decisions for the same seed. A loss probability
// small enough to never drop anything still makes one draw per accepted
// move, so a loss model drawing from the strategy's PRNG would make the
// two runs below diverge from the second timestep on.
func TestLossStreamDecoupledFromStrategy(t *testing.T) {
	inst := lineInstance(t, 4, 6, 2)
	run := func(plan Plan) ([]core.Move, *Result) {
		var log []core.Move
		factory := sim.WrapStrategy(heuristics.Random, func(_ *core.Instance, s sim.Strategy) (sim.Strategy, error) {
			return recorder{Strategy: s, log: &log}, nil
		})
		res, err := Run(inst, factory, plan, sim.Options{Seed: 42, IdlePatience: 5})
		if err != nil {
			t.Fatal(err)
		}
		return log, res
	}
	plain, _ := run(Plan{})
	lossy, res := run(Plan{Loss: Bernoulli{P: 1e-12, Seed: 42}})
	if res.Lost != 0 {
		t.Fatalf("wanted a drop-free lossy run, lost %d", res.Lost)
	}
	if !res.Completed {
		t.Fatal("lossy run incomplete")
	}
	if len(plain) == 0 || !reflect.DeepEqual(plain, lossy) {
		t.Error("a loss model changed the strategy's proposed moves for the same seed")
	}
}

// silent never proposes anything; without any fault to explain the idling,
// the engine must still report a stall.
type silent struct{}

func (silent) Name() string                { return "silent" }
func (silent) Plan(*sim.State) []core.Move { return nil }

func TestStallStillDetectedWhenSatisfiable(t *testing.T) {
	inst := lineInstance(t, 3, 1, 1)
	_, err := Run(inst, func(*core.Instance, *rand.Rand) (sim.Strategy, error) {
		return silent{}, nil
	}, Plan{}, sim.Options{Seed: 1, IdlePatience: 2})
	if !errors.Is(err, sim.ErrStalled) {
		t.Errorf("want ErrStalled, got %v", err)
	}
}

func TestValidateRejectsMoveFromCrashedVertex(t *testing.T) {
	inst := lineInstance(t, 3, 2, 2)
	plan := Plan{Crashes: CrashSchedule{Events: []CrashEvent{{V: 0, At: 0, RecoverAt: -1}}}}
	sched := &core.Schedule{}
	sched.Append(core.Step{{From: 0, To: 1, Token: 0}})
	if err := Validate(inst, sched, plan); err == nil {
		t.Error("move from a crashed vertex validated")
	}
}

// TestValidateRejectsOutOfRangeMoves feeds Validate moves an external
// schedule may carry; each must fail with an error, not an index panic.
func TestValidateRejectsOutOfRangeMoves(t *testing.T) {
	inst := lineInstance(t, 3, 2, 2)
	for _, tc := range []struct {
		mv     core.Move
		reason string
	}{
		{core.Move{From: 0, To: 7, Token: 0}, "vertex out of range"},
		{core.Move{From: -1, To: 1, Token: 0}, "vertex out of range"},
		{core.Move{From: 0, To: 1, Token: 2}, "token out of range"},
	} {
		sched := &core.Schedule{}
		sched.Append(core.Step{tc.mv})
		err := Validate(inst, sched, Plan{})
		if err == nil || !strings.Contains(err.Error(), tc.reason) {
			t.Errorf("move %v: err = %v, want %q", tc.mv, err, tc.reason)
		}
	}
}

// mv is the move from → to carrying tok.
func mv(from, to, tok int) core.Move { return core.Move{From: from, To: to, Token: tok} }

// TestValidateArcRuns checks that looking an arc up once per run of moves
// on one pair keeps every check of the faulted replay: a missing arc
// after a run, a run broken by an out-of-range token, a first move on no
// pair and capacity counted across a run split by another arc all fail on
// the right move.
func TestValidateArcRuns(t *testing.T) {
	g := graph.New(4)
	for _, a := range []graph.Arc{{From: 0, To: 1, Cap: 3}, {From: 0, To: 3, Cap: 1}} {
		if err := g.AddArc(a.From, a.To, a.Cap); err != nil {
			t.Fatal(err)
		}
	}
	inst := core.NewInstance(g, 4)
	inst.Have[0].AddRange(0, 4)
	for _, tc := range []struct {
		name   string
		step   core.Step
		bad    int // index of the failing move; -1 if the step is valid
		reason string
	}{
		{"missing arc after a run", core.Step{mv(0, 1, 0), mv(0, 1, 1), mv(0, 2, 2)}, 2, "arc does not exist"},
		{"run broken by a token", core.Step{mv(0, 1, 0), mv(0, 1, 4), mv(0, 1, 1)}, 1, "token out of range"},
		{"first move (-1, -1)", core.Step{mv(-1, -1, 0), mv(0, 1, 0)}, 0, "vertex out of range"},
		{"first move (0, 0)", core.Step{mv(0, 0, 0), mv(0, 1, 0)}, 0, "arc does not exist"},
		{"capacity across a split run", core.Step{mv(0, 1, 0), mv(0, 1, 1), mv(0, 3, 0), mv(0, 1, 2), mv(0, 1, 3)}, 4, "effective capacity 3 exceeded"},
		{"split run within capacity", core.Step{mv(0, 1, 0), mv(0, 3, 0), mv(0, 1, 1), mv(0, 1, 2)}, -1, ""},
	} {
		err := Validate(inst, &core.Schedule{Steps: []core.Step{tc.step}}, Plan{})
		if tc.bad < 0 {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if want := fmt.Sprintf("move %v: %s", tc.step[tc.bad], tc.reason); err == nil || !strings.HasSuffix(err.Error(), want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, want)
		}
	}
}

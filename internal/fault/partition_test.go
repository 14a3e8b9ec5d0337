package fault

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"ocd/internal/core"
	"ocd/internal/graph"
	"ocd/internal/sim"
)

func TestPartitionScheduleDelaysButCompletes(t *testing.T) {
	inst := lineInstance(t, 3, 2, 2)
	plan := Plan{Partitions: PartitionSchedule{Events: CutEdge(1, 2, 0, 3)}}
	opts := sim.Options{Seed: 1, IdlePatience: 10}

	res, err := Run(inst, pusherFactory, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Liveness != LivenessComplete {
		t.Fatalf("completed=%v liveness=%q, want completion once the cut heals",
			res.Completed, res.Liveness)
	}
	base, err := Run(inst, pusherFactory, Plan{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps <= base.Steps {
		t.Errorf("partitioned run took %d steps, not more than fault-free %d",
			res.Steps, base.Steps)
	}
	if err := Validate(inst, res.Schedule, plan); err != nil {
		t.Errorf("partitioned schedule fails plan replay: %v", err)
	}
}

func TestPermanentPartitionSettlesUnsatisfiable(t *testing.T) {
	// Sever the only path into the tail forever: the wants behind the cut
	// are provably undeliverable, so the run must settle gracefully well
	// before the horizon and classify as unsatisfiable.
	inst := lineInstance(t, 3, 4, 2)
	plan := Plan{Partitions: PartitionSchedule{Events: CutEdge(1, 2, 1, -1)}}
	res, err := Run(inst, pusherFactory, plan, sim.Options{Seed: 1, IdlePatience: 5})
	if err != nil {
		t.Fatalf("graceful settlement expected, got %v", err)
	}
	if res.Completed || !res.Graceful {
		t.Fatalf("completed=%v graceful=%v, want graceful partial", res.Completed, res.Graceful)
	}
	if res.Liveness != LivenessUnsatisfiable {
		t.Errorf("liveness %q, want %q", res.Liveness, LivenessUnsatisfiable)
	}
	if len(res.Unsatisfiable) != 1 || res.Unsatisfiable[0].V != 2 {
		t.Errorf("unsatisfiable receivers %+v, want vertex 2", res.Unsatisfiable)
	}
}

func TestTransientPartitionStallIsHealable(t *testing.T) {
	// A long-but-healing cut with short patience: the run stalls, but the
	// classifier must report the stall as healable — the missing tokens are
	// still held by live vertices that the healed overlay can reach.
	inst := lineInstance(t, 3, 4, 2)
	plan := Plan{Partitions: PartitionSchedule{Events: CutEdge(1, 2, 1, 1000)}}
	res, err := Run(inst, pusherFactory, plan, sim.Options{Seed: 1, IdlePatience: 3, MaxSteps: 40})
	if !errors.Is(err, sim.ErrStalled) {
		t.Fatalf("expected a stall behind the transient cut, got %v", err)
	}
	if res.Liveness != LivenessHealable {
		t.Errorf("liveness %q, want %q", res.Liveness, LivenessHealable)
	}
	if res.Graceful {
		t.Error("a healable stall must not be reported as graceful settlement")
	}
}

func TestChurnWipesStateAndRejoinsEmpty(t *testing.T) {
	// Membership churn is a crash plan under DropAll: the middle relay
	// leaves with downloads in hand and rejoins empty; the pusher re-sends
	// and the run still completes.
	inst := lineInstance(t, 3, 3, 1)
	plan := Plan{
		Crashes:   CrashSchedule{Events: []CrashEvent{{V: 1, At: 2, RecoverAt: 4}}},
		StateLoss: DropAll,
	}
	res, err := Run(inst, pusherFactory, plan, sim.Options{Seed: 1, IdlePatience: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run did not complete after the member rejoined")
	}
	if res.Crashes != 1 || res.DownSteps != 2 {
		t.Errorf("crashes=%d downSteps=%d, want 1 departure and 2 away steps", res.Crashes, res.DownSteps)
	}
	if res.WastedMoves == 0 {
		t.Error("wiped downloads were not charged as wasted moves")
	}
	if res.Retransmissions == 0 {
		t.Error("re-downloads after the wipe were not counted as retransmissions")
	}
	if err := Validate(inst, res.Schedule, plan); err != nil {
		t.Errorf("churned schedule fails plan replay: %v", err)
	}
}

func TestValidateRejectsSeveredMove(t *testing.T) {
	inst := lineInstance(t, 2, 1, 1)
	sched := &core.Schedule{Steps: []core.Step{{{From: 0, To: 1, Token: 0}}}}
	plan := Plan{Partitions: PartitionSchedule{Events: []PartitionEvent{{From: 0, To: 1, At: 0, HealAt: -1}}}}
	if err := Validate(inst, sched, plan); err == nil {
		t.Fatal("Validate accepted a move across a severed arc")
	}
}

func TestRandomPartitionsSidesAndEpisodes(t *testing.T) {
	m := NewRandomPartitions(3, 0.2, 4, 7)
	sides := make(map[int]bool)
	for v := 0; v < 64; v++ {
		s := m.Side(v)
		if s < 0 || s >= 3 {
			t.Fatalf("Side(%d) = %d, outside [0,3)", v, s)
		}
		sides[s] = true
		if m.Side(v) != s {
			t.Fatal("Side is not stable")
		}
	}
	if len(sides) < 2 {
		t.Fatal("64 vertices hashed onto fewer than 2 sides")
	}
	// Same-side arcs never sever; cross-side arcs sever exactly during
	// episodes, and every episode runs HealAfter consecutive steps.
	var u, v int
	for v = 1; v < 64 && m.Side(0) == m.Side(v); v++ {
	}
	for u = 1; u < 64 && m.Side(0) != m.Side(u); u++ {
	}
	run := 0
	sawEpisode := false
	for step := 0; step < 400; step++ {
		if m.Severed(step, 0, u) {
			t.Fatalf("same-side arc severed at step %d", step)
		}
		if m.Severed(step, 0, v) {
			run++
			sawEpisode = true
		} else {
			if run != 0 && run%4 != 0 {
				t.Fatalf("episode ending at step %d lasted %d steps, want a multiple of 4", step, run)
			}
			run = 0
		}
		if m.Permanent(step, 0, v) {
			t.Fatalf("healing model reported a permanent cut at step %d", step)
		}
	}
	if !sawEpisode {
		t.Fatal("no partition episode in 400 steps at StartP=0.2")
	}
}

func TestRandomPartitionsPermanentNeverHeals(t *testing.T) {
	m := NewRandomPartitions(2, 0.3, -1, 11)
	var v int
	for v = 1; v < 64 && m.Side(0) == m.Side(v); v++ {
	}
	started := -1
	for step := 0; step < 200; step++ {
		if m.Severed(step, 0, v) {
			started = step
			break
		}
	}
	if started < 0 {
		t.Fatal("no episode started in 200 steps at StartP=0.3")
	}
	for step := started; step < started+50; step++ {
		if !m.Severed(step, 0, v) {
			t.Fatalf("permanent partition healed at step %d", step)
		}
		if !m.Permanent(step, 0, v) {
			t.Fatalf("permanent cut not reported as permanent at step %d", step)
		}
	}
}

func TestRandomChurnReplayAndProtect(t *testing.T) {
	a := NewRandomChurn(0.2, 0.3, 5, 0)
	b := NewRandomChurn(0.2, 0.3, 5, 0)
	trace := crashTrace(a, 100, 8)
	if trace != crashTrace(b, 100, 8) {
		t.Fatal("same-seed churn diverged")
	}
	if !strings.Contains(trace, "D") {
		t.Fatal("no departures in 100 steps at LeaveP=0.2")
	}
	for step := 0; step < 100; step++ {
		if a.Down(step, 0) {
			t.Fatalf("protected vertex 0 left at step %d", step)
		}
	}
	if strings.Contains(trace, "P") {
		t.Fatal("RejoinP>0 churn reported a permanent exit")
	}
	// Churn and crashes from the same seed must stay independent streams.
	if trace == crashTrace(NewRandomCrashes(0.2, 0.3, 5, 0), 100, 8) {
		t.Fatal("same-seed churn and crash trajectories are identical — streams not salted apart")
	}
}

func TestPlanDownAtAndEffectiveCapacity(t *testing.T) {
	plan := Plan{
		Crashes:    CrashSchedule{Events: []CrashEvent{{V: 1, At: 0, RecoverAt: 2}}},
		Partitions: PartitionSchedule{Events: []PartitionEvent{{From: 3, To: 4, At: 0, HealAt: 1}}},
	}
	if !plan.DownAt(0, 1) || plan.DownAt(0, 3) {
		t.Error("DownAt must cover crashed vertices, and only them")
	}
	if plan.DownAt(2, 1) {
		t.Error("DownAt must clear after recovery")
	}
	arc := graph.Arc{From: 3, To: 4, Cap: 2}
	if got := plan.EffectiveCapacity(0, arc); got != 0 {
		t.Errorf("severed arc capacity = %d, want 0", got)
	}
	if got := plan.EffectiveCapacity(1, arc); got != 2 {
		t.Errorf("healed arc capacity = %d, want 2", got)
	}
	if got := plan.EffectiveCapacity(0, graph.Arc{From: 1, To: 3, Cap: 5}); got != 0 {
		t.Errorf("crashed-endpoint arc capacity = %d, want 0", got)
	}
}

// TestPartitionChurnReplayByteIdentical is the golden determinism check:
// the same seeded partition+churn plan, run twice, must produce
// byte-identical schedules and identical degradation metrics.
func TestPartitionChurnReplayByteIdentical(t *testing.T) {
	inst := lineInstance(t, 5, 4, 2)
	mk := func() Plan {
		return Plan{
			Partitions: NewRandomPartitions(2, 0.1, 3, 42),
			Crashes:    NewRandomChurn(0.05, 0.5, 42, 0),
			StateLoss:  DropAll,
			Loss:       Bernoulli{P: 0.05, Seed: 42},
		}
	}
	opts := sim.Options{Seed: 9, IdlePatience: 25}
	a, errA := Run(inst, pusherFactory, mk(), opts)
	b, errB := Run(inst, pusherFactory, mk(), opts)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("replay error mismatch: %v vs %v", errA, errB)
	}
	if !reflect.DeepEqual(a.Schedule, b.Schedule) {
		t.Fatal("identical seeded partition+churn plans produced different schedules")
	}
	if a.Crashes != b.Crashes || a.DownSteps != b.DownSteps || a.WastedMoves != b.WastedMoves ||
		a.Liveness != b.Liveness || a.DeliveredFraction != b.DeliveredFraction {
		t.Fatalf("replay metrics diverged: %+v vs %+v", a, b)
	}
	if errA == nil {
		if err := Validate(inst, a.Schedule, mk()); err != nil {
			t.Errorf("replayed schedule fails plan validation: %v", err)
		}
	}
}

package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"testing"

	"ocd/internal/core"
	"ocd/internal/graph"
	"ocd/internal/heuristics"
	"ocd/internal/sim"
	"ocd/internal/tokenset"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

// mv is the move from → to carrying tok.
func mv(from, to, tok int) core.Move { return core.Move{From: from, To: to, Token: tok} }

// TestValidateArcRuns checks that looking an arc up once per run of moves
// on one pair keeps every check: a missing arc after a run, a run broken
// by an out-of-range token, a first move on no pair and capacity counted
// across a run split by another arc all fail on the right move.
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
		{"capacity across a split run", core.Step{mv(0, 1, 0), mv(0, 1, 1), mv(0, 3, 0), mv(0, 1, 2), mv(0, 1, 3)}, 4, "capacity 3 exceeded"},
		{"split run within capacity", core.Step{mv(0, 1, 0), mv(0, 3, 0), mv(0, 1, 1), mv(0, 1, 2)}, -1, ""},
	} {
		err := core.ValidateConstraints(inst, &core.Schedule{Steps: []core.Step{tc.step}})
		if tc.bad < 0 {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		var verr *core.ValidationError
		if !errors.As(err, &verr) || verr.Move != tc.step[tc.bad] || verr.Reason != tc.reason {
			t.Errorf("%s: err = %v, want move %v: %s", tc.name, err, tc.step[tc.bad], tc.reason)
		}
	}
}

// failedMove finds the step and move in a replay error, whichever
// validator wrote it.
var failedMove = regexp.MustCompile(`step (\d+) move (-?\d+-\[-?\d+\]->-?\d+)`)

// verdict renders a replay's answer as "ok", the step and move it failed
// on, or "rejected" for a failure that names no move.
func verdict(err error) string {
	if err == nil {
		return "ok"
	}
	if m := failedMove.FindStringSubmatch(err.Error()); m != nil {
		return "step " + m[1] + " move " + m[2]
	}
	return "rejected"
}

// mutate returns a copy of sched with one seeded mutation in a step that
// has moves: a dropped, duplicated or retargeted move, or a move with an
// out-of-range vertex or token.
func mutate(rng *rand.Rand, inst *core.Instance, sched *core.Schedule) *core.Schedule {
	out := &core.Schedule{Steps: slices.Clone(sched.Steps)}
	i := rng.Intn(len(out.Steps))
	for len(out.Steps[i]) == 0 {
		i = rng.Intn(len(out.Steps))
	}
	st := slices.Clone(out.Steps[i])
	j := rng.Intn(len(st))
	n, m := inst.N(), inst.NumTokens
	switch rng.Intn(7) {
	case 0:
		st = slices.Delete(st, j, j+1)
	case 1:
		st = slices.Insert(st, rng.Intn(len(st)+1), st[j])
	case 2:
		st[j].To = rng.Intn(n)
	case 3:
		st[j].From = rng.Intn(n)
	case 4:
		st[j].Token = rng.Intn(m)
	case 5:
		bad := []int{-1, n, n + 7, -n}[rng.Intn(4)]
		if rng.Intn(2) == 0 {
			st[j].From = bad
		} else {
			st[j].To = bad
		}
	case 6:
		st[j].Token = []int{-1, m, m + 3}[rng.Intn(3)]
	}
	out.Steps[i] = st
	return out
}

// TestReplayMatchesReference replays every schedule of the sim.Run rows of
// the golden engine table (internal/sim: six strategies on a transit-stub
// single-file instance and on a multi-sender one), then 1,500 seeded
// mutations of them, under core.Replay, core.ValidateConstraints and
// core.Validate and under the replay they replaced. Each must accept or
// reject alike, on the same step and move, and end in the same possession.
func TestReplayMatchesReference(t *testing.T) {
	g, err := topology.TransitStubN(36, topology.DefaultCaps, 7)
	if err != nil {
		t.Fatal(err)
	}
	instM, err := workload.MultiSender(g, 64, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	type input struct {
		inst  *core.Instance
		sched *core.Schedule
	}
	var golden []input
	for _, factory := range append(heuristics.All(), heuristics.LocalDelayed(2)) {
		for _, inst := range []*core.Instance{workload.SingleFile(g, 24), instM} {
			res, err := sim.Run(inst, factory, sim.Options{Seed: 11, IdlePatience: 20})
			if err != nil {
				t.Fatal(err)
			}
			golden = append(golden, input{inst, res.Schedule})
		}
	}
	accepted := 0
	check := func(name string, in input) {
		t.Helper()
		final, err := core.Replay(in.inst, in.sched, core.Rules{})
		ref, refErr := refReplayConstraints(in.inst, in.sched)
		want := verdict(refErr)
		if got := verdict(err); got != want {
			t.Fatalf("%s: Replay says %s (%v), reference %s (%v)", name, got, err, want, refErr)
		}
		if got := verdict(core.ValidateConstraints(in.inst, in.sched)); got != want {
			t.Fatalf("%s: ValidateConstraints says %s, reference %s", name, got, want)
		}
		if refErr == nil && !core.Done(in.inst, ref) {
			refErr = core.ErrUnsuccessful
		}
		if err := core.Validate(in.inst, in.sched); verdict(err) != verdict(refErr) || errors.Is(err, core.ErrUnsuccessful) != errors.Is(refErr, core.ErrUnsuccessful) {
			t.Fatalf("%s: Validate says %v, reference %v", name, err, refErr)
		}
		if ref == nil {
			return
		}
		accepted++
		if !slices.EqualFunc(final, ref, tokenset.Set.Equal) {
			t.Fatalf("%s: final possession differs from the reference's", name)
		}
	}
	for i, in := range golden {
		check(fmt.Sprintf("golden schedule %d", i), in)
	}
	if accepted != len(golden) {
		t.Fatalf("%d of %d golden schedules replay valid", accepted, len(golden))
	}
	rng := rand.New(rand.NewSource(1))
	const mutations = 1500
	for k := 0; k < mutations; k++ {
		in := golden[rng.Intn(len(golden))]
		check(fmt.Sprintf("mutation %d", k), input{in.inst, mutate(rng, in.inst, in.sched)})
	}
	if accepted -= len(golden); accepted == 0 || accepted == mutations {
		t.Errorf("%d of %d mutations replay valid; want both verdicts exercised", accepted, mutations)
	}
}

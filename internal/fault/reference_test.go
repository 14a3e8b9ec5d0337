package fault

// refValidate is the faulted replay that Validate ran before it became
// core.Replay under the plan's rules, kept verbatim under a renamed
// identifier as the reference for TestValidateMatchesReference and
// FuzzValidateMatchesReference.

import (
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"testing"

	"ocd/internal/core"
	"ocd/internal/dynamic"
	"ocd/internal/graph"
	"ocd/internal/heuristics"
	"ocd/internal/sim"
	"ocd/internal/tokenset"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

func refValidate(inst *core.Instance, sched *core.Schedule, plan Plan) error {
	plan = plan.normalized()
	n := inst.N()
	possess := inst.InitialPossession()
	prevDown := make([]bool, n)
	down := make([]bool, n)
	aware, _ := plan.Capacity.(dynamic.PossessionAware)
	used := make([]int, inst.G.NumArcs())
	arcs := inst.G.ArcRun()

	for i, st := range sched.Steps {
		for v := 0; v < n; v++ {
			down[v] = plan.Crashes.Down(i, v)
			if down[v] && !prevDown[v] {
				switch plan.StateLoss {
				case DropDownloads:
					possess[v].CopyFrom(inst.Have[v])
				case DropAll:
					possess[v].Clear()
				}
			}
			prevDown[v] = down[v]
		}
		if aware != nil {
			aware.Observe(i, possess)
		}
		clear(used)
		for _, mv := range st {
			if mv.From < 0 || mv.From >= n || mv.To < 0 || mv.To >= n {
				return fmt.Errorf("fault: step %d move %v: vertex out of range", i, mv)
			}
			if mv.Token < 0 || mv.Token >= inst.NumTokens {
				return fmt.Errorf("fault: step %d move %v: token out of range", i, mv)
			}
			if down[mv.From] || down[mv.To] {
				return fmt.Errorf("fault: step %d move %v: endpoint crashed", i, mv)
			}
			if plan.Partitions.Severed(i, mv.From, mv.To) {
				return fmt.Errorf("fault: step %d move %v: arc severed by partition", i, mv)
			}
			id := arcs.ID(mv.From, mv.To)
			if id < 0 {
				return fmt.Errorf("fault: step %d move %v: arc does not exist", i, mv)
			}
			capacity := plan.Capacity.Cap(i, graph.Arc{From: mv.From, To: mv.To, Cap: inst.G.CapByID(id)})
			used[id]++
			if used[id] > capacity {
				return fmt.Errorf("fault: step %d move %v: effective capacity %d exceeded", i, mv, capacity)
			}
			if !possess[mv.From].Has(mv.Token) {
				return fmt.Errorf("fault: step %d move %v: sender lacks token", i, mv)
			}
		}
		for _, mv := range st {
			possess[mv.To].Add(mv.Token)
		}
	}
	return nil
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

// TestValidateFailsClosed: an instance that fails Instance.Check gets that
// error back, where the replay used to index past a short slice or
// dereference a nil graph.
func TestValidateFailsClosed(t *testing.T) {
	sched := &core.Schedule{Steps: []core.Step{{{From: 0, To: 1, Token: 0}}}}
	plan := Plan{Crashes: CrashSchedule{Events: []CrashEvent{{V: 2, At: 0, RecoverAt: -1}}}, StateLoss: DropAll}
	for _, tc := range []struct {
		name    string
		corrupt func(*core.Instance)
	}{
		{"nil graph", func(inst *core.Instance) { inst.G = nil }},
		{"short have", func(inst *core.Instance) { inst.Have = inst.Have[:1] }},
		{"short want", func(inst *core.Instance) { inst.Want = inst.Want[:2] }},
		{"universe", func(inst *core.Instance) { inst.Want[1] = tokenset.New(5) }},
	} {
		inst := lineInstance(t, 3, 2, 2)
		tc.corrupt(inst)
		want := inst.Check()
		if want == nil {
			t.Fatalf("%s: the broken instance passes Check", tc.name)
		}
		if err := Validate(inst, sched, plan); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: err = %v, want %v", tc.name, err, want)
		}
	}
}

// replayCase is one schedule with the plan it ran under, rebuilt afresh
// for every replay because models keep state.
type replayCase struct {
	inst  *core.Instance
	plan  func() Plan
	sched *core.Schedule
}

// goldenFaultRuns runs the fault-engine rows of internal/sim's golden
// engine table — six strategies under Bernoulli loss, cross traffic, the
// possession-aware adversary, the chaos plan, a crash-stop source,
// membership churn and, on a multi-sender instance, link failure — plus
// two plans the table leaves out: random partitions with crash-recovery
// that keeps state, and cross traffic with a cut of the source's first
// link that heals mid-run. The last one moves each arc's capacity every
// step and lifts a severed verdict, so a replay that reused an arc's
// verdict from an earlier step would reject its golden schedules.
func goldenFaultRuns(t *testing.T) []replayCase {
	t.Helper()
	g, err := topology.TransitStubN(36, topology.DefaultCaps, 7)
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.SingleFile(g, 24)
	instM, err := workload.MultiSender(g, 64, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	plans := []struct {
		inst     *core.Instance
		plan     func() Plan
		patience int
	}{
		{inst, func() Plan { return Plan{Loss: Bernoulli{P: 0.15, Seed: 11}} }, 30},
		{inst, func() Plan { return Plan{Capacity: dynamic.CrossTraffic{MaxShare: 0.6, Seed: 3}} }, 30},
		{inst, func() Plan { return Plan{Capacity: dynamic.NewAdversary(inst, g.NumArcs()/8)} }, 30},
		{inst, func() Plan { return AtIntensity(0.35, 13, 0) }, 40},
		{inst, func() Plan {
			return Plan{Crashes: CrashSchedule{Events: []CrashEvent{{V: 0, At: 4, RecoverAt: -1}}}, StateLoss: DropAll}
		}, 40},
		{inst, func() Plan { return Plan{Crashes: NewRandomChurn(0.01, 0.5, 21, 0), StateLoss: DropAll} }, 40},
		{instM, func() Plan { return Plan{Capacity: dynamic.LinkFailure{P: 0.1, Seed: 3}} }, 30},
		{inst, func() Plan {
			return Plan{Partitions: NewRandomPartitions(2, 0.2, 3, 5), Crashes: NewRandomCrashes(0.02, 0.5, 6, 0)}
		}, 40},
		{inst, func() Plan {
			return Plan{
				Capacity:   dynamic.CrossTraffic{MaxShare: 0.8, Seed: 4},
				Partitions: PartitionSchedule{Events: CutEdge(0, g.Out(0)[0].To, 1, 3)},
			}
		}, 30},
	}
	var out []replayCase
	for _, factory := range append(heuristics.All(), heuristics.LocalDelayed(2)) {
		for _, p := range plans {
			res, err := Run(p.inst, factory, p.plan(), sim.Options{Seed: 11, IdlePatience: p.patience})
			if res == nil {
				t.Fatal(err)
			}
			out = append(out, replayCase{p.inst, p.plan, res.Schedule})
		}
	}
	return out
}

// mutate returns a copy of c's schedule with one seeded mutation: a
// dropped, duplicated or retargeted move, a move put off to a later step
// (where a crash may since have wiped its sender), an out-of-range vertex
// or token, or a move added on an arc at a step where the plan has crashed
// one of its endpoints or severed it.
func mutate(rng *rand.Rand, c replayCase) *core.Schedule {
	out := &core.Schedule{Steps: slices.Clone(c.sched.Steps)}
	i := rng.Intn(len(out.Steps))
	for len(out.Steps[i]) == 0 {
		i = rng.Intn(len(out.Steps))
	}
	st := slices.Clone(out.Steps[i])
	j := rng.Intn(len(st))
	n, m := c.inst.N(), c.inst.NumTokens
	switch kind := rng.Intn(9); {
	case kind == 0:
		st = slices.Delete(st, j, j+1)
	case kind == 8:
		if later := i + 1 + rng.Intn(len(out.Steps)-i); later < len(out.Steps) {
			out.Steps[later] = append(slices.Clone(out.Steps[later]), st[j])
		}
		st = slices.Delete(st, j, j+1)
	case kind == 1:
		st = slices.Insert(st, rng.Intn(len(st)+1), st[j])
	case kind == 2:
		st[j].To = rng.Intn(n)
	case kind == 3:
		st[j].Token = rng.Intn(m)
	case kind == 4:
		st[j].From = []int{-1, n, n + 7}[rng.Intn(3)]
	case kind == 5:
		st[j].Token = []int{-1, m}[rng.Intn(2)]
	default:
		// Look from step i on for an arc the plan takes out: an endpoint
		// down (kind 6) or the arc severed (kind 7).
		plan := c.plan().normalized()
		arcs := c.inst.G.Arcs()
		for s := i; s < len(out.Steps); s++ {
			for _, k := range rng.Perm(len(arcs)) {
				a := arcs[k]
				down := plan.Crashes.Down(s, a.From) || plan.Crashes.Down(s, a.To)
				if (kind == 6 && down) || (kind == 7 && plan.Partitions.Severed(s, a.From, a.To)) {
					bad := core.Move{From: a.From, To: a.To, Token: rng.Intn(m)}
					out.Steps[s] = slices.Insert(slices.Clone(out.Steps[s]), rng.Intn(len(out.Steps[s])+1), bad)
					return out
				}
			}
		}
		st = slices.Delete(st, j, j+1)
	}
	out.Steps[i] = st
	return out
}

// TestValidateMatchesReference replays every schedule goldenFaultRuns
// produces, then 1,200 seeded mutations of them, under Validate and under
// the replay it replaced, each with a fresh plan. Both must accept or
// reject alike and on the same step and move.
func TestValidateMatchesReference(t *testing.T) {
	golden := goldenFaultRuns(t)
	reasons := map[string]int{}
	check := func(name string, c replayCase, sched *core.Schedule) {
		t.Helper()
		err := Validate(c.inst, sched, c.plan())
		refErr := refValidate(c.inst, sched, c.plan())
		if got, want := verdict(err), verdict(refErr); got != want {
			t.Fatalf("%s: Validate says %s (%v), reference %s (%v)", name, got, err, want, refErr)
		}
		var verr *core.ValidationError
		if errors.As(err, &verr) {
			reasons[verr.Reason]++
		} else if err != nil {
			t.Fatalf("%s: %v is not a *core.ValidationError", name, err)
		}
	}
	for i, c := range golden {
		check(fmt.Sprintf("golden schedule %d", i), c, c.sched)
	}
	if len(reasons) != 0 {
		t.Fatalf("golden schedules rejected: %v", reasons)
	}
	rng := rand.New(rand.NewSource(1))
	const mutations = 1200
	for k := 0; k < mutations; k++ {
		c := golden[rng.Intn(len(golden))]
		check(fmt.Sprintf("mutation %d", k), c, mutate(rng, c))
	}
	t.Logf("rejections by reason over %d mutations: %v", mutations, reasons)
	for _, r := range []string{"endpoint crashed", "arc severed by partition", "vertex out of range", "sender does not possess token at start of timestep"} {
		if reasons[r] == 0 {
			t.Errorf("no mutation was rejected for %q", r)
		}
	}
}

// FuzzValidateMatchesReference decodes fuzzed bytes into a short schedule
// over a seeded tiny instance, out-of-range vertices and tokens included,
// and replays it under seeded crashes with each state-loss policy, random
// partitions and a capacity model, with the plan built afresh for each
// replay. Validate must agree with the replay it replaced on accept or
// reject and on the failing step and move, and must not panic.
//
// data[0] seeds the instance and the plan, data[1] picks the state-loss
// policy and the capacity model, and every further three bytes (a, b, c)
// are a step break when a is 0xff, a move on arc a with token c when a is
// below 0xe0, and otherwise the raw move b → c with a token from a.
func FuzzValidateMatchesReference(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0xff, 0, 0, 1, 1, 2})
	f.Add([]byte{7, 4, 3, 0, 1, 0xe5, 0, 9, 2, 2, 2, 0xff, 0, 0, 5, 5, 0})
	f.Add([]byte{42, 8, 0xf0, 0, 1, 0, 0, 0, 0, 0, 0, 0xff, 0, 0, 1, 0, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		seed := int64(data[0])
		rng := rand.New(rand.NewSource(seed))
		n, m := 3+rng.Intn(4), 1+rng.Intn(4)
		g := graph.New(n)
		perm := rng.Perm(n)
		for i := 1; i < n; i++ {
			if err := g.AddEdge(perm[i], perm[rng.Intn(i)], 1+rng.Intn(2)); err != nil {
				t.Fatal(err)
			}
		}
		inst := core.NewInstance(g, m)
		for tok := 0; tok < m; tok++ {
			inst.Have[rng.Intn(n)].Add(tok)
			inst.Want[rng.Intn(n)].Add(tok)
		}
		capacity := []dynamic.Model{nil, dynamic.LinkFailure{P: 0.3, Seed: seed}, dynamic.CrossTraffic{MaxShare: 0.6, Seed: seed}}[data[1]%3]
		plan := func() Plan {
			return Plan{
				Crashes:    NewRandomCrashes(0.2, 0.5, seed+1),
				StateLoss:  StateLoss(data[1] / 3 % 3),
				Partitions: NewRandomPartitions(2, 0.3, 2, seed+2),
				Capacity:   capacity,
			}
		}
		arcs := g.Arcs()
		sched := &core.Schedule{Steps: []core.Step{nil}}
		for b := data[2:]; len(b) >= 3 && len(sched.Steps) <= 12; b = b[3:] {
			last := len(sched.Steps) - 1
			switch {
			case b[0] == 0xff:
				sched.Steps = append(sched.Steps, nil)
			case b[0] < 0xe0:
				a := arcs[int(b[0])%len(arcs)]
				sched.Steps[last] = append(sched.Steps[last], core.Move{From: a.From, To: a.To, Token: int(b[2])%(m+2) - 1})
			default:
				sched.Steps[last] = append(sched.Steps[last],
					core.Move{From: int(b[1])%(n+2) - 1, To: int(b[2])%(n+2) - 1, Token: int(b[0])%(m+2) - 1})
			}
		}
		err := Validate(inst, sched, plan())
		refErr := refValidate(inst, sched, plan())
		if got, want := verdict(err), verdict(refErr); got != want {
			t.Fatalf("Validate says %s (%v), reference %s (%v)", got, err, want, refErr)
		}
	})
}

package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"ocd/internal/graph"
)

// lineInstance builds 0→1→…→(n−1) with capacity c; vertex 0 has all m
// tokens, the last vertex wants them all.
func lineInstance(t *testing.T, n, m, c int) *Instance {
	t.Helper()
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddArc(i, i+1, c); err != nil {
			t.Fatal(err)
		}
	}
	inst := NewInstance(g, m)
	inst.Have[0].AddRange(0, m)
	inst.Want[n-1].AddRange(0, m)
	return inst
}

func TestInstanceCheck(t *testing.T) {
	inst := lineInstance(t, 3, 2, 1)
	if err := inst.Check(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	// A wanted token that nobody has.
	bad := lineInstance(t, 3, 2, 1)
	bad.Have[0].Remove(1)
	if err := bad.Check(); err == nil {
		t.Error("unheld wanted token accepted")
	}
}

func TestInstanceSatisfiable(t *testing.T) {
	inst := lineInstance(t, 3, 1, 1)
	if !inst.Satisfiable() {
		t.Error("line instance reported unsatisfiable")
	}
	// Reverse the demand: vertex 0 wants a token held at the end of a
	// one-way line.
	g := graph.New(3)
	if err := g.AddArc(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddArc(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	rev := NewInstance(g, 1)
	rev.Have[2].Add(0)
	rev.Want[0].Add(0)
	if rev.Satisfiable() {
		t.Error("unreachable demand reported satisfiable")
	}
}

func TestInstanceClone(t *testing.T) {
	inst := lineInstance(t, 3, 2, 1)
	c := inst.Clone()
	c.Have[0].Remove(0)
	c.Want[2].Remove(1)
	if !inst.Have[0].Has(0) || !inst.Want[2].Has(1) {
		t.Error("Clone shares sets with the original")
	}
}

func TestTheoremOneHorizon(t *testing.T) {
	inst := lineInstance(t, 5, 3, 1)
	if got := inst.TheoremOneHorizon(); got != 12 {
		t.Errorf("horizon = %d, want m(n-1) = 12", got)
	}
}

func TestValidateAcceptsCorrectSchedule(t *testing.T) {
	inst := lineInstance(t, 3, 1, 1)
	sched := &Schedule{Steps: []Step{
		{{From: 0, To: 1, Token: 0}},
		{{From: 1, To: 2, Token: 0}},
	}}
	if err := Validate(inst, sched); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

func TestValidatePossessionViolation(t *testing.T) {
	inst := lineInstance(t, 3, 1, 1)
	// Vertex 1 sends before it has the token.
	sched := &Schedule{Steps: []Step{
		{{From: 0, To: 1, Token: 0}, {From: 1, To: 2, Token: 0}},
	}}
	err := Validate(inst, sched)
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("want ValidationError, got %v", err)
	}
	if verr.Reason == "" || verr.Step != 0 {
		t.Errorf("unexpected violation detail: %+v", verr)
	}
}

func TestValidateSameStepDeliveryNotSendable(t *testing.T) {
	// Receiving and forwarding in the same timestep is illegal: a token
	// may only be sent if possessed at the *start* of the timestep (§3.1).
	inst := lineInstance(t, 3, 1, 1)
	sched := &Schedule{Steps: []Step{
		{{From: 0, To: 1, Token: 0}},
		{{From: 1, To: 2, Token: 0}, {From: 0, To: 1, Token: 0}},
	}}
	if err := Validate(inst, sched); err != nil {
		t.Errorf("valid two-step schedule rejected: %v", err)
	}
}

func TestValidateCapacityViolation(t *testing.T) {
	inst := lineInstance(t, 2, 3, 2)
	sched := &Schedule{Steps: []Step{{
		{From: 0, To: 1, Token: 0},
		{From: 0, To: 1, Token: 1},
		{From: 0, To: 1, Token: 2}, // third token on a capacity-2 arc
	}}}
	err := Validate(inst, sched)
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("want ValidationError, got %v", err)
	}
}

func TestValidateMissingArc(t *testing.T) {
	inst := lineInstance(t, 3, 1, 1)
	sched := &Schedule{Steps: []Step{{{From: 0, To: 2, Token: 0}}}}
	if err := Validate(inst, sched); err == nil {
		t.Error("move on nonexistent arc accepted")
	}
}

func TestValidateTokenRange(t *testing.T) {
	inst := lineInstance(t, 3, 1, 1)
	sched := &Schedule{Steps: []Step{{{From: 0, To: 1, Token: 5}}}}
	if err := Validate(inst, sched); err == nil {
		t.Error("out-of-range token accepted")
	}
}

// arcRunInstance has arcs 0→1 (capacity 3) and 0→3 (capacity 1) and no
// arc 0→2; vertex 0 holds all four tokens.
func arcRunInstance(t *testing.T) *Instance {
	t.Helper()
	g := graph.New(4)
	for _, a := range []graph.Arc{{From: 0, To: 1, Cap: 3}, {From: 0, To: 3, Cap: 1}} {
		if err := g.AddArc(a.From, a.To, a.Cap); err != nil {
			t.Fatal(err)
		}
	}
	inst := NewInstance(g, 4)
	inst.Have[0].AddRange(0, 4)
	return inst
}

// TestValidateArcRuns checks that looking an arc up once per run of moves
// on one pair keeps every check: a missing arc after a run, a run broken
// by an out-of-range token, a first move on no pair and capacity counted
// across a run split by another arc all fail on the right move.
func TestValidateArcRuns(t *testing.T) {
	inst := arcRunInstance(t)
	for _, tc := range []struct {
		name   string
		step   Step
		bad    int // index of the failing move; -1 if the step is valid
		reason string
	}{
		{"missing arc after a run", Step{{0, 1, 0}, {0, 1, 1}, {0, 2, 2}}, 2, "arc does not exist"},
		{"run broken by a token", Step{{0, 1, 0}, {0, 1, 4}, {0, 1, 1}}, 1, "token out of range"},
		{"first move (-1, -1)", Step{{-1, -1, 0}, {0, 1, 0}}, 0, "arc does not exist"},
		{"first move (0, 0)", Step{{0, 0, 0}, {0, 1, 0}}, 0, "arc does not exist"},
		{"capacity across a split run", Step{{0, 1, 0}, {0, 1, 1}, {0, 3, 0}, {0, 1, 2}, {0, 1, 3}}, 4, "capacity 3 exceeded"},
		{"split run within capacity", Step{{0, 1, 0}, {0, 3, 0}, {0, 1, 1}, {0, 1, 2}}, -1, ""},
	} {
		err := ValidateConstraints(inst, &Schedule{Steps: []Step{tc.step}})
		if tc.bad < 0 {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		var verr *ValidationError
		if !errors.As(err, &verr) || verr.Move != tc.step[tc.bad] || verr.Reason != tc.reason {
			t.Errorf("%s: err = %v, want move %v: %s", tc.name, err, tc.step[tc.bad], tc.reason)
		}
	}
}

func TestValidateUnsuccessful(t *testing.T) {
	inst := lineInstance(t, 3, 1, 1)
	sched := &Schedule{Steps: []Step{{{From: 0, To: 1, Token: 0}}}}
	if err := Validate(inst, sched); !errors.Is(err, ErrUnsuccessful) {
		t.Errorf("want ErrUnsuccessful, got %v", err)
	}
}

func TestScheduleMetrics(t *testing.T) {
	sched := &Schedule{Steps: []Step{
		{{From: 0, To: 1, Token: 0}, {From: 0, To: 1, Token: 1}},
		{{From: 1, To: 2, Token: 0}},
	}}
	if got := sched.Makespan(); got != 2 {
		t.Errorf("Makespan = %d", got)
	}
	if got := sched.Moves(); got != 3 {
		t.Errorf("Moves = %d", got)
	}
	c := sched.Clone()
	c.Steps[0][0].Token = 9
	if sched.Steps[0][0].Token == 9 {
		t.Error("Clone shares move storage")
	}
}

func TestSimulateHistory(t *testing.T) {
	inst := lineInstance(t, 3, 1, 1)
	sched := &Schedule{Steps: []Step{
		{{From: 0, To: 1, Token: 0}},
		{{From: 1, To: 2, Token: 0}},
	}}
	hist := Simulate(inst, sched)
	if len(hist) != 3 {
		t.Fatalf("history length = %d, want 3", len(hist))
	}
	if hist[0][1].Has(0) {
		t.Error("token present before delivery")
	}
	if !hist[1][1].Has(0) || !hist[2][2].Has(0) {
		t.Error("deliveries not reflected in history")
	}
}

func TestPruneRemovesDuplicateDeliveries(t *testing.T) {
	// Diamond: 0→1, 0→2, 1→3, 2→3. Both paths deliver the token to 3.
	g := graph.New(4)
	for _, a := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		if err := g.AddArc(a[0], a[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	inst := NewInstance(g, 1)
	inst.Have[0].Add(0)
	inst.Want[3].Add(0)
	sched := &Schedule{Steps: []Step{
		{{From: 0, To: 1, Token: 0}, {From: 0, To: 2, Token: 0}},
		{{From: 1, To: 3, Token: 0}, {From: 2, To: 3, Token: 0}},
	}}
	if err := Validate(inst, sched); err != nil {
		t.Fatalf("setup schedule invalid: %v", err)
	}
	pruned := Prune(inst, sched)
	// Only one branch should survive: 2 moves.
	if got := pruned.Moves(); got != 2 {
		t.Errorf("pruned moves = %d, want 2", got)
	}
	if err := Validate(inst, pruned); err != nil {
		t.Errorf("pruned schedule invalid: %v", err)
	}
}

func TestPruneRemovesUnusedDeliveries(t *testing.T) {
	// Token flooded to a vertex that neither wants nor forwards it.
	inst := lineInstance(t, 3, 2, 2)
	inst.Want[2].Remove(1) // token 1 is wanted by nobody downstream
	inst.Want[1].Clear()
	sched := &Schedule{Steps: []Step{
		{{From: 0, To: 1, Token: 0}, {From: 0, To: 1, Token: 1}},
		{{From: 1, To: 2, Token: 0}},
	}}
	if err := Validate(inst, sched); err != nil {
		t.Fatalf("setup: %v", err)
	}
	pruned := Prune(inst, sched)
	if got := pruned.Moves(); got != 2 {
		t.Errorf("pruned moves = %d, want 2 (token 1 delivery dropped)", got)
	}
}

func TestPruneKeepsRelayChains(t *testing.T) {
	// The relay vertex does not want the token but must keep receiving it
	// because it forwards it later.
	inst := lineInstance(t, 4, 1, 1)
	sched := &Schedule{Steps: []Step{
		{{From: 0, To: 1, Token: 0}},
		{{From: 1, To: 2, Token: 0}},
		{{From: 2, To: 3, Token: 0}},
	}}
	pruned := Prune(inst, sched)
	if got := pruned.Moves(); got != 3 {
		t.Errorf("pruned moves = %d, want 3 (chain must survive)", got)
	}
	if err := Validate(inst, pruned); err != nil {
		t.Errorf("pruned chain invalid: %v", err)
	}
}

func TestPruneDropsEmptySteps(t *testing.T) {
	inst := lineInstance(t, 3, 1, 1)
	sched := &Schedule{Steps: []Step{
		{{From: 0, To: 1, Token: 0}},
		{}, // idle step
		{{From: 1, To: 2, Token: 0}},
	}}
	pruned := Prune(inst, sched)
	if got := pruned.Makespan(); got != 2 {
		t.Errorf("pruned makespan = %d, want 2", got)
	}
}

// randomValidSchedule floods tokens randomly to build a messy but valid
// successful schedule for property testing.
func randomValidSchedule(t *testing.T, inst *Instance, rng *rand.Rand) *Schedule {
	t.Helper()
	sched := &Schedule{}
	possess := inst.InitialPossession()
	for step := 0; step < 200 && !Done(inst, possess); step++ {
		var st Step
		for _, a := range inst.G.Arcs() {
			useful := possess[a.From].Clone()
			sent := 0
			useful.ForEach(func(tok int) bool {
				if sent >= a.Cap {
					return false
				}
				if rng.Intn(2) == 0 {
					st = append(st, Move{From: a.From, To: a.To, Token: tok})
					sent++
				}
				return true
			})
		}
		for _, mv := range st {
			possess[mv.To].Add(mv.Token)
		}
		sched.Append(st)
	}
	if !Done(inst, possess) {
		t.Skip("random schedule did not complete (flaky seed)")
	}
	return sched
}

func TestPruneProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(5)
		m := 1 + rng.Intn(3)
		g := graph.New(n)
		perm := rng.Perm(n)
		for i := 1; i < n; i++ {
			if err := g.AddEdge(perm[i], perm[rng.Intn(i)], 1+rng.Intn(2)); err != nil {
				t.Fatal(err)
			}
		}
		inst := NewInstance(g, m)
		for tok := 0; tok < m; tok++ {
			inst.Have[rng.Intn(n)].Add(tok)
			inst.Want[rng.Intn(n)].Add(tok)
		}
		sched := randomValidSchedule(t, inst, rng)
		if err := Validate(inst, sched); err != nil {
			t.Fatalf("trial %d: random schedule invalid: %v", trial, err)
		}
		pruned := Prune(inst, sched)
		if pruned.Moves() > sched.Moves() {
			t.Errorf("trial %d: pruning increased moves %d → %d", trial, sched.Moves(), pruned.Moves())
		}
		if err := Validate(inst, pruned); err != nil {
			t.Errorf("trial %d: pruned schedule invalid: %v", trial, err)
		}
		if pruned.Moves() < BandwidthLowerBound(inst, nil) {
			t.Errorf("trial %d: pruned below the bandwidth lower bound", trial)
		}
	}
}

func TestBandwidthLowerBound(t *testing.T) {
	inst := lineInstance(t, 4, 3, 1)
	// Only vertex 3 wants the 3 tokens → 3 deliveries minimum.
	if got := BandwidthLowerBound(inst, nil); got != 3 {
		t.Errorf("bandwidth LB = %d, want 3", got)
	}
	// With possession updated to complete, the bound drops to zero.
	possess := inst.InitialPossession()
	possess[3].AddRange(0, 3)
	if got := BandwidthLowerBound(inst, possess); got != 0 {
		t.Errorf("bandwidth LB after completion = %d, want 0", got)
	}
}

func TestMakespanLowerBoundLine(t *testing.T) {
	// Distance bound: token must travel n−1 hops.
	inst := lineInstance(t, 5, 1, 1)
	if got := MakespanLowerBound(inst, nil); got != 4 {
		t.Errorf("makespan LB = %d, want 4 (path length)", got)
	}
}

func TestMakespanLowerBoundCapacity(t *testing.T) {
	// Two vertices, 6 tokens, capacity 2: at least 3 steps.
	inst := lineInstance(t, 2, 6, 2)
	if got := MakespanLowerBound(inst, nil); got != 3 {
		t.Errorf("makespan LB = %d, want 3 (ceil(6/2))", got)
	}
}

func TestMakespanLowerBoundMixed(t *testing.T) {
	// Line of 3 with capacity 1 and 4 tokens: radius-1 term gives
	// 1 + ceil(4/1) is wrong (tokens at distance 2); the i=1 bucket has
	// everything at distance 2: bound = max_i(i + ceil(k_i/cap)).
	inst := lineInstance(t, 3, 4, 1)
	// k_0 = 4 (v=2 has nothing, in-cap 1): 0+4 = 4; k_1 = 4 (distance-1
	// vertex 1 has nothing): 1+4 = 5; k_2 = 0. Want 5.
	if got := MakespanLowerBound(inst, nil); got != 5 {
		t.Errorf("makespan LB = %d, want 5", got)
	}
}

func TestOneStepRetrievable(t *testing.T) {
	inst := lineInstance(t, 3, 2, 1)
	possess := inst.InitialPossession()
	got := OneStepRetrievable(inst, possess, 1)
	if got.Count() != 2 {
		t.Errorf("vertex 1 one-step set = %v", got)
	}
	if !OneStepRetrievable(inst, possess, 2).Empty() {
		t.Error("vertex 2 should retrieve nothing in one step")
	}
}

func TestDone(t *testing.T) {
	inst := lineInstance(t, 2, 1, 1)
	possess := inst.InitialPossession()
	if Done(inst, possess) {
		t.Error("Done before delivery")
	}
	possess[1].Add(0)
	if !Done(inst, possess) {
		t.Error("not Done after delivery")
	}
}

func TestSetsAreIndependentPerVertex(t *testing.T) {
	inst := NewInstance(graph.New(3), 4)
	inst.Have[0].Add(1)
	if inst.Have[1].Has(1) || inst.Want[0].Has(1) {
		t.Error("instance sets alias each other")
	}
}

func TestRenderTimeline(t *testing.T) {
	inst := lineInstance(t, 3, 1, 1)
	sched := &Schedule{Steps: []Step{
		{{From: 0, To: 1, Token: 0}},
		{},
		{{From: 1, To: 2, Token: 0}},
	}}
	out := RenderTimeline(inst, sched, 0)
	for _, want := range []string{"step 1 [  0%]", "(idle)", "step 3 [100%]", "1-[0]->2"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	// Truncation.
	wide := &Schedule{Steps: []Step{{
		{From: 0, To: 1, Token: 0}, {From: 0, To: 1, Token: 0}, {From: 0, To: 1, Token: 0},
	}}}
	out = RenderTimeline(inst, wide, 1)
	if !strings.Contains(out, "+2 more") {
		t.Errorf("truncation marker missing:\n%s", out)
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10}
	for x, want := range cases {
		if got := ceilLog2(x); got != want {
			t.Errorf("ceilLog2(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestTheoremTwoDescriptionBound(t *testing.T) {
	// Theorem 2: a successful schedule exists within the canonical-bit
	// budget. Any schedule whose duplicate deliveries have been pruned has
	// at most m(n−1) moves (Theorem 1), so its encoding fits.
	inst := lineInstance(t, 5, 3, 2)
	sched := &Schedule{Steps: []Step{
		{{From: 0, To: 1, Token: 0}, {From: 0, To: 1, Token: 1}},
		{{From: 1, To: 2, Token: 0}, {From: 1, To: 2, Token: 1}, {From: 0, To: 1, Token: 2}},
		{{From: 2, To: 3, Token: 0}, {From: 2, To: 3, Token: 1}, {From: 1, To: 2, Token: 2}},
		{{From: 3, To: 4, Token: 0}, {From: 3, To: 4, Token: 1}, {From: 2, To: 3, Token: 2}},
		{{From: 3, To: 4, Token: 2}},
	}}
	if err := Validate(inst, sched); err != nil {
		t.Fatalf("setup: %v", err)
	}
	bitsUsed := DescriptionBits(inst, sched)
	if bitsUsed <= 0 {
		t.Fatal("no bits counted")
	}
	if bound := TheoremTwoBound(inst); bitsUsed > bound {
		t.Errorf("canonical encoding %d bits exceeds the Theorem 2 budget %d", bitsUsed, bound)
	}
	// A pruned flooding schedule also fits (it has ≤ m(n−1) moves).
	flood := floodSchedule(inst)
	pruned := Prune(inst, flood)
	if got := DescriptionBits(inst, pruned); got > TheoremTwoBound(inst) {
		t.Errorf("pruned flooding encoding %d bits exceeds budget %d", got, TheoremTwoBound(inst))
	}
}

package encoding

import (
	"testing"

	"ocd/internal/core"
	"ocd/internal/fault"
	"ocd/internal/heuristics"
	"ocd/internal/sim"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

func TestExpandShape(t *testing.T) {
	g, err := topology.Ring(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	orig := workload.SingleFile(g, 8) // one 8-token file
	coded, err := Expand(orig, 4, 6)  // two files of 4 → 6 coded each
	if err != nil {
		t.Fatal(err)
	}
	if coded.Inst.NumTokens != 12 {
		t.Errorf("coded universe = %d, want 12", coded.Inst.NumTokens)
	}
	if len(coded.Files) != 2 {
		t.Fatalf("files = %d, want 2", len(coded.Files))
	}
	for _, f := range coded.Files {
		if f.Threshold != 4 || f.Hi-f.Lo != 6 {
			t.Errorf("file %+v, want threshold 4 size 6", f)
		}
	}
	// Source holds all coded tokens; receivers want all coded tokens.
	if coded.Inst.Have[0].Count() != 12 {
		t.Error("source does not hold the coded universe")
	}
	if coded.Inst.Want[1].Count() != 12 {
		t.Error("receiver wants wrong coded set")
	}
	if got := coded.Overhead(); got != 1.5 {
		t.Errorf("overhead = %f, want 1.5", got)
	}
}

func TestExpandRaggedLastFile(t *testing.T) {
	g, err := topology.Ring(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	orig := workload.SingleFile(g, 10)
	coded, err := Expand(orig, 4, 5) // files of 4,4,2 → threshold 4,4,2
	if err != nil {
		t.Fatal(err)
	}
	if len(coded.Files) != 3 {
		t.Fatalf("files = %d, want 3", len(coded.Files))
	}
	if coded.Files[2].Threshold != 2 {
		t.Errorf("last threshold = %d, want 2", coded.Files[2].Threshold)
	}
}

func TestExpandErrors(t *testing.T) {
	g, err := topology.Ring(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	orig := workload.SingleFile(g, 8)
	if _, err := Expand(orig, 0, 4); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Expand(orig, 4, 3); err == nil {
		t.Error("n < k accepted")
	}
}

func TestCodedDonePredicate(t *testing.T) {
	g, err := topology.Line(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	orig := workload.SingleFile(g, 4)
	coded, err := Expand(orig, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	possess := coded.Inst.InitialPossession()
	if coded.Done(coded.Inst, possess) {
		t.Error("done before any delivery")
	}
	// Deliver 3 of 6 coded tokens: not enough.
	for tok := 0; tok < 3; tok++ {
		possess[1].Add(tok)
	}
	if coded.Done(coded.Inst, possess) {
		t.Error("done below threshold")
	}
	possess[1].Add(3) // 4th token reaches the threshold
	if !coded.Done(coded.Inst, possess) {
		t.Error("not done at threshold")
	}
}

func TestCodedRunFinishesEarly(t *testing.T) {
	// Without loss, a coded run must finish after threshold deliveries —
	// strictly fewer moves than flooding the entire coded universe.
	g, err := topology.Line(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	orig := workload.SingleFile(g, 8)
	coded, err := Expand(orig, 8, 12)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coded.Run(heuristics.Local, fault.Plan{}, sim.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("coded run incomplete")
	}
	if res.Moves != 8 {
		t.Errorf("moves = %d, want exactly the threshold 8", res.Moves)
	}
}

func TestCodedBeatsUncodedUnderLoss(t *testing.T) {
	// Coding pays off for knowledge-free senders: when a loss hits a
	// specific token, uncoded Round Robin waits a full cycle for that
	// token to come around again, while the coded receiver accepts any k
	// of n arrivals. Aggregate turns over several seeds.
	g, err := topology.Line(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	orig := workload.SingleFile(g, 16)
	coded, err := Expand(orig, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	uncodedTotal, codedTotal := 0, 0
	for seed := int64(0); seed < 5; seed++ {
		plan := fault.Plan{Loss: fault.Bernoulli{P: 0.5, Seed: seed}}
		opts := sim.Options{Seed: seed, IdlePatience: 5, MaxSteps: 2000}
		uncoded, err := fault.Run(orig, heuristics.RoundRobin, plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := coded.Run(heuristics.RoundRobin, plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !uncoded.Completed || !res.Completed {
			t.Fatal("runs incomplete")
		}
		uncodedTotal += uncoded.Steps
		codedTotal += res.Steps
	}
	if codedTotal >= uncodedTotal {
		t.Errorf("coded (%d total turns) not faster than uncoded (%d) under loss",
			codedTotal, uncodedTotal)
	}
}

func TestCodedValidatableSubSchedule(t *testing.T) {
	// The recorded coded schedule obeys capacity/possession even though it
	// does not satisfy the full coded want sets; only ErrUnsuccessful is
	// acceptable from the strict validator.
	g, err := topology.Ring(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	orig := workload.SingleFile(g, 6)
	coded, err := Expand(orig, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coded.Run(heuristics.Global, fault.Plan{}, sim.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Validate(coded.Inst, res.Schedule); err != nil && err != core.ErrUnsuccessful {
		t.Fatalf("coded schedule violates move constraints: %v", err)
	}
}

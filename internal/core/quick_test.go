package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ocd/internal/graph"
	"ocd/internal/tokenset"
)

// instSpec is a generatable instance description for property tests.
type instSpec struct {
	Seed   int64
	N      uint8
	Tokens uint8
}

// build materializes a connected random instance from the spec.
func (s instSpec) build() *Instance {
	n := int(s.N%5) + 3      // 3..7 vertices
	m := int(s.Tokens%3) + 1 // 1..3 tokens
	rng := rand.New(rand.NewSource(s.Seed))
	g := graph.New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		_ = g.AddEdge(perm[i], perm[rng.Intn(i)], 1+rng.Intn(2))
	}
	inst := NewInstance(g, m)
	for t := 0; t < m; t++ {
		inst.Have[rng.Intn(n)].Add(t)
		inst.Want[rng.Intn(n)].Add(t)
	}
	return inst
}

// floodSchedule is a deterministic valid successful schedule: every arc
// forwards every useful token up to capacity each step.
func floodSchedule(inst *Instance) *Schedule {
	sched := &Schedule{}
	possess := inst.InitialPossession()
	for step := 0; step < inst.TheoremOneHorizon()+1 && !Done(inst, possess); step++ {
		var st Step
		for _, a := range inst.G.Arcs() {
			sent := 0
			possess[a.From].ForEach(func(t int) bool {
				if sent >= a.Cap {
					return false
				}
				if !possess[a.To].Has(t) {
					st = append(st, Move{From: a.From, To: a.To, Token: t})
					sent++
				}
				return true
			})
		}
		if len(st) == 0 {
			break
		}
		for _, mv := range st {
			possess[mv.To].Add(mv.Token)
		}
		sched.Append(st)
	}
	return sched
}

func TestQuickFloodingSatisfiesAndValidates(t *testing.T) {
	f := func(spec instSpec) bool {
		inst := spec.build()
		sched := floodSchedule(inst)
		return Validate(inst, sched) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestQuickPruneInvariants(t *testing.T) {
	f := func(spec instSpec) bool {
		inst := spec.build()
		sched := floodSchedule(inst)
		pruned := Prune(inst, sched)
		if pruned.Moves() > sched.Moves() {
			return false
		}
		if Validate(inst, pruned) != nil {
			return false
		}
		// Idempotence: pruning a pruned schedule changes nothing.
		again := Prune(inst, pruned)
		return again.Moves() == pruned.Moves() && again.Makespan() == pruned.Makespan()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestQuickBoundsAdmissible(t *testing.T) {
	// Bounds from the initial state never exceed what flooding achieves
	// (flooding is an upper bound on both optima).
	f := func(spec instSpec) bool {
		inst := spec.build()
		sched := floodSchedule(inst)
		if final, err := Replay(inst, sched, Rules{}); err != nil || !Done(inst, final) {
			return true // vacuous (cannot happen on connected builds)
		}
		pruned := Prune(inst, sched)
		if MakespanLowerBound(inst, nil) > sched.Makespan() {
			return false
		}
		return BandwidthLowerBound(inst, nil) <= pruned.Moves()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestQuickReplayMonotone(t *testing.T) {
	// Possession only ever grows along a schedule.
	f := func(spec instSpec) bool {
		inst := spec.build()
		var hist [][]tokenset.Set
		final, err := Replay(inst, floodSchedule(inst), Rules{BeginStep: func(_ int, possess []tokenset.Set) {
			hist = append(hist, clonePossession(possess))
		}})
		if err != nil {
			return false
		}
		hist = append(hist, final)
		for i := 1; i < len(hist); i++ {
			for v := range hist[i] {
				if !hist[i-1][v].SubsetOf(hist[i][v]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

package fault

import (
	"fmt"
	"math/rand"
	"testing"

	"ocd/internal/core"
	"ocd/internal/graph"
	"ocd/internal/tokenset"
)

// detectByBFS is the reference detection: rebuild the graph of arcs that
// survive permanent faults, then run one reverse BFS per receiver and
// union the possession of every surviving vertex that reaches it.
func detectByBFS(inst *core.Instance, possess []tokenset.Set, perm []bool, severed func(from, to int) bool, unsat []tokenset.Set) {
	n := inst.N()
	g := graph.New(n)
	for _, a := range inst.G.Arcs() {
		if !perm[a.From] && !perm[a.To] && !severed(a.From, a.To) {
			_ = g.AddArc(a.From, a.To, a.Cap) // valid by construction
		}
	}
	reachable := tokenset.New(inst.NumTokens)
	for v := 0; v < n; v++ {
		missing := inst.Want[v].Difference(possess[v])
		if missing.Empty() {
			continue
		}
		if perm[v] {
			unsat[v].UnionWith(missing)
			continue
		}
		dist := g.BFSTo(v)
		reachable.Clear()
		for u := 0; u < n; u++ {
			if dist[u] >= 0 && !perm[u] {
				reachable.UnionWith(possess[u])
			}
		}
		missing.DifferenceWith(reachable)
		unsat[v].UnionWith(missing)
	}
}

func newSets(n, m int) []tokenset.Set {
	s := make([]tokenset.Set, n)
	for v := range s {
		s[v] = tokenset.New(m)
	}
	return s
}

// TestDetectMatchesPerReceiverBFS checks the fixed-point detection against
// the per-receiver BFS on random sparse digraphs (so some receivers are cut
// off by structure alone) as permanent crashes, permanently severed arcs
// and DropAll wipes accumulate. One reachability value serves every round,
// as in a run, so stale scratch would show.
func TestDetectMatchesPerReceiverBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// cutOff counts live receivers left with some, but not all, of their
	// missing tokens unsatisfiable, where detection must tell tokens apart.
	cutOff := 0
	for trial := 0; trial < 60; trial++ {
		n, m := 3+rng.Intn(28), 1+rng.Intn(130)
		g := graph.New(n)
		p := 0.5 * rng.Float64() * 4 / float64(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < p {
					_ = g.AddArc(u, v, 1+rng.Intn(5)) // valid by construction
				}
			}
		}
		inst := core.NewInstance(g, m)
		for v := 0; v < n; v++ {
			for tok := 0; tok < m; tok++ {
				if rng.Intn(6) == 0 {
					inst.Have[v].Add(tok)
				}
				if rng.Intn(3) == 0 {
					inst.Want[v].Add(tok)
				}
			}
		}
		possess := inst.InitialPossession()
		perm := make([]bool, n)
		cut := map[[2]int]bool{}
		severed := func(from, to int) bool { return cut[[2]int{from, to}] }
		got, want := newSets(n, m), newSets(n, m)
		r := newReachability(inst)
		for round := 0; round < 5; round++ {
			label := fmt.Sprintf("trial %d round %d", trial, round)
			// Deliveries happen between rounds, then new permanent faults.
			for v := 0; v < n; v++ {
				for tok := 0; tok < m; tok++ {
					if rng.Intn(20) == 0 {
						possess[v].Add(tok)
					}
				}
			}
			for v := 0; v < n; v++ {
				switch rng.Intn(12) {
				case 0:
					perm[v] = true
				case 1:
					possess[v].Clear() // a DropAll crash: its sole copies go extinct
				}
			}
			for _, a := range g.Arcs() {
				if rng.Intn(10) == 0 {
					cut[[2]int{a.From, a.To}] = true
				}
			}
			r.detect(inst, possess, perm, severed, got)
			detectByBFS(inst, possess, perm, severed, want)
			for v := 0; v < n; v++ {
				if !got[v].Equal(want[v]) {
					t.Fatalf("%s: receiver %d: unsatisfiable %v, want %v", label, v, got[v], want[v])
				}
				missing := inst.Want[v].Difference(possess[v])
				if !perm[v] && !got[v].Intersect(missing).Empty() && !missing.SubsetOf(got[v]) {
					cutOff++
				}
			}
		}
	}
	if cutOff < 50 {
		t.Fatalf("only %d partially cut-off receivers; the instances no longer exercise reachability", cutOff)
	}
}

package heuristics

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ocd/internal/core"
	"ocd/internal/graph"
	"ocd/internal/sim"
	"ocd/internal/tokenset"
	"ocd/internal/topology"
)

// refRoundRobin is Round Robin's planner as it stood before the word
// walk: each out-arc scans up to m token IDs from its cursor and tests
// each one. It is the reference for TestRoundRobinMatchesReference.
type refRoundRobin struct {
	cursor []int
	moves  []core.Move
}

func (r *refRoundRobin) Plan(st *sim.State) []core.Move {
	m := st.Inst.NumTokens
	moves := r.moves[:0]
	for u := 0; u < st.Inst.N(); u++ {
		have := st.Possess[u]
		if have.Empty() {
			continue
		}
		ids := st.Inst.G.OutArcIDs(u)
		for i, a := range st.Inst.G.Out(u) {
			id := ids[i]
			cur := r.cursor[id]
			sent := 0
			for scanned := 0; scanned < m && sent < a.Cap; scanned++ {
				t := (cur + scanned) % m
				if !have.Has(t) {
					continue
				}
				moves = append(moves, core.Move{From: u, To: a.To, Token: t})
				sent++
				r.cursor[id] = (t + 1) % m
			}
		}
	}
	r.moves = moves
	return moves
}

// rrGraph is a random overlay on n vertices whose capacities reach past
// the largest token count under test, so some arcs can carry more tokens
// than their sender has.
func rrGraph(t *testing.T, n int, seed int64) *graph.Graph {
	t.Helper()
	g, err := topology.Random(n, topology.CapRange{Min: 1, Max: 600}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomPossession fills each vertex's set empty, full or at a random
// density.
func randomPossession(rng *rand.Rand, n, m int) []tokenset.Set {
	possess := make([]tokenset.Set, n)
	for v := range possess {
		possess[v] = tokenset.New(m)
		switch rng.Intn(4) {
		case 0:
		case 1:
			possess[v].Fill()
		default:
			p := rng.Float64()
			for tok := 0; tok < m; tok++ {
				if rng.Float64() < p {
					possess[v].Add(tok)
				}
			}
		}
	}
	return possess
}

// TestRoundRobinMatchesReference compares Plan move for move, and every
// cursor after it, with the per-token scan it replaced. Single plans run
// on random possessions (empty, full and partial sets) with random
// cursors and capacities up to 600, above |have| for every m under test;
// multi-step runs plan on a capacity view whose random refresh masks arcs
// and changes capacities each step, delivering every planned move.
func TestRoundRobinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range []int{1, 63, 64, 65, 100, 512} {
		t.Run(fmt.Sprintf("m%d", m), func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				g := rrGraph(t, 6+rng.Intn(10), rng.Int63())
				inst := core.NewInstance(g, m)
				got := &roundRobin{cursor: make([]int, g.NumArcs())}
				ref := &refRoundRobin{cursor: make([]int, g.NumArcs())}
				for id := range got.cursor {
					got.cursor[id] = rng.Intn(m)
					ref.cursor[id] = got.cursor[id]
				}
				st := &sim.State{Inst: inst, Possess: randomPossession(rng, g.N(), m)}
				compareRoundRobin(t, fmt.Sprintf("trial %d", trial), got, ref, st)
			}
			for run := 0; run < 5; run++ {
				g := rrGraph(t, 8+rng.Intn(8), rng.Int63())
				base := core.NewInstance(g, m)
				view := graph.NewView(g)
				inst := &core.Instance{G: view.Graph(), NumTokens: m, Have: base.Have, Want: base.Want}
				got := &roundRobin{cursor: make([]int, g.NumArcs())}
				ref := &refRoundRobin{cursor: make([]int, g.NumArcs())}
				possess := make([]tokenset.Set, g.N())
				for v := range possess {
					possess[v] = tokenset.New(m)
				}
				possess[0].Fill()
				possess[1].Add(rng.Intn(m))
				st := &sim.State{Inst: inst, Possess: possess}
				caps := make([]int, g.NumArcs())
				for step := 0; step < 12; step++ {
					for id := range caps {
						caps[id] = 0
						if rng.Intn(4) > 0 {
							caps[id] = 1 + rng.Intn(3*m)
						}
					}
					view.Refresh(caps)
					st.Step = step
					moves := compareRoundRobin(t, fmt.Sprintf("run %d step %d", run, step), got, ref, st)
					for _, mv := range moves {
						st.Deliver(mv)
					}
				}
			}
		})
	}
}

// compareRoundRobin plans st with both strategies, fails t unless the
// moves and the cursors agree, and returns the moves.
func compareRoundRobin(t *testing.T, name string, got *roundRobin, ref *refRoundRobin, st *sim.State) []core.Move {
	t.Helper()
	want := slices.Clone(ref.Plan(st))
	moves := got.Plan(st)
	if !slices.Equal(moves, want) {
		t.Fatalf("%s: Plan proposed %d moves, reference %d; first difference at %d", name, len(moves), len(want), firstDiff(moves, want))
	}
	if !slices.Equal(got.cursor, ref.cursor) {
		t.Fatalf("%s: cursors differ from the reference's", name)
	}
	return moves
}

// firstDiff returns the first index where a and b differ.
func firstDiff(a, b []core.Move) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

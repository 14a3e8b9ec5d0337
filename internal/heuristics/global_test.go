package heuristics

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ocd/internal/core"
	"ocd/internal/fault"
	"ocd/internal/sim"
	"ocd/internal/tokenset"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

// refPickDiverse is Global's pick as it stood before the level-set walk:
// it scans every member of class ∩ obtainable in ascending order for the
// lowest score, reservoir-sampling ties. It is the reference for
// TestGlobalPickMatchesReference and FuzzGlobalPick.
func refPickDiverse(scratch, obtainable, wanted, lack tokenset.Set, score []int, rng *rand.Rand) int {
	for _, class := range []tokenset.Set{wanted, lack} {
		scratch.SetIntersection(class, obtainable)
		best, bestScore, seen := -1, 0, 0
		scratch.ForEach(func(t int) bool {
			switch {
			case best == -1 || score[t] < bestScore:
				best, bestScore, seen = t, score[t], 1
			case score[t] == bestScore:
				seen++
				if rng.Intn(seen) == 0 {
					best = t
				}
			}
			return true
		})
		if best != -1 {
			return best
		}
	}
	return -1
}

// refGlobal is Global's planner as it stood before the level-set walk: a
// score array, refPickDiverse, and no destination closed for an empty
// pick. It is the whole-run reference for TestGlobalRunsMatchReference.
type refGlobal struct {
	rem        residual
	score      []int
	scheduled  []tokenset.Set
	wantedLeft []tokenset.Set
	lackLeft   []tokenset.Set
	obtainable []tokenset.Set
	closed     []bool
	pickable   tokenset.Set
	perm       []int
	moves      []core.Move
}

func newRefGlobal(inst *core.Instance, _ *rand.Rand) (sim.Strategy, error) {
	n, m := inst.N(), inst.NumTokens
	g := &refGlobal{
		score:      make([]int, m),
		scheduled:  make([]tokenset.Set, n),
		wantedLeft: make([]tokenset.Set, n),
		lackLeft:   make([]tokenset.Set, n),
		obtainable: make([]tokenset.Set, n),
		closed:     make([]bool, n),
		pickable:   tokenset.New(m),
	}
	for v := 0; v < n; v++ {
		g.scheduled[v] = tokenset.New(m)
		g.wantedLeft[v] = tokenset.New(m)
		g.lackLeft[v] = tokenset.New(m)
		g.obtainable[v] = tokenset.New(m)
	}
	return g, nil
}

func (g *refGlobal) Name() string { return "global" }

func (g *refGlobal) Plan(st *sim.State) []core.Move {
	inst := st.Inst
	n := inst.N()
	g.rem.reset(inst.G)
	copy(g.score, st.HaveCounts())
	g.moves = g.moves[:0]
	for v := 0; v < n; v++ {
		g.scheduled[v].Clear()
		st.MissingInto(v, g.wantedLeft[v])
		st.LackingInto(v, g.lackLeft[v])
		g.lackLeft[v].DifferenceWith(g.wantedLeft[v])
		g.collect(st, v)
	}
	g.perm = permInto(g.perm, st.Rand, n)
	for {
		assigned := false
		for _, v := range g.perm {
			if g.closed[v] {
				continue
			}
			t := refPickDiverse(g.pickable, g.obtainable[v], g.wantedLeft[v], g.lackLeft[v], g.score, st.Rand)
			if t == -1 {
				continue
			}
			in := inst.G.In(v)
			inIDs := inst.G.InArcIDs(v)
			best, bestLeft := -1, 0
			var bestID int32
			for i, a := range in {
				if !st.Possess[a.From].Has(t) {
					continue
				}
				if l := g.rem.leftID(inIDs[i]); l > bestLeft {
					best, bestLeft, bestID = a.From, l, inIDs[i]
				}
			}
			if best == -1 {
				continue
			}
			g.rem.takeID(bestID)
			g.scheduled[v].Add(t)
			g.wantedLeft[v].Remove(t)
			g.lackLeft[v].Remove(t)
			g.obtainable[v].Remove(t)
			g.score[t] += n
			if g.rem.leftID(bestID) == 0 {
				g.collect(st, v)
			}
			g.moves = append(g.moves, core.Move{From: best, To: v, Token: t})
			assigned = true
		}
		if !assigned {
			break
		}
	}
	return g.moves
}

func (g *refGlobal) collect(st *sim.State, v int) {
	obt := g.obtainable[v]
	obt.Clear()
	closed := true
	inIDs := st.Inst.G.InArcIDs(v)
	for i, a := range st.Inst.G.In(v) {
		if g.rem.leftID(inIDs[i]) > 0 {
			obt.UnionWith(st.Possess[a.From])
			closed = false
		}
	}
	obt.DifferenceWith(st.Possess[v])
	obt.DifferenceWith(g.scheduled[v])
	g.closed[v] = closed
}

// pickState is one pick problem: n vertices, each token's have-count and
// copies scheduled so far (both below n), and the two classes and the
// obtainable set of one destination.
type pickState struct {
	n                        int
	counts, copies           []int
	wanted, lack, obtainable tokenset.Set
}

// comparePicks builds the level sets of s by reset and claims, then picks
// repeatedly with diversity.pick and with refPickDiverse from two PRNGs
// seeded alike. After each pick both sides claim the token and it leaves
// obtainable, as in a Plan's rounds. It fails t unless every pick returns
// the same token and leaves both PRNGs at the same position.
func comparePicks(t *testing.T, name string, s pickState, seed int64) {
	t.Helper()
	m := len(s.counts)
	d := newDiversity(s.n, m)
	d.reset(s.counts)
	score := make([]int, m)
	for tok := range score {
		for k := 0; k < s.copies[tok]; k++ {
			d.claim(tok)
		}
		score[tok] = s.counts[tok] + s.n*s.copies[tok]
	}
	if !slices.Equal(d.score, score) {
		t.Fatalf("%s: claims left scores %v, want %v", name, d.score, score)
	}
	obtainable := s.obtainable.Clone()
	scratch := tokenset.New(m)
	rng, refRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	for pick := 0; ; pick++ {
		got := d.pick(obtainable, s.wanted, s.lack, rng)
		want := refPickDiverse(scratch, obtainable, s.wanted, s.lack, score, refRNG)
		if got != want {
			t.Fatalf("%s: pick %d chose token %d, reference %d", name, pick, got, want)
		}
		if a, b := rng.Int63(), refRNG.Int63(); a != b {
			t.Fatalf("%s: after pick %d the PRNGs differ: next Int63 %d, reference %d", name, pick, a, b)
		}
		// A claim past n-1 copies cannot happen in a run: the holders, the
		// destinations scheduled so far and this one are distinct vertices.
		if got == -1 || score[got]/s.n >= s.n-1 {
			return
		}
		d.claim(got)
		score[got] += s.n
		obtainable.Remove(got)
	}
}

// TestGlobalPickMatchesReference holds diversity.pick to the full scan it
// replaced on random states: counts and copy counts drawn from a few
// values each so that scores tie heavily, copy counts up to n-1, empty,
// full and sparse classes and obtainable sets, and universes that end
// inside, at and just past a word.
func TestGlobalPickMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range []int{1, 63, 64, 65, 130, 512} {
		t.Run(fmt.Sprintf("m%d", m), func(t *testing.T) {
			for trial := 0; trial < 300; trial++ {
				n := 1 + rng.Intn(12)
				countVals, copyVals := randomPalette(rng, n), randomPalette(rng, n)
				s := pickState{n: n, counts: make([]int, m), copies: make([]int, m)}
				for tok := 0; tok < m; tok++ {
					s.counts[tok] = countVals[rng.Intn(len(countVals))]
					s.copies[tok] = copyVals[rng.Intn(len(copyVals))]
				}
				sets := randomPossession(rng, 3, m)
				s.wanted, s.lack, s.obtainable = sets[0], sets[1], sets[2]
				comparePicks(t, fmt.Sprintf("trial %d (n %d)", trial, n), s, rng.Int63())
			}
		})
	}
}

// randomPalette returns one to three values in [0, n), the first of them
// often 0.
func randomPalette(rng *rand.Rand, n int) []int {
	vals := make([]int, 1+rng.Intn(3))
	for i := range vals {
		if i > 0 || rng.Intn(2) == 0 {
			vals[i] = rng.Intn(n)
		}
	}
	return vals
}

// FuzzGlobalPick decodes a pick state from fuzzed bytes and requires
// diversity.pick and refPickDiverse to choose the same tokens and leave
// the PRNG at the same position.
//
// data[0] picks the universe from {1, 63, 64, 65, 130, 512}, data[1] the
// vertex count (1 to 12) and data[2] the PRNG seed. The rest is read
// cyclically, two bytes per token: the first gives its have-count (low
// nibble) and copy count (high nibble), both modulo n; the second's low
// three bits put it in wanted, lack and obtainable.
func FuzzGlobalPick(f *testing.F) {
	f.Add([]byte{0, 3, 1, 0x10, 7})
	f.Add([]byte{3, 5, 2, 0x21, 5, 0x00, 6, 0x11, 7, 0x21, 4})
	f.Add([]byte{4, 11, 9, 0x32, 7, 0x23, 5, 0x01, 3, 0x00, 1, 0x44, 7, 0x10, 6})
	f.Add([]byte{5, 2, 7, 0x00, 7, 0x01, 7, 0x10, 5, 0x11, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		m := []int{1, 63, 64, 65, 130, 512}[int(data[0])%6]
		n := 1 + int(data[1])%12
		rest := data[3:]
		s := pickState{n: n, counts: make([]int, m), copies: make([]int, m),
			wanted: tokenset.New(m), lack: tokenset.New(m), obtainable: tokenset.New(m)}
		for tok := 0; tok < m; tok++ {
			b, flags := rest[2*tok%len(rest)], rest[(2*tok+1)%len(rest)]
			s.counts[tok], s.copies[tok] = int(b&15)%n, int(b>>4)%n
			if flags&1 != 0 {
				s.wanted.Add(tok)
			}
			if flags&2 != 0 {
				s.lack.Add(tok)
			}
			if flags&4 != 0 {
				s.obtainable.Add(tok)
			}
		}
		comparePicks(t, "fuzzed state", s, int64(data[2]))
	})
}

// TestGlobalRunsMatchReference runs Global and refGlobal for up to 12
// steps on tiny random instances and on the benchmark's three
// multi-file shapes, under sim.Run and under membership churn that drops
// every departed vertex's tokens, and requires move-for-move identical
// schedules.
func TestGlobalRunsMatchReference(t *testing.T) {
	insts := map[string]*core.Instance{}
	for i, inst := range workload.RandomTinyInstances(1, 8, 5, 3) {
		insts[fmt.Sprintf("tiny-m3-%d", i)] = inst
	}
	for i, inst := range workload.RandomTinyInstances(2, 4, 8, 70) {
		insts[fmt.Sprintf("tiny-m70-%d", i)] = inst
	}
	n := 200
	if testing.Short() {
		n = 60
	}
	g, err := topology.Random(n, topology.DefaultCaps, 3)
	if err != nil {
		t.Fatal(err)
	}
	insts["density"] = workload.ReceiverDensity(g, 200, 0.2, 3)
	if insts["multifile"], err = workload.MultiFile(g, 512, 16); err != nil {
		t.Fatal(err)
	}
	if insts["multisender"], err = workload.MultiSender(g, 512, 16, 3); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(insts))
	for name := range insts {
		names = append(names, name)
	}
	slices.Sort(names)
	opts := sim.Options{Seed: 5, MaxSteps: 12, IdlePatience: 4}
	for _, name := range names {
		inst := insts[name]
		t.Run(name, func(t *testing.T) {
			res, err := sim.Run(inst, Global, opts)
			ref, refErr := sim.Run(inst, newRefGlobal, opts)
			compareRuns(t, "sim.Run", res, err, ref, refErr)

			churn := func() fault.Plan {
				return fault.Plan{Crashes: fault.NewRandomChurn(0.05, 0.5, 7), StateLoss: fault.DropAll}
			}
			fres, err := fault.Run(inst, Global, churn(), opts)
			fref, refErr := fault.Run(inst, newRefGlobal, churn(), opts)
			compareRuns(t, "churn", fres.Result, err, fref.Result, refErr)
		})
	}
}

// compareRuns fails t unless two runs ended alike and planned the same
// schedule.
func compareRuns(t *testing.T, engine string, res *sim.Result, err error, ref *sim.Result, refErr error) {
	t.Helper()
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: error %v, reference %v", engine, err, refErr)
	}
	if res.Completed != ref.Completed || len(res.Schedule.Steps) != len(ref.Schedule.Steps) {
		t.Fatalf("%s: %d steps (completed %v), reference %d (completed %v)",
			engine, len(res.Schedule.Steps), res.Completed, len(ref.Schedule.Steps), ref.Completed)
	}
	for i, step := range res.Schedule.Steps {
		if want := ref.Schedule.Steps[i]; !slices.Equal(step, want) {
			t.Fatalf("%s: step %d has %d moves, reference %d; first difference at %d",
				engine, i, len(step), len(want), firstDiff(step, want))
		}
	}
}

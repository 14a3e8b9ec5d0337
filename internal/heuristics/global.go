package heuristics

import (
	"math/bits"
	"math/rand"

	"ocd/internal/core"
	"ocd/internal/sim"
	"ocd/internal/tokenset"
)

// Global builds the §5.1 global heuristic: the general case of Local where
// vertices coordinate within each timestep to maximize diversity. The
// coordination removes the need for requests — the planner sees everything
// and guarantees a destination receives a token at most once per turn.
//
// As in the paper, the planner is a greedy selection over tokens and edges
// rather than an exhaustive matching ("not guaranteed to maximize
// diversity … to allow the heuristic to function at large scale"): it runs
// interleaved rounds in which every destination claims one more token,
// choosing the token with the lowest effective rarity, where copies already
// scheduled this turn count heavily against a token. Wanted tokens are
// claimed before diversity-only tokens.
var Global sim.Factory = newGlobal

// globalStrategy owns the per-run scratch: the per-destination claim sets
// and the per-token rarity levels are cleared and refilled at the top of
// every Plan call instead of being reallocated.
type globalStrategy struct {
	rem residual
	div diversity
	//ocd:scratch
	scheduled []tokenset.Set
	//ocd:scratch
	wantedLeft []tokenset.Set
	//ocd:scratch
	lackLeft []tokenset.Set
	// obtainable[v] is what v could still pull this turn: the union of the
	// possession of its in-neighbors with residual capacity, minus p(v)
	// and scheduled[v]. Only v's claims consume v's in-arcs, so it is
	// computed once per Plan, loses each token v claims, and is recomputed
	// only when a claim saturates one of v's in-arcs.
	//ocd:scratch
	obtainable []tokenset.Set
	// closed[v] records that v takes no further part in this Plan's
	// rounds: none of its in-arcs has capacity left, or its last pick
	// came back empty. Within a Plan obtainable[v], wantedLeft[v] and
	// lackLeft[v] only shrink, so an empty pick stays empty, and an empty
	// pick draws nothing from the run's PRNG.
	//ocd:scratch
	closed []bool
	//ocd:scratch
	perm  []int
	moves []core.Move
}

func newGlobal(inst *core.Instance, _ *rand.Rand) (sim.Strategy, error) {
	n, m := inst.N(), inst.NumTokens
	g := &globalStrategy{
		div:        newDiversity(n, m),
		scheduled:  make([]tokenset.Set, n),
		wantedLeft: make([]tokenset.Set, n),
		lackLeft:   make([]tokenset.Set, n),
		obtainable: make([]tokenset.Set, n),
		closed:     make([]bool, n),
	}
	for v := 0; v < n; v++ {
		g.scheduled[v] = tokenset.New(m)
		g.wantedLeft[v] = tokenset.New(m)
		g.lackLeft[v] = tokenset.New(m)
		g.obtainable[v] = tokenset.New(m)
	}
	return g, nil
}

func (g *globalStrategy) Name() string { return "global" }

func (g *globalStrategy) Plan(st *sim.State) []core.Move {
	inst := st.Inst
	n := inst.N()
	g.rem.reset(inst.G)
	g.div.reset(st.HaveCounts())
	g.moves = g.moves[:0]

	// scheduled[v] tracks tokens already planned for delivery to v this
	// turn; missing/lacking shrink as rounds assign tokens.
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
			t := g.div.pick(g.obtainable[v], g.wantedLeft[v], g.lackLeft[v], st.Rand)
			if t == -1 {
				g.closed[v] = true
				continue
			}
			// Claim t from the holder neighbor with the most spare capacity.
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
			g.div.claim(t)
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

// collect recomputes obtainable[v] from the residual capacity of v's
// in-arcs, and closes v when none has any left.
func (g *globalStrategy) collect(st *sim.State, v int) {
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

// diversity answers Global's pick: for one destination, the token of
// the lowest score among its obtainable wanted tokens, or if none among
// its obtainable diversity tokens, with ties broken by reservoir sampling
// on the run's PRNG. A token's score is count + n·k, where count is the
// number of vertices holding it at the top of the Plan and k the number
// of copies scheduled this turn, so a token already scheduled counts as
// more common than any unscheduled one.
//
// A candidate is a token the destination lacks, so its count is below n,
// and score ≤ r is lexicographic in (k, count). Two families of prefix
// sets, one flat word array each, answer that test 64 tokens at a time:
// word i of level l sits at l·words+i. upTo holds the sentinel empty
// level 0 and then, at level k+1, the tokens scheduled at most k times
// this turn; heldBy holds, at level c, the tokens held by at most c
// vertices. The tokens scoring at most the record r = c + n·k are then
// upTo level k | (upTo level k+1 & heldBy level c), and a pick visits
// only them: its running-minimum records and the ties that draw.
type diversity struct {
	n, words int
	// score[t] is t's score this turn, and copies[t] its k.
	//ocd:scratch
	score []int
	//ocd:scratch
	copies []int
	//ocd:scratch
	upTo []uint64
	//ocd:scratch
	heldBy []uint64
}

// newDiversity allocates the score and level arrays for n vertices and
// m tokens: n+1 levels of upTo and n of heldBy, m/64 words each.
func newDiversity(n, m int) diversity {
	words := (m + 63) / 64
	return diversity{
		n:      n,
		words:  words,
		score:  make([]int, m),
		copies: make([]int, m),
		upTo:   make([]uint64, (n+1)*words),
		heldBy: make([]uint64, n*words),
	}
}

// reset starts a turn from the have-counts: nothing is scheduled, so
// every token is in every upTo level past the sentinel, and heldBy is
// rebuilt by setting each token's bit at its count and or-ing each level
// into the next. Tokens every vertex holds are never candidates and sit
// in no heldBy level.
func (d *diversity) reset(counts []int) {
	copy(d.score, counts)
	clear(d.copies)
	w := d.words
	clear(d.upTo[:w])
	for i := w; i < len(d.upTo); i++ {
		d.upTo[i] = ^uint64(0)
	}
	clear(d.heldBy)
	for t, c := range counts {
		if c < d.n {
			d.heldBy[c*w+t/64] |= 1 << (t % 64)
		}
	}
	for i := w; i < len(d.heldBy); i++ {
		d.heldBy[i] |= d.heldBy[i-w]
	}
}

// claim schedules one more copy of candidate t: t leaves the upTo level
// of its old copy count, the levels above it keep it, and its score rises
// by n.
func (d *diversity) claim(t int) {
	d.upTo[(d.copies[t]+1)*d.words+t/64] &^= 1 << (t % 64)
	d.copies[t]++
	d.score[t] += d.n
}

// pick returns the lowest-score token of wanted ∩ obtainable, or of
// lack ∩ obtainable when that is empty, or -1 when both are. It draws
// from rng exactly as a scan of every candidate in ascending order does:
// once per tie with the running minimum, as Intn(seen).
func (d *diversity) pick(obtainable, wanted, lack tokenset.Set, rng *rand.Rand) int {
	if t := d.pickIn(wanted, obtainable, rng); t != -1 {
		return t
	}
	return d.pickIn(lack, obtainable, rng)
}

// pickIn is pick within one class. The first candidate is the first
// record; from then on each word of class ∩ obtainable is masked with
// the tokens scoring at most the record, so only records and ties are
// visited, and a new record narrows the mask for the rest of its word.
func (d *diversity) pickIn(class, obtainable tokenset.Set, rng *rand.Rand) int {
	i, w := 0, uint64(0)
	for ; i < d.words; i++ {
		if w = class.Word(i) & obtainable.Word(i); w != 0 {
			break
		}
	}
	if w == 0 {
		return -1
	}
	best := i*64 + bits.TrailingZeros64(w)
	w &= w - 1
	bestScore, seen := d.score[best], 1
	lo, hi, held := d.levels(best)
	for {
		w &= d.upTo[lo+i] | d.upTo[hi+i]&d.heldBy[held+i]
		for w != 0 {
			t := i*64 + bits.TrailingZeros64(w)
			w &= w - 1
			if s := d.score[t]; s < bestScore {
				best, bestScore, seen = t, s, 1
				lo, hi, held = d.levels(t)
				w &= d.upTo[lo+i] | d.upTo[hi+i]&d.heldBy[held+i]
			} else {
				// A tie: reservoir-sample for the rarest-*random* behaviour.
				seen++
				if rng.Intn(seen) == 0 {
					best = t
				}
			}
		}
		if i++; i == d.words {
			return best
		}
		w = class.Word(i) & obtainable.Word(i)
	}
}

// levels returns, for a record t of score c + n·k, the word offsets of
// upTo level k (tokens scheduled fewer than k times), upTo level k+1 (at
// most k times) and heldBy level c.
func (d *diversity) levels(t int) (lo, hi, held int) {
	k := d.copies[t]
	c := d.score[t] - d.n*k
	return k * d.words, (k + 1) * d.words, c * d.words
}

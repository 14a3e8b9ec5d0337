package heuristics

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ocd/internal/core"
	"ocd/internal/dynamic"
	"ocd/internal/fault"
	"ocd/internal/sim"
	"ocd/internal/tokenset"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

// refSortByCount is sortByCount as it stood before its buckets spanned
// only the input's counts: maxCount+2 buckets for counts in [0, maxCount].
func refSortByCount(r *raritySorter, tokens []int, counts []int, maxCount int) {
	if len(tokens) < 16 {
		for i := 1; i < len(tokens); i++ {
			t := tokens[i]
			j := i - 1
			for j >= 0 && counts[tokens[j]] > counts[t] {
				tokens[j+1] = tokens[j]
				j--
			}
			tokens[j+1] = t
		}
		return
	}
	if cap(r.bucket) < maxCount+2 {
		r.bucket = make([]int, maxCount+2)
	}
	bucket := r.bucket[:maxCount+2]
	clear(bucket)
	for _, t := range tokens {
		bucket[counts[t]+1]++
	}
	for c := 1; c < len(bucket); c++ {
		bucket[c] += bucket[c-1]
	}
	if cap(r.tmp) < len(tokens) {
		r.tmp = make([]int, len(tokens))
	}
	tmp := r.tmp[:len(tokens)]
	for _, t := range tokens {
		tmp[bucket[counts[t]]] = t
		bucket[counts[t]]++
	}
	copy(tokens, tmp)
}

// refAppendTokensByRarity is Local's request order as it stood before
// appendMovable: every token of set, shuffled, then stably sorted by
// count over all n+2 buckets.
func refAppendTokensByRarity(sorter *raritySorter, buf []int, set tokenset.Set, counts []int, maxCount int, rng *rand.Rand) []int {
	start := len(buf)
	buf = set.AppendTo(buf)
	tokens := buf[start:]
	for i := len(tokens) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		tokens[i], tokens[j] = tokens[j], tokens[i]
	}
	refSortByCount(sorter, tokens, counts, maxCount)
	return buf
}

// refLocal is Local's planner as it stood before appendMovable: it drives
// the same per-run state as localStrategy, but hands requestClass every
// token v lacks, movable or not. It is the whole-run reference for
// TestLocalRunsMatchReference.
type refLocal struct{ *localStrategy }

// refLocalOf wraps the localStrategy that f builds in refLocal.
func refLocalOf(f sim.Factory) sim.Factory {
	return sim.WrapStrategy(f, func(_ *core.Instance, s sim.Strategy) (sim.Strategy, error) {
		return refLocal{s.(*localStrategy)}, nil
	})
}

func (r refLocal) Plan(st *sim.State) []core.Move {
	l := r.localStrategy
	g, n := st.Inst.G, st.Inst.N()
	counts := l.counts
	switch {
	case l.gossip != nil:
		l.gossip.exchange(st)
		l.fill(st, l.gossip.have, n)
	case l.ring != nil:
		view := l.stale(st)
		l.fill(st, view, 0)
		l.count(view)
	default:
		if l.changes.Delta(st) {
			for _, mv := range st.Delivered {
				l.gain(g, mv.To, mv.Token)
			}
		} else {
			l.rebuild(st)
		}
		counts = st.HaveCounts()
	}
	l.rem.reset(g)
	l.moves = l.moves[:0]
	l.perm = permInto(l.perm, st.Rand, n)
	for _, v := range l.perm {
		if l.gossip != nil {
			l.count(l.gossip.have[v*n : (v+1)*n])
		}
		r.appendRequests(st, counts, v)
	}
	return l.moves
}

func (r refLocal) appendRequests(st *sim.State, counts []int, v int) {
	l := r.localStrategy
	inIDs := st.Inst.G.InArcIDs(v)
	if len(inIDs) == 0 {
		return
	}
	clear(l.open)
	for j, id := range inIDs {
		if l.rem.leftID(id) > 0 {
			l.open[j>>6] |= 1 << (j & 63)
		}
	}
	st.MissingInto(v, l.wanted)
	st.LackingInto(v, l.other)
	l.other.DifferenceWith(l.wanted)
	n := st.Inst.N()
	l.tokens = refAppendTokensByRarity(&l.sorter, l.tokens[:0], l.wanted, counts, n, st.Rand)
	wantedEnd := len(l.tokens)
	l.tokens = refAppendTokensByRarity(&l.sorter, l.tokens, l.other, counts, n, st.Rand)
	l.requestClass(st, v, l.tokens[:wantedEnd])
	l.requestClass(st, v, l.tokens[wantedEnd:])
}

// plannerInstances builds the instances the Local and Bandwidth reference
// tests run on: single-file on random and transit-stub graphs at n=100
// and n=400 (one graph of n=60 each under -short), and the benchmark's
// three multi-file shapes on the smaller random graph. It returns them
// with their names in sorted order.
func plannerInstances(t *testing.T) ([]string, map[string]*core.Instance) {
	t.Helper()
	sizes := []int{100, 400}
	if testing.Short() {
		sizes = []int{60}
	}
	insts := map[string]*core.Instance{}
	var small *core.Instance
	for _, n := range sizes {
		g, err := topology.Random(n, topology.DefaultCaps, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		ts, err := topology.TransitStubN(n, topology.DefaultCaps, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		insts[fmt.Sprintf("random-n%d", n)] = workload.SingleFile(g, 100)
		insts[fmt.Sprintf("transit-stub-n%d", n)] = workload.SingleFile(ts, 100)
		if small == nil {
			small = insts[fmt.Sprintf("random-n%d", n)]
		}
	}
	g := small.G
	var err error
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
	return names, insts
}

// compareEngines runs factory and ref on inst under sim.Run, under
// membership churn that drops every departed vertex's tokens (wipes take
// the rebuild path), and under link failure (arc-set changes), and
// requires move-for-move identical schedules and a completed sim.Run.
func compareEngines(t *testing.T, inst *core.Instance, factory, ref sim.Factory, opts sim.Options) {
	t.Helper()
	res, err := sim.Run(inst, factory, opts)
	refRes, refErr := sim.Run(inst, ref, opts)
	compareRuns(t, "sim.Run", res, err, refRes, refErr)
	if !res.Completed {
		t.Fatalf("sim.Run: incomplete after %d steps (%v)", len(res.Schedule.Steps), err)
	}
	for _, p := range []struct {
		engine string
		plan   func() fault.Plan
	}{
		{"churn", func() fault.Plan {
			return fault.Plan{Crashes: fault.NewRandomChurn(0.05, 0.5, 7), StateLoss: fault.DropAll}
		}},
		{"link-failure", func() fault.Plan { return fault.Plan{Capacity: dynamic.LinkFailure{P: 0.1, Seed: 3}} }},
	} {
		fres, err := fault.Run(inst, factory, p.plan(), opts)
		fref, refErr := fault.Run(inst, ref, p.plan(), opts)
		compareRuns(t, p.engine, fres.Result, err, fref.Result, refErr)
	}
}

// TestLocalRunsMatchReference runs Local, LocalDelayed(2) and
// ProtocolLocal(nil) beside refLocal on plannerInstances under each
// engine of compareEngines, and requires move-for-move identical
// schedules. ProtocolLocal recounts rarity from n gossip rows for each
// requester, O(n²·m) a turn for m tokens, so it runs only on the
// single-file instances of at most 100 vertices.
func TestLocalRunsMatchReference(t *testing.T) {
	names, insts := plannerInstances(t)
	planners := []struct {
		name    string
		factory sim.Factory
	}{
		{"local", Local},
		{"local-delayed-2", LocalDelayed(2)},
		{"protocol-local", ProtocolLocal(nil)},
	}
	// A stale or gossiped view idles the first turns.
	opts := sim.Options{Seed: 5, MaxSteps: 120, IdlePatience: 8}
	for _, name := range names {
		for _, p := range planners {
			if p.name == "protocol-local" && (insts[name].N() > 100 || insts[name].NumTokens != 100) {
				continue
			}
			t.Run(name+"/"+p.name, func(t *testing.T) {
				compareEngines(t, insts[name], p.factory, refLocalOf(p.factory), opts)
			})
		}
	}
}

// TestSortByCountMatchesStableSort holds sortByCount to
// slices.SortStableFunc by count on lengths 0 to 40, either side of the
// insertion-sort cutoff at 16: one distinct count, counts at 0 and at
// maxCount, heavy ties, and spread counts, each over its tight count
// range and over the full range [0, maxCount].
func TestSortByCountMatchesStableSort(t *testing.T) {
	const maxCount = 400
	rng := rand.New(rand.NewSource(1))
	shapes := []struct {
		name  string
		count func(i int) int
	}{
		{"one count", func(int) int { return 7 }},
		{"zero", func(int) int { return 0 }},
		{"max", func(int) int { return maxCount }},
		{"zero and max", func(int) int { return maxCount * rng.Intn(2) }},
		{"heavy ties", func(int) int { return 100 + rng.Intn(3) }},
		{"spread", func(int) int { return rng.Intn(maxCount + 1) }},
		{"descending", func(i int) int { return maxCount - i }},
	}
	var sorter raritySorter
	for _, s := range shapes {
		for k := 0; k <= 40; k++ {
			// Token IDs are shuffled so that token order says nothing.
			tokens := rng.Perm(64)[:k]
			counts := make([]int, 64)
			for i, tok := range tokens {
				counts[tok] = s.count(i)
			}
			lo, hi := maxCount, 0
			for _, tok := range tokens {
				lo, hi = min(lo, counts[tok]), max(hi, counts[tok])
			}
			name := fmt.Sprintf("%s/k%d", s.name, k)
			checkSortByCount(t, name, &sorter, tokens, counts, lo, hi)
			checkSortByCount(t, name+"/full range", &sorter, tokens, counts, 0, maxCount)
		}
	}
}

// checkSortByCount fails t unless sortByCount over [lo, hi] orders tokens
// as a stable sort by count does.
func checkSortByCount(t *testing.T, name string, sorter *raritySorter, tokens, counts []int, lo, hi int) {
	t.Helper()
	got := slices.Clone(tokens)
	sorter.sortByCount(got, counts, lo, hi)
	want := slices.Clone(tokens)
	slices.SortStableFunc(want, func(a, b int) int { return counts[a] - counts[b] })
	if !slices.Equal(got, want) {
		t.Fatalf("%s: sortByCount(%v) over [%d, %d] = %v, want %v", name, tokens, lo, hi, got, want)
	}
}

// FuzzSortByCount decodes tokens and their counts from fuzzed bytes and
// requires sortByCount over the tokens' count range to order them as a
// stable sort by count does. Each byte is one token, taken in order; its
// low five bits give its count plus data[0] (an offset of up to 255, so
// the range rarely starts at 0), and a repeated byte repeats a count.
func FuzzSortByCount(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 1, 1, 1})
	f.Add([]byte{0, 5, 3, 5, 1, 0, 3, 2, 2, 5, 4, 1, 0, 3, 1, 5, 2, 4})
	f.Add([]byte{200, 31, 0, 31, 0, 31, 0, 31, 0, 31, 0, 31, 0, 31, 0, 31, 0, 31, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		offset, rest := int(data[0]), data[1:]
		tokens := make([]int, len(rest))
		counts := make([]int, len(rest))
		lo, hi := 0, 0
		for i, b := range rest {
			tokens[i] = len(rest) - 1 - i
			counts[tokens[i]] = offset + int(b&31)
			if i == 0 {
				lo, hi = counts[tokens[i]], counts[tokens[i]]
			}
			lo, hi = min(lo, counts[tokens[i]]), max(hi, counts[tokens[i]])
		}
		var sorter raritySorter
		checkSortByCount(t, "fuzzed tokens", &sorter, tokens, counts, lo, hi)
	})
}

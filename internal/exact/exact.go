// Package exact computes optimal solutions of the Overlay Content
// Distribution problem for small graphs, the "simple algorithm … and a
// branch-and-bound search strategy" the paper uses to calibrate its
// heuristics (§1, §3).
//
// SolveFOCD finds a minimum-makespan schedule by iterative deepening over
// the schedule length with memoized depth-first search; SolveEOCD finds a
// minimum-bandwidth schedule within a timestep horizon by branch-and-bound
// over per-step move subsets. Both are exponential — FOCD is NP-complete
// (Theorem 3) — so both take a search-node budget and fail cleanly when it
// is exhausted.
//
// Both searches mutate one possession array in place: a candidate step is
// applied with an undo log of the (vertex, token) bits it newly set and
// reverted after its subtree, and candidates are enumerated into per-depth
// frames that are refilled, not reallocated, at every node. The frames
// come from a pool shared by all solves, and a returned schedule is copied
// out of them before they go back. SolveEOCD records with each candidate
// step its size and its gain, the number of missing wanted (vertex,
// token) pairs it delivers, and decides from those two numbers whether
// the child is done, out of steps or cut by the count of missing pairs
// before applying it. A child that survives is applied and cut again
// when its cost plus the §3.3 Steiner-forest bound of its possession
// (steiner.ForestBound) reaches the incumbent; only the children that
// survive both are expanded. A cut child is still counted as a node,
// while a subset the count would cut against the incumbent the node
// started with is not enumerated at all, so node counts and budget
// errors are those of the reference search in reference_test.go that
// states these rules from their definitions. With one step left only a
// done child can act, and the smallest done children are the exact
// covers of the missing wanted pairs (one delivering move per pair,
// within capacity), so such a node counts its covers before enumerating
// anything: with none it is finished, with one that cover is the
// incumbent, and only with two or more are its subsets enumerated and
// sorted.
package exact

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"ocd/internal/core"
	"ocd/internal/graph"
	"ocd/internal/tokenset"
)

// ErrBudget is returned when the search exceeds its node budget.
var ErrBudget = errors.New("exact: search budget exhausted")

// ErrUnsatisfiable is returned when no schedule can satisfy the instance.
var ErrUnsatisfiable = errors.New("exact: instance is unsatisfiable")

// Options bounds the search.
type Options struct {
	// MaxNodes caps the number of search nodes expanded (0 = 5e6).
	MaxNodes int
	// MaxSteps caps the makespan SolveFOCD deepens to (0 = the Theorem 1
	// horizon). SolveEOCD does not read it: its horizon is an argument.
	MaxSteps int
}

func (o Options) nodes() int {
	if o.MaxNodes <= 0 {
		return 5_000_000
	}
	return o.MaxNodes
}

// bit is one (vertex, token) possession bit.
type bit struct{ v, t int }

// apply adds the moves of st to possess in place and appends to undo the
// bits it newly set. Two moves of one step can deliver the same token to
// the same vertex, and only the first sets the bit, so reverting exactly
// the logged bits restores the possession the step started from.
func apply(possess []tokenset.Set, st core.Step, undo []bit) []bit {
	for _, mv := range st {
		if !possess[mv.To].Has(mv.Token) {
			possess[mv.To].Add(mv.Token)
			undo = append(undo, bit{mv.To, mv.Token})
		}
	}
	return undo
}

// revert clears the bits apply logged.
func revert(possess []tokenset.Set, undo []bit) {
	for _, b := range undo {
		possess[b.v].Remove(b.t)
	}
}

// frame holds one search depth's candidate steps back to back in one
// arena, as [lo, hi) spans in the order they were enumerated, SolveEOCD's
// copy of those spans in the size order it tries them in, and the undo
// log of the step being tried. A node refills its depth's frame instead of
// allocating; the schedule on the search path aliases the arenas until it
// is cloned out.
type frame struct {
	//ocd:scratch
	arena  []core.Move
	spans  []span
	sorted []span
	counts []int
	undo   []bit
}

// span is one candidate step, arena[lo:hi]. SolveEOCD also records its
// gain: how many missing wanted (vertex, token) pairs the step delivers.
type span struct{ lo, hi, gain int }

// sortBySize fills f.sorted with f.spans, largest size first and equal
// sizes in enumeration order: a stable counting sort on size, which is at
// most the node's candidate count.
func (f *frame) sortBySize() {
	f.counts = f.counts[:0]
	for _, sp := range f.spans {
		size := sp.hi - sp.lo
		for len(f.counts) <= size {
			f.counts = append(f.counts, 0)
		}
		f.counts[size]++
	}
	// counts[size] becomes the position of the first span of that size.
	at := 0
	for size := len(f.counts) - 1; size >= 0; size-- {
		at, f.counts[size] = at+f.counts[size], at
	}
	f.sorted = slices.Grow(f.sorted[:0], len(f.spans))[:len(f.spans)]
	for _, sp := range f.spans {
		size := sp.hi - sp.lo
		f.sorted[f.counts[size]] = sp
		f.counts[size]++
	}
}

// frames holds one frame per depth, grown on first use.
type frames []*frame

// framePool recycles frames across solves, as internal/lp recycles its
// workspace: a solve takes one frames value, grows each depth's arena to
// what its nodes need, and puts it back when it returns, so the next
// solve refills arenas that are already large enough. A solve owns its
// frames until it returns, and every schedule it returns or keeps as an
// incumbent is copied out of them.
var framePool sync.Pool

// getFrames takes a frames value from the pool, or makes an empty one.
func getFrames() *frames {
	if fs, ok := framePool.Get().(*frames); ok {
		return fs
	}
	return new(frames)
}

// at returns depth's frame, emptied for the node about to refill it.
func (fs *frames) at(depth int) *frame {
	for len(*fs) <= depth {
		*fs = append(*fs, &frame{})
	}
	f := (*fs)[depth]
	f.arena, f.spans = f.arena[:0], f.spans[:0]
	return f
}

// ----------------------------------------------------------------------
// FOCD: minimum makespan.

// SolveFOCD returns a successful schedule of minimum length (the FOCD
// optimum τ). It iteratively deepens on τ starting from the admissible
// radius-closure lower bound; each depth-limited search enumerates only
// maximal useful move sets (for makespan, possession is monotone: sending
// strictly more useful tokens never delays completion).
func SolveFOCD(inst *core.Instance, opts Options) (*core.Schedule, error) {
	if err := inst.Check(); err != nil {
		return nil, err
	}
	arrivals := core.NewArrivals(inst, nil)
	if !arrivals.Satisfiable() {
		return nil, ErrUnsatisfiable
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = inst.TheoremOneHorizon()
	}
	s := &focdSearch{
		inst:     inst,
		budget:   opts.nodes(),
		memo:     make(map[uint64]int),
		possess:  inst.InitialPossession(),
		arcs:     inst.G.Arcs(),
		arrivals: arrivals,
		frames:   getFrames(),
		useful:   tokenset.New(inst.NumTokens),
	}
	defer framePool.Put(s.frames)
	if core.Done(inst, s.possess) {
		return &core.Schedule{}, nil
	}
	lb := arrivals.Bound()
	if lb < 1 {
		lb = 1
	}
	for tau := lb; tau <= maxSteps; tau++ {
		s.sched.Steps = s.sched.Steps[:0]
		ok, err := s.dfs(tau)
		if err != nil {
			return nil, err
		}
		if ok {
			return s.sched.Clone(), nil
		}
		// Memo entries record failure at a given remaining depth; they stay
		// valid across deepenings because we store the depth that failed.
	}
	return nil, fmt.Errorf("%w within %d steps", ErrUnsatisfiable, maxSteps)
}

type focdSearch struct {
	inst   *core.Instance
	budget int
	nodes  int
	// memo maps possession-hash → largest remaining-step count proven
	// insufficient from that possession.
	memo map[uint64]int
	// possess is the possession at the current node, mutated in place.
	possess []tokenset.Set
	// sched is the path to the current node; its steps alias the frames.
	sched core.Schedule
	// arcs is the arc list in (From, To) order, sorted once per solve.
	arcs []graph.Arc
	// arrivals is the makespan bound's table, refreshed at every node.
	arrivals *core.Arrivals
	frames   *frames
	// Enumeration scratch, consumed before the search descends: the
	// forced moves, every option of every choice arc (one with more
	// useful tokens than capacity) and an odometer over those options.
	useful  tokenset.Set
	tokens  []int
	idx     []int
	forced  []core.Move
	opts    []core.Move
	choices []choice
	digit   []int
}

// choice is one choice arc's options: opts[lo:hi] in runs of k moves.
type choice struct{ lo, hi, k int }

func possessionHash(p []tokenset.Set) uint64 {
	h := uint64(14695981039346656037)
	for _, s := range p {
		h ^= s.Hash()
		h *= 1099511628211
	}
	return h
}

// dfs reports whether the instance completes within `left` further steps.
func (s *focdSearch) dfs(left int) (bool, error) {
	if core.Done(s.inst, s.possess) {
		return true, nil
	}
	if left == 0 {
		return false, nil
	}
	s.nodes++
	if s.nodes > s.budget {
		return false, ErrBudget
	}
	s.arrivals.Refresh(s.possess)
	if s.arrivals.Bound() > left {
		return false, nil
	}
	key := possessionHash(s.possess)
	if failed, ok := s.memo[key]; ok && failed >= left {
		return false, nil
	}

	f := s.frames.at(len(s.sched.Steps))
	s.enumerateMaximalSteps(f)
	for _, sp := range f.spans {
		st := f.arena[sp.lo:sp.hi:sp.hi]
		f.undo = apply(s.possess, st, f.undo[:0])
		//ocd:scratchok the step leaves the schedule before this frame is refilled; a returned schedule is cloned
		s.sched.Append(st)
		ok, err := s.dfs(left - 1)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
		s.sched.Steps = s.sched.Steps[:len(s.sched.Steps)-1]
		revert(s.possess, f.undo)
	}
	if prev, ok := s.memo[key]; !ok || left > prev {
		s.memo[key] = left
	}
	return false, nil
}

// enumerateMaximalSteps fills f with the candidate move sets for one
// timestep: for every arc, all ways to pick min(cap, |useful|) tokens from
// the useful set (useful = tokens the sender has and the receiver lacks),
// crossed over arcs. Arcs with |useful| ≤ cap contribute exactly one
// (forced) choice. Each step is the forced moves followed by one option
// per choice arc, the last choice arc varying fastest. No step is written
// when no useful move exists: the search node is a dead end.
func (s *focdSearch) enumerateMaximalSteps(f *frame) {
	s.forced, s.opts, s.choices = s.forced[:0], s.opts[:0], s.choices[:0]
	for _, a := range s.arcs {
		s.useful.SetDifference(s.possess[a.From], s.possess[a.To])
		s.tokens = s.useful.AppendTo(s.tokens[:0])
		if len(s.tokens) == 0 {
			continue
		}
		if len(s.tokens) <= a.Cap {
			for _, t := range s.tokens {
				s.forced = append(s.forced, core.Move{From: a.From, To: a.To, Token: t})
			}
			continue
		}
		lo := len(s.opts)
		s.opts, s.idx = combinations(s.opts, a, s.tokens, s.idx)
		s.choices = append(s.choices, choice{lo: lo, hi: len(s.opts), k: a.Cap})
	}
	if len(s.forced) == 0 && len(s.choices) == 0 {
		return
	}
	s.digit = s.digit[:0]
	for range s.choices {
		s.digit = append(s.digit, 0)
	}
	for {
		lo := len(f.arena)
		f.arena = append(f.arena, s.forced...)
		for i, c := range s.choices {
			o := c.lo + s.digit[i]*c.k
			f.arena = append(f.arena, s.opts[o:o+c.k]...)
		}
		f.spans = append(f.spans, span{lo: lo, hi: len(f.arena)})
		i := len(s.choices) - 1
		for ; i >= 0; i-- {
			c := s.choices[i]
			if s.digit[i]++; c.lo+s.digit[i]*c.k < c.hi {
				break
			}
			s.digit[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

// combinations appends every a.Cap-subset of tokens to dst as a run of
// a.Cap moves along a, in lexicographic order of token positions. idx is
// reusable scratch, returned grown.
func combinations(dst []core.Move, a graph.Arc, tokens, idx []int) ([]core.Move, []int) {
	k, n := a.Cap, len(tokens)
	idx = idx[:0]
	for i := 0; i < k; i++ {
		idx = append(idx, i)
	}
	for {
		for _, i := range idx {
			dst = append(dst, core.Move{From: a.From, To: a.To, Token: tokens[i]})
		}
		j := k - 1
		for j >= 0 && idx[j] == n-k+j {
			j--
		}
		if j < 0 {
			return dst, idx
		}
		idx[j]++
		for l := j + 1; l < k; l++ {
			idx[l] = idx[l-1] + 1
		}
	}
}

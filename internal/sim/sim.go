// Package sim executes distribution strategies over OCD instances one
// timestep at a time, producing schedules in the §3.1 model.
//
// The engine owns the ground truth (current possession per vertex) and
// enforces the Capacity and Possession constraints on whatever a strategy
// proposes, so a buggy strategy cannot produce an invalid schedule — the
// offending moves are rejected and reported in the run statistics. Each
// heuristic in internal/heuristics declares the knowledge it relies on
// (§4.1/§5.1) through the view it reads; the engine simply hands out a
// read-only view of the state.
package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"ocd/internal/core"
	"ocd/internal/graph"
	"ocd/internal/tokenset"
)

// State is the read-only view a strategy receives each timestep.
//
// Which fields a strategy may consult is a modelling decision documented on
// the strategy itself: Round Robin only reads Possess[v] for its own v;
// Random additionally reads the possession of out-neighbors; Local reads
// the global aggregate vectors; Bandwidth and Global read everything
// (they are the paper's global-knowledge heuristics).
//
// State also carries a change signal, so that a strategy can keep state
// derived from possession and the arc set current instead of rescanning
// every vertex each turn: Delivered holds the last executed step's
// deliveries, the kernel counts executed steps, InvalidateCounts counts
// wipes, and the planning graph's ArcGeneration counts arc-set changes.
// Changes.Delta reads all four and answers "apply Delivered" or "rebuild".
type State struct {
	Inst *core.Instance
	// Possess is the current possession p_i(v) per vertex. Strategies must
	// not mutate these sets. Engines that mutate them directly (instead of
	// through Deliver) must call InvalidateCounts afterwards.
	Possess []tokenset.Set
	// Step is the index of the timestep being planned (0-based).
	Step int
	// Rand is the per-run PRNG for randomized strategies.
	Rand *rand.Rand
	// Delivered is the step the kernel executed last, exactly as appended
	// to the schedule: the moves that reached their receivers, nil after an
	// idle step or a fully lost one, and nil before the first step.
	// Strategies must not mutate it.
	Delivered core.Step

	// counts caches the per-token holder counts |{v : t ∈ p(v)}|, computed
	// lazily by HaveCounts and maintained incrementally by Deliver.
	counts []int
	// executed counts the steps the kernel has executed on this state, and
	// wipes the InvalidateCounts calls; Changes.Delta compares both.
	executed, wipes int
}

// MissingInto overwrites dst with w(v) \ p(v) without allocating. dst must
// have universe NumTokens.
func (s *State) MissingInto(v int, dst tokenset.Set) {
	dst.SetDifference(s.Inst.Want[v], s.Possess[v])
}

// LackingInto overwrites dst with T \ p(v) without allocating. dst must
// have universe NumTokens.
func (s *State) LackingInto(v int, dst tokenset.Set) {
	dst.Fill()
	dst.DifferenceWith(s.Possess[v])
}

// HaveCounts returns, for each token t, the number of vertices currently
// possessing t (the rarity signal shared by the rarest-first heuristics).
// The first call computes the counts in O(n·T/64); afterwards Deliver keeps
// them current in O(1) per delivery, so per-step strategies no longer pay
// the full recount. The returned slice is the state's own cache: read-only.
func (s *State) HaveCounts() []int {
	if s.counts == nil {
		s.counts = make([]int, s.Inst.NumTokens)
		for _, p := range s.Possess {
			p.ForEach(func(t int) bool {
				s.counts[t]++
				return true
			})
		}
	}
	return s.counts
}

// Deliver records the delivery of mv: the destination gains the token and
// the cached have-counts are updated incrementally. The kernel routes every
// delivery through this method and then publishes the step as Delivered;
// any other possession edit must be followed by InvalidateCounts.
func (s *State) Deliver(mv core.Move) {
	if s.counts != nil && !s.Possess[mv.To].Has(mv.Token) {
		s.counts[mv.Token]++
	}
	s.Possess[mv.To].Add(mv.Token)
}

// InvalidateCounts drops the cached have-counts; the next HaveCounts call
// recomputes them. It also counts a wipe, so every strategy rebuilds the
// state it derives from possession at its next Plan. Needed after
// wholesale possession edits such as the fault engine's state-loss events.
func (s *State) InvalidateCounts() {
	s.counts = nil
	s.wipes++
}

// Changes remembers the change signal a strategy last planned against.
// The zero value holds no graph, so the strategy's first Plan rebuilds.
type Changes struct {
	executed, wipes int
	g               *graph.Graph
	gen             uint64
}

// Delta reports whether st differs from the state this strategy last
// planned against by exactly st.Delivered, so that caches derived from
// possession and the arc set may be updated from its moves; false means
// they must be rebuilt. It answers false when the kernel did not execute
// exactly one step since then (a wrapper such as the §4.2 oracle skipped
// Plan), when possession was wiped (InvalidateCounts), or when the
// planning graph or its ArcGeneration changed. Either way it records st
// as the new reference point.
func (c *Changes) Delta(st *State) bool {
	g := st.Inst.G
	delta := c.g == g && c.gen == g.ArcGeneration() &&
		st.executed == c.executed+1 && st.wipes == c.wipes
	*c = Changes{executed: st.executed, wipes: st.wipes, g: g, gen: g.ArcGeneration()}
	return delta
}

// Strategy plans the moves of one timestep. Implementations may keep
// per-run state (e.g. Round Robin's per-arc cursor); a fresh Strategy is
// created for every run via its Factory.
type Strategy interface {
	// Name identifies the heuristic in tables and logs.
	Name() string
	// Plan returns the moves to attempt this timestep. The engine clips
	// them against capacity and possession.
	Plan(st *State) []core.Move
}

// Factory creates a fresh strategy instance for a run. Strategies that
// precompute static structure (e.g. all-pairs distances for Bandwidth)
// do so here.
type Factory func(inst *core.Instance, rng *rand.Rand) (Strategy, error)

// Failer is implemented by strategies that can fail internally and want
// the cause surfaced when a run stalls (e.g. the fault package's retry
// wrapper after exhausting MaxAttempts). Exec joins a non-nil Err into the
// stall error; a strategy that has not failed returns nil.
type Failer interface {
	// Err reports why the strategy stopped proposing moves, or nil.
	Err() error
}

// Result summarizes a run, however it stopped: completed, cut off at the
// step limit, settled by an interceptor or stalled.
type Result struct {
	Strategy string
	Schedule *core.Schedule
	// Completed reports whether every want set was satisfied within the
	// step limit.
	Completed bool
	// Steps is the makespan (number of timesteps used).
	Steps int
	// Moves is the bandwidth consumed (total moves).
	Moves int
	// PrunedMoves is the bandwidth after the §5.1 pruning post-pass.
	PrunedMoves int
	// Rejected counts strategy-proposed moves the engine had to discard
	// for violating capacity or possession. Zero for correct strategies.
	Rejected int
	// Lost counts accepted moves dropped by the engine's loss policy (a
	// fault plan's Loss model under fault.Run); they consumed capacity but
	// delivered nothing. Always zero for Run, which is lossless.
	Lost int
}

// Options configures a run.
type Options struct {
	// MaxSteps caps the schedule length. Zero means the engine's default:
	// the Theorem 1 horizon H = m·(n−1) plus IdlePatience under Run, and
	// 4H plus IdlePatience under the fault and underlay engines, which
	// legitimately slow distribution down; never less than 1.
	MaxSteps int
	// Seed seeds the run's PRNG.
	Seed int64
	// Prune controls whether Result.PrunedMoves is computed.
	Prune bool
	// IdlePatience is the number of consecutive zero-move timesteps
	// tolerated before the run is declared stalled. Idle steps count
	// toward the makespan; the §4.2 "propagate knowledge, then plan"
	// oracle relies on this to model its diameter-long listening phase.
	IdlePatience int
	// Done overrides the completion predicate (default: every want set is
	// satisfied). The §6 encoding extension uses this for "any k of n
	// coded tokens" semantics.
	Done func(inst *core.Instance, possess []tokenset.Set) bool
	// Observer, when non-nil, receives the kernel's per-step callbacks
	// (internal/trace.StepCollector is the standard consumer). A nil
	// Observer adds no work to the hot loop.
	Observer Observer
}

// ErrStalled is returned when a strategy proposes no admissible move for
// more than IdlePatience consecutive timesteps while wants remain
// unsatisfied. The run's result is finalized all the same. A run cut off at
// MaxSteps returns no error and reports Completed=false.
var ErrStalled = errors.New("sim: strategy stalled with unsatisfied wants")

// Run executes the strategy produced by factory on inst until every want is
// satisfied or the step limit is reached. It is Exec with the zero Engine:
// static capacities, no loss, no interceptor. The §6 lossy channels run
// through fault.Run with a plan's Loss model.
func Run(inst *core.Instance, factory Factory, opts Options) (*Result, error) {
	res, _, _, err := Exec(inst, factory, opts, Engine{})
	return res, err
}

// Exec is the one run entry every engine shares. It checks inst, applies
// the step-limit default when opts.MaxSteps is not positive (the Theorem 1
// horizon plus IdlePatience, at least 1), seeds the run's PRNG and builds
// the strategy, drives the kernel under eng's hooks, and finalizes the
// result however the run stopped. It returns the result, the final
// possession and why the run stopped. On a stall the error is ErrStalled,
// joined with the strategy's own failure when it is a Failer that names
// one. The result is nil, and the reason meaningless, only when the
// instance check or the factory fails.
func Exec(inst *core.Instance, factory Factory, opts Options, eng Engine) (*Result, []tokenset.Set, StopReason, error) {
	if err := inst.Check(); err != nil {
		return nil, nil, 0, err
	}
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = max(inst.TheoremOneHorizon()+opts.IdlePatience, 1)
	}
	if opts.Done == nil {
		opts.Done = core.Done
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	strat, err := factory(inst, rng)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("sim: create strategy: %w", err)
	}
	st := &State{Inst: inst, Possess: inst.InitialPossession(), Rand: rng}
	res := &Result{Strategy: strat.Name(), Schedule: &core.Schedule{}}
	reason, stepAt := eng.run(inst, strat, st, res, &opts)

	res.Completed = opts.Done(inst, st.Possess)
	res.Steps = res.Schedule.Makespan()
	res.Moves = res.Schedule.Moves() + res.Lost
	if opts.Prune && res.Completed {
		res.PrunedMoves = core.Prune(inst, res.Schedule).Moves()
	}
	if reason == StopStalled {
		return res, st.Possess, reason, stalled(strat, stepAt)
	}
	return res, st.Possess, reason, nil
}

// stalled is the error of a stalled run: ErrStalled with where the run
// stopped, joined with the strategy's own failure when it is a Failer that
// names one (e.g. the retry wrapper exhausted its attempts). ErrStalled
// stays the head error, so errors.Is classification holds.
func stalled(strat Strategy, step int) error {
	err := fmt.Errorf("%w: step %d, strategy %s", ErrStalled, step, strat.Name())
	if fs, ok := strat.(Failer); ok {
		if ferr := fs.Err(); ferr != nil {
			return errors.Join(err, ferr)
		}
	}
	return err
}

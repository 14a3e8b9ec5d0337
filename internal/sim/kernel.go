package sim

// The step-kernel: the one plan→admit→loss→deliver loop every engine runs
// through Exec, the one run entry. The kernel owns possession state, dense
// arc-usage accounting, loss draws, idle/stall tracking, and schedule
// assembly; Options supply the step limit, idle patience, completion
// predicate and observer, and everything engine-specific enters through
// the four hooks of Engine. A correctness fix or allocation win in this
// loop lands in every engine at once.
//
// Per-move cost: admission looks an arc up once per run of proposals on
// one (From, To) pair (graph.ArcRun), and a step touches two scratch
// buffers — accepted moves and their arc IDs, grown to the proposal's
// length in one step — from which lost moves are filtered in place. A
// lossless step (no LossPolicy and no Observer) delivers every admitted
// move, so it keeps no arc IDs and skips the loss pass. The only per-step
// allocation is the exact-size copy the schedule keeps.
//
// Equivalence contract: the kernel reproduces each pre-consolidation engine
// byte for byte (see golden_test.go). The ordering facts that contract
// depends on are called out inline — PreStep before the done check, loss
// draws per accepted move in admission order, and idle steps appending a
// nil timestep. One stall contract holds for every engine: Exec finalizes
// the result however the run stopped, a stall included.

import (
	"math/rand"
	"slices"

	"ocd/internal/core"
)

// CapacityModel supplies each timestep's effective arc capacities. StepView
// returns the instance the strategy plans against this step; its graph must
// share the base graph's dense arc IDs — a graph.View of the base, or the
// base itself — because the kernel admits moves against the returned
// graph's CapsByID (0 removes an arc). A nil CapacityModel means the base
// instance and its static capacities.
type CapacityModel interface {
	StepView(step int, st *State) *core.Instance
}

// LossPolicy decides which accepted moves are dropped in transit. Lost is
// called exactly once per accepted move, in admission order — stateful
// policies (PRNG streams, per-arc draw indices) depend on that ordering.
type LossPolicy interface {
	Lost(step int, mv core.Move, arcID int) bool
}

// StepInterceptor hooks engine-specific semantics into fixed points of the
// kernel's timestep. The fault engine is the canonical implementation:
// crash transitions in PreStep, graceful settlement in StopEarly and
// OnIdleLimit.
type StepInterceptor interface {
	// PreStep runs first in every timestep, before the completion check —
	// crash transitions apply even to a step that then terminates.
	// Implementations that mutate possession wholesale must call
	// st.InvalidateCounts, which also makes every strategy rebuild the
	// state it derives from possession (see Changes).
	PreStep(step int, st *State)
	// StopEarly runs after the completion check; returning true stops the
	// run with StopEarly (the fault engine's graceful settlement).
	StopEarly(step int, st *State) bool
	// OnIdleLimit is consulted when idle patience is exhausted; returning
	// true stops the run with StopEarly instead of StopStalled.
	OnIdleLimit(step int, st *State) bool
}

// Observer receives per-step callbacks from the kernel. A nil Observer is
// free: the kernel guards every callback behind a nil check and allocates
// nothing on its behalf. Implementations must not retain the delivered
// slice past OnStep nor mutate the state.
type Observer interface {
	// OnStep runs at the end of every executed timestep, idle steps
	// included (delivered is nil for an idle step).
	OnStep(step int, delivered core.Step, st *State)
	// OnMove runs for every accepted move, after its loss draw and before
	// any delivery of the step applies — st.Possess is the admission-time
	// possession the kernel checked the move against.
	OnMove(step int, mv core.Move, arcID int, lost bool, st *State)
	// OnReject runs for every proposed move the kernel discarded.
	OnReject(step int, mv core.Move, st *State)
}

// StopReason reports why the kernel stopped.
type StopReason int

const (
	// StopDone: the completion predicate held at the top of a timestep.
	StopDone StopReason = iota
	// StopLimit: the step limit was exhausted.
	StopLimit
	// StopStalled: idle patience was exhausted with wants unsatisfied.
	StopStalled
	// StopEarly: the interceptor stopped the run (StopEarly or
	// OnIdleLimit returning true).
	StopEarly
)

// Engine supplies an engine's hooks to Exec. The zero Engine is the
// baseline: static capacities, no loss, no interceptor, no extra admission.
type Engine struct {
	// Capacity supplies per-step effective capacities; nil means the base
	// graph's static capacities.
	Capacity CapacityModel
	// Loss drops accepted moves in transit; nil means lossless.
	Loss LossPolicy
	// Interceptor hooks engine-specific per-step semantics; nil means none.
	Interceptor StepInterceptor
	// Admit, when non-nil, is an extra admission predicate run after the
	// kernel's own checks; it may commit side usage (the underlay engine
	// charges physical links here).
	Admit func(step int, mv core.Move, arcID int) bool
}

// run executes the kernel loop over st under eng's hooks and opts' step
// limit, idle patience, completion predicate (non-nil; Exec defaults it)
// and observer. It assembles the schedule and the Rejected and Lost counts
// into res, and reports why it stopped along with the step index at that
// moment; Exec finalizes the rest of the result.
//
// Admission enforces, in order: token range, arc existence in the base
// graph, effective capacity, sender possession, then the Admit hook. Each
// proposed move is rejected at most once regardless of how many checks it
// fails.
func (eng *Engine) run(inst *core.Instance, strat Strategy, st *State, res *Result, opts *Options) (StopReason, int) {
	done, ic, obs := opts.Done, eng.Interceptor, opts.Observer

	// Per-timestep arc usage and effective capacities are dense slices
	// indexed by the base graph's arc IDs — no per-step map churn. eff is
	// read-only: the base's static capacities, or each step view's. arcs
	// looks a proposal's arc up once per run of moves on one pair; the base
	// graph never changes, so it carries across steps.
	eff := inst.G.CapsByID()
	arcs := inst.G.ArcRun()
	//ocd:scratch
	used := make([]int, inst.G.NumArcs())
	// accepted/acceptedIDs are scratch buffers reused across steps; the
	// loss pass filters accepted in place, and the schedule only ever
	// retains exact-size copies. Only the loss pass and OnMove read the
	// arc IDs, so a lossless step without an observer keeps none.
	//ocd:scratch
	var accepted core.Step
	//ocd:scratch
	var acceptedIDs []int
	tracked := eng.Loss != nil || obs != nil
	idle := 0

	step := 0
	for ; step < opts.MaxSteps; step++ {
		if ic != nil {
			ic.PreStep(step, st)
		}
		if done(inst, st.Possess) {
			return StopDone, step
		}
		if ic != nil && ic.StopEarly(step, st) {
			return StopEarly, step
		}

		view := inst
		if eng.Capacity != nil {
			view = eng.Capacity.StepView(step, st)
			eff = view.G.CapsByID()
		}
		st.Inst = view
		st.Step = step
		proposed := strat.Plan(st)

		clear(used)
		accepted = slices.Grow(accepted[:0], len(proposed))
		if tracked {
			acceptedIDs = slices.Grow(acceptedIDs[:0], len(proposed))
		}
		for _, mv := range proposed {
			id := -1
			if mv.Token >= 0 && mv.Token < inst.NumTokens {
				id = arcs.ID(mv.From, mv.To)
			}
			ok := id >= 0 && used[id] < eff[id] && st.Possess[mv.From].Has(mv.Token)
			if ok && eng.Admit != nil {
				ok = eng.Admit(step, mv, id)
			}
			if !ok {
				res.Rejected++
				if obs != nil {
					obs.OnReject(step, mv, st)
				}
				continue
			}
			used[id]++
			accepted = append(accepted, mv)
			if tracked {
				acceptedIDs = append(acceptedIDs, id)
			}
		}

		if len(accepted) == 0 {
			idle++
			if idle > opts.IdlePatience {
				if ic != nil && ic.OnIdleLimit(step, st) {
					return StopEarly, step
				}
				return StopStalled, step
			}
			res.Schedule.Append(nil)
			st.Delivered = nil
			st.executed++
			if obs != nil {
				obs.OnStep(step, nil, st)
			}
			continue
		}
		idle = 0

		// Lost moves are filtered out of accepted in place (the write index
		// never passes the read index), leaving the delivered moves in
		// admission order.
		if tracked {
			n := 0
			for i, mv := range accepted {
				lost := eng.Loss != nil && eng.Loss.Lost(step, mv, acceptedIDs[i])
				if obs != nil {
					obs.OnMove(step, mv, acceptedIDs[i], lost, st)
				}
				if lost {
					res.Lost++
					continue
				}
				accepted[n] = mv
				n++
			}
			accepted = accepted[:n]
		}
		// The schedule keeps an exact-size copy — the scratch buffer's
		// spare capacity never escapes, and a fully-lost step records nil.
		out := slices.Clip(append(core.Step(nil), accepted...))
		for _, mv := range out {
			st.Deliver(mv)
		}
		res.Schedule.Append(out)
		st.Delivered = out
		st.executed++
		if obs != nil {
			obs.OnStep(step, out, st)
		}
	}
	return StopLimit, step
}

// WrapStrategy lifts a per-run strategy wrapper into a Factory: the inner
// factory builds its strategy, then wrap decorates it. Wrappers compose
// facade names (e.g. retry(roundrobin), oracle(global)) that experiment
// tables key on, so Name composition is pinned by tests.
func WrapStrategy(inner Factory, wrap func(inst *core.Instance, s Strategy) (Strategy, error)) Factory {
	return func(inst *core.Instance, rng *rand.Rand) (Strategy, error) {
		s, err := inner(inst, rng)
		if err != nil {
			return nil, err
		}
		return wrap(inst, s)
	}
}

package fault

import (
	"ocd/internal/core"
	"ocd/internal/dynamic"
	"ocd/internal/graph"
	"ocd/internal/sim"
	"ocd/internal/tokenset"
)

// Receiver reports one vertex's outcome under faults.
type Receiver struct {
	V int
	// Wanted is |w(v)|; Got is |w(v) ∩ p(v)| at termination.
	Wanted, Got int
	// Undeliverable is the number of missing tokens proven unreachable —
	// held by no vertex that can still reach v.
	Undeliverable int
}

// Liveness classifies a run's terminal state beyond the binary Completed:
// faults introduce the third outcome — blocked now, satisfiable later.
type Liveness string

const (
	// LivenessComplete: every want was satisfied.
	LivenessComplete Liveness = "complete"
	// LivenessHealable: wants remain, but at least one missing token is
	// still held by a live (or transiently down) vertex that can reach
	// its receiver once transient partitions heal and crashed vertices
	// recover — the run stalled or timed out on a recoverable fault, it
	// did not fail.
	LivenessHealable Liveness = "healable"
	// LivenessUnsatisfiable: every remaining missing token is provably
	// undeliverable — extinct or permanently cut off. Healing changes
	// nothing.
	LivenessUnsatisfiable Liveness = "unsatisfiable"
)

// Result summarizes a faulted run: the base engine metrics plus the
// degradation report.
type Result struct {
	*sim.Result
	// Plan names the fault plan the run executed under.
	Plan string
	// Graceful reports that the run terminated because every remaining
	// unsatisfied want was proven undeliverable — the principled outcome
	// the paper's static model has no need for. Completed and Graceful are
	// mutually exclusive; a run that is neither hit the step limit or the
	// IdlePatience stall.
	Graceful bool
	// Liveness distinguishes a run stalled behind transient faults
	// (healable — satisfiable once partitions heal and vertices recover)
	// from one whose remaining wants are proven undeliverable.
	Liveness Liveness
	// Unsatisfiable lists the receivers with undeliverable wants, in
	// vertex order.
	Unsatisfiable []Receiver
	// DeliveredFraction is (Σ_v |w(v) ∩ p(v)|) / (Σ_v |w(v)|) at
	// termination — 1.0 exactly when Completed.
	DeliveredFraction float64
	// Retransmissions counts deliveries of a token to a vertex that had
	// already received it once (retry traffic and crash re-downloads).
	Retransmissions int
	// WastedMoves counts deliveries whose effect was later destroyed by a
	// crash state wipe.
	WastedMoves int
	// Crashes counts up→down transitions (under membership churn, the
	// departures); DownSteps the total vertex-down timesteps.
	Crashes, DownSteps int
}

// Run executes the strategy produced by factory on inst under the fault
// plan. It extends the static engine with crash/recovery semantics, the
// plan's deterministic loss model, and live-holder reachability detection:
// instead of stalling until IdlePatience expires, a run whose remaining
// wants are provably undeliverable (sole holders crashed forever, receivers
// permanently partitioned) terminates gracefully with the degradation
// metrics filled in. A stalled run reports them too, beside ErrStalled.
//
// MaxSteps of 0 defaults to 4× the Theorem 1 horizon plus IdlePatience —
// faults legitimately slow distribution down. Loss comes from plan.Loss.
func Run(inst *core.Instance, factory sim.Factory, plan Plan, opts sim.Options) (*Result, error) {
	// The plan's hooks are sized from the instance, so it is checked first.
	if err := inst.Check(); err != nil {
		return nil, err
	}
	plan = plan.normalized()
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 4*inst.TheoremOneHorizon() + opts.IdlePatience
	}
	fres := &Result{Plan: plan.Name()}
	fk := newFaultKernel(inst, plan, fres)
	eng := sim.Engine{Capacity: fk, Interceptor: fk}
	// NoLoss drops nothing and keeps no draw state, so a lossless plan
	// runs the kernel's lossless step.
	if _, lossless := plan.Loss.(NoLoss); !lossless {
		eng.Loss = fk
	}
	res, possess, reason, err := sim.Exec(inst, factory, opts, eng)
	if res == nil {
		return nil, err
	}
	fres.Result = res
	// StopEarly means every remaining want is proven undeliverable: the
	// graceful outcome, reported well before the horizon.
	fres.Graceful = reason == sim.StopEarly && !res.Completed
	fres.DeliveredFraction = deliveredFraction(inst, possess)
	if res.Completed {
		fres.Liveness = LivenessComplete
	} else {
		// Classification needs the undeliverable sets current as of the
		// final step: detection normally runs only on crash events, but
		// permanent partitions shift reachability with no vertex
		// transition to trigger it.
		fk.detect(possess)
		fres.Liveness = classifyLiveness(inst, possess, fk.unsat)
	}
	fres.Unsatisfiable = receiverReports(inst, possess, fk.unsat)
	fres.Retransmissions = retransmissions(inst, res.Schedule)
	return fres, err
}

// retransmissions counts the schedule's deliveries of a token to a vertex
// that had already taken delivery of it once (retry traffic and crash
// re-downloads). Lost moves are not in the schedule, so only deliveries
// count.
func retransmissions(inst *core.Instance, sched *core.Schedule) int {
	delivered := make([]tokenset.Set, inst.N())
	for v := range delivered {
		delivered[v] = tokenset.New(inst.NumTokens)
	}
	n := 0
	for _, st := range sched.Steps {
		for _, mv := range st {
			if delivered[mv.To].Has(mv.Token) {
				n++
			} else {
				delivered[mv.To].Add(mv.Token)
			}
		}
	}
	return n
}

// classifyLiveness folds the per-receiver undeliverable sets into the
// run-level verdict: healable when any remaining missing token is not
// proven undeliverable (so healing transient faults could still satisfy
// it), unsatisfiable when every one is. The classification reads the raw
// want sets, not a custom Done predicate.
func classifyLiveness(inst *core.Instance, possess []tokenset.Set, unsat []tokenset.Set) Liveness {
	missingAny := false
	for v := range possess {
		missing := inst.Want[v].Difference(possess[v])
		if missing.Empty() {
			continue
		}
		missingAny = true
		if !missing.SubsetOf(unsat[v]) {
			return LivenessHealable
		}
	}
	if !missingAny {
		return LivenessComplete
	}
	return LivenessUnsatisfiable
}

// faultKernel is the fault plan's hook bundle: one value implements the
// kernel's CapacityModel (crash- and plan-adjusted capacities),
// StepInterceptor (crash transitions, reachability detection, graceful
// settlement), and LossPolicy (the plan's deterministic per-arc draws).
// It writes the crash counters of res while the run is live; res.Result
// is filled in once the run is over.
type faultKernel struct {
	inst  *core.Instance
	plan  Plan
	res   *Result
	aware dynamic.PossessionAware

	arcs []graph.Arc // base arcs, sorted by (From, To), cached per run
	ids  []int       // base arc ID per arcs[i]
	// caps holds this step's effective capacity per base arc ID; view is
	// refreshed from it and viewInst, built once per run, carries it to
	// the strategy.
	caps     []int
	view     *graph.View
	viewInst *core.Instance
	reach    reachability

	prevDown, down, perm []bool
	// unsat accumulates each receiver's proven-undeliverable tokens.
	unsat      []tokenset.Set
	needDetect bool
	// step is the current timestep, recorded by PreStep so the
	// permanently-severed closure handed to detect queries the partition
	// model at the right moment (permanence is monotone in step).
	step int

	// lossK holds the per-arc draw index k within the current step, so
	// every accepted move gets its own deterministic draw from the plan's
	// loss model.
	lossK    []int
	lossStep int
}

func newFaultKernel(inst *core.Instance, plan Plan, res *Result) *faultKernel {
	n := inst.N()
	arcs := inst.G.Arcs()
	ids := make([]int, len(arcs))
	for i, a := range arcs {
		ids[i] = inst.G.ArcID(a.From, a.To)
	}
	aware, _ := plan.Capacity.(dynamic.PossessionAware)
	view := graph.NewView(inst.G)
	fk := &faultKernel{
		inst:       inst,
		plan:       plan,
		res:        res,
		aware:      aware,
		arcs:       arcs,
		ids:        ids,
		caps:       make([]int, inst.G.NumArcs()),
		view:       view,
		viewInst:   &core.Instance{G: view.Graph(), NumTokens: inst.NumTokens, Have: inst.Have, Want: inst.Want},
		reach:      newReachability(inst),
		prevDown:   make([]bool, n),
		down:       make([]bool, n),
		perm:       make([]bool, n),
		unsat:      make([]tokenset.Set, n),
		needDetect: true, // always vet reachability before the first step
		lossK:      make([]int, inst.G.NumArcs()),
		lossStep:   -1,
	}
	for v := 0; v < n; v++ {
		fk.unsat[v] = tokenset.New(inst.NumTokens)
	}
	return fk
}

// permSevered is the arc-level analogue of the perm vertex flags, handed
// to detect as a closure: permanence is monotone in step, so querying at
// the current step sees every cut that will never heal.
func (f *faultKernel) permSevered(from, to int) bool {
	return f.plan.Partitions.Permanent(f.step, from, to)
}

// detect refreshes the undeliverable-token sets against the current
// possession and permanent faults.
func (f *faultKernel) detect(possess []tokenset.Set) {
	f.reach.detect(f.inst, possess, f.perm, f.permSevered, f.unsat)
}

// PreStep implements sim.StepInterceptor: crash transitions first — a
// vertex that is down this step cannot send, receive, or plan, and its
// state-loss policy applies at the moment it goes down — then
// reachability detection if any transition occurred.
func (f *faultKernel) PreStep(step int, st *sim.State) {
	f.step = step
	wiped := false
	for v := range f.down {
		f.down[v] = f.plan.Crashes.Down(step, v)
		if f.down[v] {
			f.res.DownSteps++
			f.perm[v] = f.perm[v] || f.plan.Crashes.Permanent(step, v)
			if !f.prevDown[v] {
				f.needDetect = true
				f.res.Crashes++
				switch f.plan.StateLoss {
				case DropDownloads:
					f.res.WastedMoves += st.Possess[v].DifferenceCount(f.inst.Have[v])
					st.Possess[v].CopyFrom(f.inst.Have[v])
					wiped = true
				case DropAll:
					f.res.WastedMoves += st.Possess[v].DifferenceCount(f.inst.Have[v])
					st.Possess[v].Clear()
					wiped = true
				}
			}
		}
		f.prevDown[v] = f.down[v]
	}
	if wiped {
		st.InvalidateCounts()
	}
	if f.needDetect {
		f.detect(st.Possess)
		f.needDetect = false
	}
}

// StopEarly implements sim.StepInterceptor: the graceful-settlement check.
func (f *faultKernel) StopEarly(_ int, st *sim.State) bool {
	return settled(f.inst, st.Possess, f.unsat)
}

// OnIdleLimit implements sim.StepInterceptor: re-check reachability before
// declaring a stall — the strategy may be idle precisely because nothing
// deliverable remains.
func (f *faultKernel) OnIdleLimit(_ int, st *sim.State) bool {
	f.detect(st.Possess)
	return settled(f.inst, st.Possess, f.unsat)
}

// StepView implements sim.CapacityModel: the capacity model's output with
// crashed vertices' arcs removed, as the run's one view of the base graph,
// refreshed in place.
func (f *faultKernel) StepView(step int, st *sim.State) *core.Instance {
	if f.aware != nil {
		f.aware.Observe(step, st.Possess)
	}
	for i, a := range f.arcs {
		c := 0
		if !f.down[a.From] && !f.down[a.To] && !f.plan.Partitions.Severed(step, a.From, a.To) {
			c = f.plan.Capacity.Cap(step, a)
		}
		f.caps[f.ids[i]] = c
	}
	f.view.Refresh(f.caps)
	return f.viewInst
}

// Lost implements sim.LossPolicy via the plan's deterministic loss model;
// the per-arc k index advances for every accepted move, dropped or not.
func (f *faultKernel) Lost(step int, mv core.Move, arcID int) bool {
	if step != f.lossStep {
		clear(f.lossK)
		f.lossStep = step
	}
	k := f.lossK[arcID]
	f.lossK[arcID]++
	return f.plan.Loss.Drop(step, mv.From, mv.To, k)
}

// reachability is detect's working set, owned by one run's kernel so
// detection allocates nothing after set-up.
type reachability struct {
	live    []bool         // per base arc ID: the arc survives permanent faults
	reach   []tokenset.Set // per vertex: tokens held by a vertex that reaches it
	missing tokenset.Set
}

func newReachability(inst *core.Instance) reachability {
	r := reachability{
		live:    make([]bool, inst.G.NumArcs()),
		reach:   make([]tokenset.Set, inst.N()),
		missing: tokenset.New(inst.NumTokens),
	}
	for v := range r.reach {
		r.reach[v] = tokenset.New(inst.NumTokens)
	}
	return r
}

// detect grows the per-receiver undeliverable-token sets: a missing token
// is undeliverable when no copy survives on any vertex that is not
// permanently down, or when no surviving holder reaches the receiver
// through the subgraph of non-permanently-down vertices and
// non-permanently-severed arcs. All conditions are monotone — permanent
// failures accumulate and extinct tokens stay extinct — so the sets only
// ever grow and detection need only run when a fault transition occurs
// (plus once at finalization, to pick up permanent partitions that sever
// arcs without any vertex transition).
//
// Transiently-down vertices keep their place in the reachability graph:
// they will return (with whatever possession the state-loss policy left
// them), so their wants and holdings still count. Likewise transiently
// severed arcs stay: they will heal.
//
// Rather than one search per receiver, every vertex's reachable-token set
// starts as its own possession and absorbs its live in-neighbors' sets,
// sweep after sweep, until no set grows: the fixed point is the union of
// the possessions of every vertex that reaches it.
func (r *reachability) detect(inst *core.Instance, possess []tokenset.Set, perm []bool, severed func(from, to int) bool, unsat []tokenset.Set) {
	g := inst.G
	n := inst.N()
	for v := 0; v < n; v++ {
		ids := g.InArcIDs(v)
		for i, a := range g.In(v) {
			r.live[ids[i]] = !perm[a.From] && !perm[v] && !severed(a.From, v)
		}
		r.reach[v].CopyFrom(possess[v])
	}
	for grew := true; grew; {
		grew = false
		for v := 0; v < n; v++ {
			before := r.reach[v].Count()
			ids := g.InArcIDs(v)
			for i, a := range g.In(v) {
				if r.live[ids[i]] {
					r.reach[v].UnionWith(r.reach[a.From])
				}
			}
			grew = grew || r.reach[v].Count() != before
		}
	}
	for v := 0; v < n; v++ {
		r.missing.SetDifference(inst.Want[v], possess[v])
		if r.missing.Empty() {
			continue
		}
		if !perm[v] {
			// A permanently-dead receiver can never take delivery; any
			// other misses only what nothing that reaches it holds.
			r.missing.DifferenceWith(r.reach[v])
		}
		unsat[v].UnionWith(r.missing)
	}
}

// settled reports whether every remaining missing token is proven
// undeliverable — the graceful-termination condition.
func settled(inst *core.Instance, possess []tokenset.Set, unsat []tokenset.Set) bool {
	any := false
	for v := range possess {
		missing := inst.Want[v].Difference(possess[v])
		if missing.Empty() {
			continue
		}
		if !missing.SubsetOf(unsat[v]) {
			return false
		}
		any = true
	}
	return any
}

// deliveredFraction is the fraction of all want-set entries satisfied.
func deliveredFraction(inst *core.Instance, possess []tokenset.Set) float64 {
	wanted, got := 0, 0
	for v := range possess {
		wanted += inst.Want[v].Count()
		got += inst.Want[v].IntersectionCount(possess[v])
	}
	if wanted == 0 {
		return 1
	}
	return float64(got) / float64(wanted)
}

// receiverReports lists receivers left with undeliverable wants.
func receiverReports(inst *core.Instance, possess []tokenset.Set, unsat []tokenset.Set) []Receiver {
	var out []Receiver
	for v := range possess {
		missing := inst.Want[v].Difference(possess[v])
		undeliverable := missing.IntersectionCount(unsat[v])
		if undeliverable == 0 {
			continue
		}
		out = append(out, Receiver{
			V:             v,
			Wanted:        inst.Want[v].Count(),
			Got:           inst.Want[v].IntersectionCount(possess[v]),
			Undeliverable: undeliverable,
		})
	}
	return out
}

// Validate replays a faulted schedule with core.Replay under the plan's
// rules. At the top of each step it applies the plan's crash transitions,
// with the state-loss policy wiping a crashing vertex's possession, and
// shows the possession to a possession-aware capacity model. Per move it
// rejects a crashed endpoint and an arc the partition model severs, and
// takes the arc's capacity from the capacity model. That verdict depends
// only on the step and the arc, so the models are asked once per (step,
// arc): the first move on an arc in a step stores the answer under the
// step's stamp, and the arc's later moves in that step reuse it. These
// rules are written here rather than shared with the engine's hooks, so
// that the replay stays an independent check on the engine. Unlike
// core.Validate it does not require the schedule to satisfy every want:
// faulted runs may legitimately end partial. Lost moves are not recorded
// in the schedule, so delivered traffic is a lower bound on each arc's
// usage. Build the plan afresh for the replay: its models keep state.
func Validate(inst *core.Instance, sched *core.Schedule, plan Plan) error {
	plan = plan.normalized()
	aware, _ := plan.Capacity.(dynamic.PossessionAware)
	// Sized from Have and G so that an instance Replay rejects cannot panic
	// here; one it accepts has len(Have) == n and a graph.
	down := make([]bool, len(inst.Have))
	wasDown := make([]bool, len(inst.Have))
	var verdicts []arcVerdict
	if inst.G != nil {
		verdicts = make([]arcVerdict, inst.G.NumArcs())
	}
	_, err := core.Replay(inst, sched, core.Rules{
		BeginStep: func(step int, possess []tokenset.Set) {
			for v := range possess {
				down[v] = plan.Crashes.Down(step, v)
				if down[v] && !wasDown[v] {
					switch plan.StateLoss {
					case DropDownloads:
						possess[v].CopyFrom(inst.Have[v])
					case DropAll:
						possess[v].Clear()
					}
				}
				wasDown[v] = down[v]
			}
			if aware != nil {
				aware.Observe(step, possess)
			}
		},
		CheckMove: func(step int, mv core.Move, id int) (int, string) {
			v := &verdicts[id]
			if v.stamp != step+1 {
				*v = arcVerdict{stamp: step + 1}
				switch {
				case down[mv.From] || down[mv.To]:
					v.reason = "endpoint crashed"
				case plan.Partitions.Severed(step, mv.From, mv.To):
					v.reason = "arc severed by partition"
				default:
					v.capacity = plan.Capacity.Cap(step, graph.Arc{From: mv.From, To: mv.To, Cap: inst.G.CapByID(id)})
				}
			}
			return v.capacity, v.reason
		},
	})
	return err
}

// arcVerdict is Validate's answer for one arc at the step stamp − 1: its
// capacity, or why no move may use it.
type arcVerdict struct {
	stamp, capacity int
	reason          string
}

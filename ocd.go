// Package ocd is the public API of this reproduction of "The Overlay
// Network Content Distribution Problem" (Killian, Vrable, Snoeren, Vahdat,
// Pasquale; UCSD 2005 / PODC 2005 brief announcement).
//
// The package re-exports the problem model (instances, schedules,
// validation, pruning, lower bounds), the topology generators, the paper's
// five distribution heuristics, the exact solvers (schedule branch-and-
// bound and the §3.4 time-indexed integer program), and the experiment
// harness: typed functions for the paper's figures, and RunExperiment for
// every registered experiment by name.
//
// Quick start:
//
//	g, _ := ocd.RandomTopology(100, ocd.DefaultCaps, 42)
//	inst := ocd.SingleFile(g, 200)
//	res, _ := ocd.RunHeuristic(inst, "local", ocd.RunOptions{Seed: 1, Prune: true})
//	fmt.Println(res.Steps, res.Moves, res.PrunedMoves)
package ocd

import (
	"io"
	"strconv"
	"strings"

	"ocd/internal/competitive"
	"ocd/internal/core"
	"ocd/internal/exact"
	"ocd/internal/experiments"
	"ocd/internal/fault"
	"ocd/internal/flow"
	"ocd/internal/graph"
	"ocd/internal/heuristics"
	"ocd/internal/ilp"
	"ocd/internal/sim"
	"ocd/internal/steiner"
	"ocd/internal/tokenset"
	"ocd/internal/topology"
	"ocd/internal/trace"
	"ocd/internal/workload"
)

// NewTokenSet returns an empty token set over [0, universe).
func NewTokenSet(universe int) TokenSet { return tokenset.New(universe) }

// Core model types (§3.1).
type (
	// Instance is an OCD problem instance (G, T, h, w).
	Instance = core.Instance
	// Move assigns one token to one arc for one timestep.
	Move = core.Move
	// Step is the simultaneous move set of one timestep.
	Step = core.Step
	// Schedule is a sequence of timesteps.
	Schedule = core.Schedule
	// Graph is a simple weighted directed graph with capacities.
	Graph = graph.Graph
	// Arc is a directed capacitated edge.
	Arc = graph.Arc
	// CapRange is the inclusive capacity range for generated topologies.
	CapRange = topology.CapRange
	// TokenSet is a bitset over token IDs; Instance.Have and Instance.Want
	// are slices of TokenSet indexed by vertex.
	TokenSet = tokenset.Set
	// RunOptions configures a heuristic run.
	RunOptions = sim.Options
	// RunResult summarizes a heuristic run.
	RunResult = sim.Result
	// Strategy plans the moves of one timestep.
	Strategy = sim.Strategy
	// PlanState is the read-only view a Strategy receives each timestep.
	PlanState = sim.State
	// StrategyFactory creates a fresh Strategy per run.
	StrategyFactory = sim.Factory
	// Table is a rendered experiment result.
	Table = experiments.Table
	// ExactOptions bounds the exact solvers.
	ExactOptions = exact.Options
)

// Fault injection (robustness extension) — deterministic, replayable fault
// plans for the engine in internal/fault.
type (
	// FaultPlan composes loss, crash, state-loss, capacity, and gossip
	// models; the zero value is fault-free.
	FaultPlan = fault.Plan
	// FaultResult extends RunResult with the degradation report.
	FaultResult = fault.Result
	// FaultReceiver is one receiver's outcome under faults.
	FaultReceiver = fault.Receiver
	// LossModel decides per-move drops as a pure function of (step, arc,
	// move index).
	LossModel = fault.LossModel
	// CrashModel decides per-step vertex downtime.
	CrashModel = fault.CrashModel
	// CrashEvent is one scripted crash (RecoverAt < 0 = crash-stop).
	CrashEvent = fault.CrashEvent
	// CrashSchedule replays scripted crash events.
	CrashSchedule = fault.CrashSchedule
	// StateLossPolicy selects what a crashing vertex forgets.
	StateLossPolicy = fault.StateLoss
	// PartitionModel decides per-step arc severing (FaultPlan.Partitions).
	PartitionModel = fault.PartitionModel
	// PartitionEvent is one scripted cut (HealAt < 0 = never heals).
	PartitionEvent = fault.PartitionEvent
	// PartitionSchedule replays scripted partition events.
	PartitionSchedule = fault.PartitionSchedule
	// FaultLiveness classifies a faulted run's terminal state: complete,
	// healable (stalled behind transient faults), or unsatisfiable.
	FaultLiveness = fault.Liveness
)

// Liveness verdicts reported in FaultResult.Liveness.
const (
	LivenessComplete      = fault.LivenessComplete
	LivenessHealable      = fault.LivenessHealable
	LivenessUnsatisfiable = fault.LivenessUnsatisfiable
)

// State-loss policies for crashing vertices.
const (
	// KeepState freezes possession across downtime.
	KeepState = fault.KeepState
	// DropDownloads reverts a crashing vertex to its initial have set.
	DropDownloads = fault.DropDownloads
	// DropAll wipes a crashing vertex entirely — tokens can go extinct.
	DropAll = fault.DropAll
)

// BernoulliLoss drops each move independently with probability P.
func BernoulliLoss(p float64, seed int64) LossModel { return fault.Bernoulli{P: p, Seed: seed} }

// GilbertElliottLoss returns the two-state bursty channel loss model.
func GilbertElliottLoss(pGoodBad, pBadGood, lossGood, lossBad float64, seed int64) LossModel {
	return fault.NewGilbertElliott(pGoodBad, pBadGood, lossGood, lossBad, seed)
}

// RandomCrashes returns memoryless crash/recovery churn; recoverP = 0
// makes every crash permanent, and protected vertices never fail.
func RandomCrashes(crashP, recoverP float64, seed int64, protect ...int) CrashModel {
	return fault.NewRandomCrashes(crashP, recoverP, seed, protect...)
}

// RandomPartitions splits the overlay into k seeded sides and severs every
// cross-side arc during partition episodes: when none is active, one
// starts with probability startP per step and lasts healAfter steps
// (healAfter < 0: the first episode never heals).
func RandomPartitions(k int, startP float64, healAfter int, seed int64) PartitionModel {
	return fault.NewRandomPartitions(k, startP, healAfter, seed)
}

// RunFaulted runs the named heuristic under the fault plan using the
// crash/recovery-aware engine: it detects provably undeliverable receivers
// via live-holder reachability and terminates gracefully with degradation
// metrics instead of stalling. "protocol-local" gossips over the plan's
// Gossip model when it has one.
func RunFaulted(inst *Instance, name string, plan FaultPlan, opts RunOptions) (*FaultResult, error) {
	f, err := experiments.NamedStrategy(name, plan)
	if err != nil {
		return nil, err
	}
	return fault.Run(inst, f, plan, opts)
}

// RunFaultedStrategy is RunFaulted for a custom strategy factory.
func RunFaultedStrategy(inst *Instance, factory StrategyFactory, plan FaultPlan, opts RunOptions) (*FaultResult, error) {
	return fault.Run(inst, factory, plan, opts)
}

// ValidateFaulted replays a faulted schedule against the plan's crash and
// capacity trajectory, checking constraints only — faulted runs may
// legitimately end partial.
func ValidateFaulted(inst *Instance, sched *Schedule, plan FaultPlan) error {
	return fault.Validate(inst, sched, plan)
}

// ValidateConstraints checks the capacity/possession constraints of a
// schedule without requiring that it satisfies every want set.
func ValidateConstraints(inst *Instance, sched *Schedule) error {
	return core.ValidateConstraints(inst, sched)
}

// Error sentinels, for errors.Is on run errors.
var (
	// ErrStalled marks a run that made no progress for a full IdlePatience
	// window with wants unsatisfied. Every engine returns the run's result
	// beside it, finalized like any other. A FaultResult's Liveness says
	// whether the stall was healable or the wants provably dead.
	ErrStalled = sim.ErrStalled
	// ErrRetriesExhausted marks a delivery the retry wrapper abandoned
	// after MaxAttempts; it is joined onto the stall error of a run that
	// subsequently made no progress.
	ErrRetriesExhausted = fault.ErrRetriesExhausted
)

// Experiment registry — every experiment in internal/experiments is a
// declarative spec. The same specs back ocdsim's -experiment mode and its
// -spec sweep files, so RunExperiment, a CLI flag set, and a JSON sweep
// entry are three spellings of the same run.

// ExperimentNames lists the registered experiment specs in sorted order.
func ExperimentNames() []string { return experiments.Names() }

// RunExperiment runs a registered experiment by name with string parameter
// overrides (exactly what `ocdsim -experiment name -param k=v` passes);
// unset parameters take their declared defaults. It is the entry point for
// every experiment, including the fault sweeps and §6 extensions that
// have no typed function below.
func RunExperiment(name string, params map[string]string) (*Table, error) {
	return experiments.Run(name, params, nil)
}

// DefaultCaps is the paper's capacity range: 3..15 tokens per timestep.
var DefaultCaps = topology.DefaultCaps

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// NewInstance returns an instance over g with m tokens and empty have/want
// sets; populate via inst.Have[v].Add(t) and inst.Want[v].Add(t).
func NewInstance(g *Graph, m int) *Instance { return core.NewInstance(g, m) }

// Topology generators (§5.2).

// RandomTopology generates the paper's Erdős–Rényi G(n, 2·ln n/n) graph.
func RandomTopology(n int, caps CapRange, seed int64) (*Graph, error) {
	return topology.Random(n, caps, seed)
}

// TransitStubTopology generates a GT-ITM-style transit-stub graph with
// approximately n vertices.
func TransitStubTopology(n int, caps CapRange, seed int64) (*Graph, error) {
	return topology.TransitStubN(n, caps, seed)
}

// Workloads (§5.2–5.3).

// SingleFile places one m-token file at vertex 0, wanted by every other
// vertex.
func SingleFile(g *Graph, m int) *Instance { return workload.SingleFile(g, m) }

// ReceiverDensity places one m-token file at vertex 0; each other vertex
// wants it with the given probability threshold.
func ReceiverDensity(g *Graph, m int, threshold float64, seed int64) *Instance {
	return workload.ReceiverDensity(g, m, threshold, seed)
}

// MultiFile splits m tokens at vertex 0 into `files` files wanted by
// disjoint receiver groups.
func MultiFile(g *Graph, m, files int) (*Instance, error) {
	return workload.MultiFile(g, m, files)
}

// MultiSender is MultiFile with each file sourced at a random non-wanting
// vertex.
func MultiSender(g *Graph, m, files int, seed int64) (*Instance, error) {
	return workload.MultiSender(g, m, files, seed)
}

// Figure1Instance returns the reconstructed Figure 1 gadget where time and
// bandwidth optima conflict.
func Figure1Instance() *Instance { return workload.Figure1() }

// Heuristics (§5.1).

// Heuristics lists the five heuristic names in paper order.
func Heuristics() []string { return heuristics.Names() }

// HeuristicFactory returns the factory for a named strategy: the paper's
// five heuristics plus the extensions — "tree" and "forest-K" (§2
// architectures), "protocol-local" (§4.1 message passing) and
// "local-delayed-K" (§5.1 stale knowledge), which are Local's planner fed
// gossiped or K-turn-old knowledge, and "retry-<name>" (any of the above
// wrapped in the retry-with-backoff sender for faulted runs). Run
// protocol-local with IdlePatience of at least the graph diameter, and
// local-delayed-K with IdlePatience ≥ K and MaxSteps (K+1)·H + K: a view
// K turns stale can outlast the Theorem 1 horizon H of the default limit.
func HeuristicFactory(name string) (StrategyFactory, error) {
	return experiments.NamedStrategy(name, fault.Plan{})
}

// RunHeuristic runs the named heuristic on the instance.
func RunHeuristic(inst *Instance, name string, opts RunOptions) (*RunResult, error) {
	f, err := HeuristicFactory(name)
	if err != nil {
		return nil, err
	}
	return sim.Run(inst, f, opts)
}

// RunStrategy runs a custom strategy factory on the instance — the
// extension point for user-defined heuristics.
func RunStrategy(inst *Instance, factory StrategyFactory, opts RunOptions) (*RunResult, error) {
	return sim.Run(inst, factory, opts)
}

// RunOracle runs the §4.2 propagate-then-plan online algorithm wrapped
// around the named heuristic; its makespan is within an additive graph
// diameter of the inner plan.
func RunOracle(inst *Instance, name string, seed int64) (*RunResult, error) {
	f, err := HeuristicFactory(name)
	if err != nil {
		return nil, err
	}
	return competitive.RunOracle(inst, f, seed)
}

// Schedule analysis (§3.1, §5.1).

// Validate checks a schedule against the capacity/possession constraints
// and that it satisfies every want set.
func Validate(inst *Instance, sched *Schedule) error { return core.Validate(inst, sched) }

// Prune applies the §5.1 pruning post-pass (duplicate and never-used
// deliveries are removed).
func Prune(inst *Instance, sched *Schedule) *Schedule { return core.Prune(inst, sched) }

// RenderTimeline formats a schedule as a per-timestep text timeline with a
// running completion percentage. maxMovesPerLine truncates wide steps
// (0 = no truncation).
func RenderTimeline(inst *Instance, sched *Schedule, maxMovesPerLine int) string {
	return core.RenderTimeline(inst, sched, maxMovesPerLine)
}

// MakespanLowerBound returns the §5.1 radius-closure bound on remaining
// timesteps from the initial possession.
func MakespanLowerBound(inst *Instance) int { return core.MakespanLowerBound(inst, nil) }

// FlowMakespanLowerBound returns the min-cut bound on remaining timesteps
// (the §2 network-flow relaxation): all missing tokens must cross the
// minimum cut from their holders. Incomparable with the radius bound.
func FlowMakespanLowerBound(inst *Instance) (int, error) {
	return flow.FlowMakespanLowerBound(inst)
}

// CombinedMakespanLowerBound is the max of the radius and flow bounds.
func CombinedMakespanLowerBound(inst *Instance) (int, error) {
	return flow.CombinedMakespanLowerBound(inst)
}

// MaxFlow computes the Edmonds–Karp maximum flow between two vertices of a
// graph, returning the value and the source side of a minimum cut.
func MaxFlow(g *Graph, s, t int) (int, []int, error) { return flow.MaxFlow(g, s, t) }

// BandwidthLowerBound returns the §5.1 remaining-bandwidth bound from the
// initial possession.
func BandwidthLowerBound(inst *Instance) int { return core.BandwidthLowerBound(inst, nil) }

// Exact solvers (§3).

// SolveFOCD returns a minimum-makespan schedule (Fast OCD) by
// branch-and-bound; exponential, intended for small instances.
func SolveFOCD(inst *Instance, opts ExactOptions) (*Schedule, error) {
	return exact.SolveFOCD(inst, opts)
}

// SolveEOCD returns a minimum-bandwidth schedule (Efficient OCD) within
// the given timestep horizon (0 = the Theorem 1 horizon m·(n−1)).
func SolveEOCD(inst *Instance, horizon int, opts ExactOptions) (*Schedule, error) {
	return exact.SolveEOCD(inst, horizon, opts)
}

// SolveILP builds the §3.4 time-indexed integer program for horizon tau
// and solves it by branch-and-bound on an LP relaxation, returning the
// schedule and its optimal move count.
func SolveILP(inst *Instance, tau int) (*Schedule, int, error) {
	prog, err := ilp.Build(inst, tau)
	if err != nil {
		return nil, 0, err
	}
	return prog.Solve(ilp.Options{})
}

// SteinerSchedule realizes §3.3: distribute each token serially over an
// approximate Steiner tree — near-optimal bandwidth, long makespan.
func SteinerSchedule(inst *Instance) (*Schedule, error) {
	return steiner.SerialSchedule(inst)
}

// SolveFOCDILP finds the minimum makespan by binary search on the §3.4
// program's feasibility (the Decisional FOCD problem), returning the
// schedule and the optimal τ.
func SolveFOCDILP(inst *Instance) (*Schedule, int, error) {
	return ilp.SolveFOCD(inst, ilp.Options{})
}

// Paper figures — typed entry points for the seven artifacts of the
// paper's evaluation (Figures 1–7, Theorem 4, the §3.4 IP cross-check).
// Each is one resolution against the registry; every other experiment
// (fault sweeps, §6 extensions, ablations) runs through RunExperiment.

// ExperimentGraphSize reproduces Figure 2 (random) or Figure 3
// (transit-stub) at the given sizes.
func ExperimentGraphSize(transitStub bool, sizes []int, tokens, seeds, repeats int, baseSeed int64) (*Table, error) {
	params := sweepParams(tokens, seeds, repeats, baseSeed)
	params["topology"] = "random"
	if transitStub {
		params["topology"] = "transit-stub"
	}
	params["sizes"] = formatInts(sizes)
	return experiments.Run("graph-size", params, nil)
}

// ExperimentReceiverDensity reproduces Figure 4.
func ExperimentReceiverDensity(n int, thresholds []float64, tokens, seeds, repeats int, baseSeed int64) (*Table, error) {
	params := sweepParams(tokens, seeds, repeats, baseSeed)
	params["n"] = strconv.Itoa(n)
	params["thresholds"] = formatFloats(thresholds)
	return experiments.Run("receiver-density", params, nil)
}

// ExperimentNumFiles reproduces Figure 5 (multiSender=false) or Figure 6
// (multiSender=true).
func ExperimentNumFiles(n int, fileCounts []int, tokens, seeds, repeats int, multiSender bool, baseSeed int64) (*Table, error) {
	params := sweepParams(tokens, seeds, repeats, baseSeed)
	params["n"] = strconv.Itoa(n)
	params["files"] = formatInts(fileCounts)
	params["multi-sender"] = strconv.FormatBool(multiSender)
	return experiments.Run("num-files", params, nil)
}

// ExperimentFigure1 certifies the Figure 1 tradeoff with both exact
// solvers.
func ExperimentFigure1() (*Table, error) {
	return experiments.Run("figure1", nil, nil)
}

// ExperimentFigure7 validates the Theorem 5 reduction on random graphs.
func ExperimentFigure7(graphs, n int, edgeP float64, seed int64) (*Table, error) {
	return experiments.Run("figure7", map[string]string{
		"graphs": strconv.Itoa(graphs), "n": strconv.Itoa(n),
		"edge-p": strconv.FormatFloat(edgeP, 'g', -1, 64), "seed": strconv.FormatInt(seed, 10),
	}, nil)
}

// ExperimentTheorem4 measures the unbounded competitive ratio family.
func ExperimentTheorem4(pathLen int, decoySweep []int, capacity int) (*Table, error) {
	return experiments.Run("theorem4", map[string]string{
		"path": strconv.Itoa(pathLen), "decoys": formatInts(decoySweep), "capacity": strconv.Itoa(capacity),
	}, nil)
}

// ExperimentILPvsBnB cross-checks the two exact solvers on random tiny
// instances.
func ExperimentILPvsBnB(instances, n, m int, seed int64) (*Table, error) {
	return experiments.Run("ilp-vs-bnb", map[string]string{
		"instances": strconv.Itoa(instances), "n": strconv.Itoa(n), "m": strconv.Itoa(m),
		"seed": strconv.FormatInt(seed, 10),
	}, nil)
}

// EncodeInstanceJSON / DecodeInstanceJSON and the schedule counterparts
// serialize workloads for archival and replay.

// EncodeInstanceJSON writes the instance as JSON.
func EncodeInstanceJSON(w io.Writer, inst *Instance) error { return trace.EncodeInstance(w, inst) }

// DecodeInstanceJSON reads and validates an instance from JSON.
func DecodeInstanceJSON(r io.Reader) (*Instance, error) { return trace.DecodeInstance(r) }

// EncodeScheduleJSON writes the schedule as JSON.
func EncodeScheduleJSON(w io.Writer, sched *Schedule) error { return trace.EncodeSchedule(w, sched) }

// DecodeScheduleJSON reads a schedule from JSON.
func DecodeScheduleJSON(r io.Reader) (*Schedule, error) { return trace.DecodeSchedule(r) }

// Step tracing — the simulation kernel's Observer hooks and their standard
// consumer. Attach an Observer through RunOptions.Observer; every engine
// (baseline, fault, underlay) feeds the same callbacks.
type (
	// Observer receives per-step callbacks from the simulation kernel; a
	// nil Observer costs nothing.
	Observer = sim.Observer
	// StepRecord is one condensed timestep of a step trace.
	StepRecord = trace.StepRecord
	// StepCollector is the standard Observer: one StepRecord per timestep.
	StepCollector = trace.StepCollector
)

// NewStepCollector builds a per-step trace collector for runs over inst.
func NewStepCollector(inst *Instance) *StepCollector { return trace.NewStepCollector(inst) }

// EncodeStepTraceJSONL writes step records as JSONL (one object per line).
func EncodeStepTraceJSONL(w io.Writer, recs []StepRecord) error {
	return trace.EncodeStepTraceJSONL(w, recs)
}

// DecodeStepTraceJSONL reads a JSONL step trace back, validating structure.
func DecodeStepTraceJSONL(r io.Reader) ([]StepRecord, error) {
	return trace.DecodeStepTraceJSONL(r)
}

// sweepParams spells the shared sweep parameters the way the facade
// always has: non-positive tokens/seeds/repeats fall back to the spec
// defaults (the paper's settings), and the base seed is passed through.
func sweepParams(tokens, seeds, repeats int, baseSeed int64) map[string]string {
	params := map[string]string{"seed": strconv.FormatInt(baseSeed, 10)}
	if tokens > 0 {
		params["tokens"] = strconv.Itoa(tokens)
	}
	if seeds > 0 {
		params["graph-seeds"] = strconv.Itoa(seeds)
	}
	if repeats > 0 {
		params["repeats"] = strconv.Itoa(repeats)
	}
	return params
}

// formatInts spells an integer list parameter: comma-separated decimals.
func formatInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

// formatFloats spells a float list parameter, each element in the
// shortest form that parses back to the same float64, so the string path
// loses no bit.
func formatFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

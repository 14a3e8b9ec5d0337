package experiments

import (
	"fmt"

	"ocd/internal/core"
	"ocd/internal/exact"
	"ocd/internal/ilp"
	"ocd/internal/runner"
	"ocd/internal/telemetry"
	"ocd/internal/workload"
)

// solverCtrs accumulates ilp.Stats into a registry's solver.* counters.
// The counts are deterministic functions of the solve sequence, and the
// atomic additions are order-free, so cells running concurrently record
// the same totals as a serial run. A nil *solverCtrs records nothing.
type solverCtrs struct {
	nodes, iters, warm *telemetry.Counter
}

func newSolverCtrs(reg *telemetry.Registry) *solverCtrs {
	if reg == nil {
		return nil
	}
	return &solverCtrs{
		nodes: reg.Counter("solver.nodes"),
		iters: reg.Counter("solver.simplex_iterations"),
		warm:  reg.Counter("solver.warm_starts"),
	}
}

func (c *solverCtrs) record(st ilp.Stats) {
	if c == nil {
		return
	}
	c.nodes.Add(int64(st.Nodes))
	c.iters.Add(int64(st.SimplexIterations))
	c.warm.Add(int64(st.WarmStarts))
}

func init() {
	Register(Spec{
		Name:       "figure1",
		Doc:        "Figure 1: time vs bandwidth tension on the gadget, certified by both exact solvers",
		SeedPolicy: SeedNone,
		Run: func(_ Args, em *Emitter) error {
			return figure1Impl(em)
		},
	})
	Register(Spec{
		Name:       "ilp-vs-bnb",
		Doc:        "§3.4 cross-check: time-indexed ILP vs schedule branch-and-bound on random tiny instances",
		SeedPolicy: SeedDerived,
		Params: []Param{
			{Name: "instances", Kind: Int, Default: "10", Doc: "number of random instances", Check: checkPositive},
			{Name: "n", Kind: Int, Default: "5", Doc: "vertices per instance", Check: checkPositive},
			{Name: "m", Kind: Int, Default: "3", Doc: "tokens per instance", Check: checkPositive},
			{Name: "seed", Kind: Int64, Default: "1", Doc: "random seed for the instance stream"},
		},
		Smoke: map[string]string{"instances": "2", "n": "4", "m": "2"},
		Run: func(a Args, em *Emitter) error {
			return ilpVsBnBImpl(a.Int("instances"), a.Int("n"), a.Int("m"), a.Int64("seed"), em)
		},
	})
}

// figure1Impl reproduces the paper's Figure 1 narrative with certified
// optima: on the reconstructed gadget, the minimum-time schedule takes 2
// timesteps and 6 units of bandwidth, while the minimum-bandwidth schedule
// takes 4 units of bandwidth but 3 timesteps. Both the schedule-space
// branch-and-bound and the §3.4 time-indexed ILP certify each point.
func figure1Impl(em *Emitter) error {
	inst := workload.Figure1()
	em.Head("Figure 1: time vs bandwidth tension (certified optima)",
		"objective", "solver", "timesteps", "bandwidth")

	fast, err := exact.SolveFOCD(inst, exact.Options{})
	if err != nil {
		return fmt.Errorf("figure1 focd: %w", err)
	}
	// Minimum bandwidth achievable at the fast makespan.
	fastCheap, err := exact.SolveEOCD(inst, fast.Makespan(), exact.Options{})
	if err != nil {
		return fmt.Errorf("figure1 eocd@fast: %w", err)
	}
	em.Emit("min time", "branch&bound", fast.Makespan(), fastCheap.Moves())

	cheap, err := exact.SolveEOCD(inst, 0, exact.Options{})
	if err != nil {
		return fmt.Errorf("figure1 eocd: %w", err)
	}
	em.Emit("min bandwidth", "branch&bound", cheap.Makespan(), cheap.Moves())

	ctrs := newSolverCtrs(em.Telemetry())
	for _, tau := range []int{fast.Makespan(), cheap.Makespan()} {
		prog, err := ilp.Build(inst, tau)
		if err != nil {
			return err
		}
		sched, obj, st, err := prog.SolveStats(ilp.Options{})
		if err != nil {
			return fmt.Errorf("figure1 ilp tau=%d: %w", tau, err)
		}
		ctrs.record(st)
		em.Emit(fmt.Sprintf("min bandwidth @ tau=%d", tau), "time-indexed ILP",
			sched.Makespan(), obj)
	}
	em.Note("paper: minimum time = 2 timesteps / 6 bandwidth; minimum bandwidth = 4 bandwidth / 3 timesteps")
	return nil
}

// ilpVsBnBImpl cross-validates the two exact solvers on random small
// instances: for each instance the §3.4 ILP optimum must equal the
// schedule-space branch-and-bound optimum for the same horizon.
func ilpVsBnBImpl(instances, n, m int, seed int64, em *Emitter) error {
	em.Head("§3.4 cross-check: time-indexed ILP vs schedule branch-and-bound",
		"instance", "n", "tokens", "tau", "ilp-bw", "bnb-bw", "agree")
	// Instances are drawn serially from one RNG stream; the two exact
	// solves per instance (deterministic, seed-free) fan out as cells.
	insts := workload.RandomTinyInstances(seed, instances, n, m)
	type crossCell struct {
		n, tokens, tau, ilpBW, bnbBW int
	}
	ctrs := newSolverCtrs(em.Telemetry())
	cells := make([]runner.Cell[crossCell], instances)
	for i := range insts {
		i := i
		inst := insts[i]
		cells[i] = runner.Cell[crossCell]{
			Key: fmt.Sprintf("inst%d", i),
			Run: func(int64) (crossCell, error) {
				fast, err := exact.SolveFOCD(inst, exact.Options{})
				if err != nil {
					return crossCell{}, fmt.Errorf("instance %d focd: %w", i, err)
				}
				tau := fast.Makespan() + 1 // give one slack step for cheaper plans
				bnb, err := exact.SolveEOCD(inst, tau, exact.Options{})
				if err != nil {
					return crossCell{}, fmt.Errorf("instance %d eocd: %w", i, err)
				}
				prog, err := ilp.Build(inst, tau)
				if err != nil {
					return crossCell{}, err
				}
				_, obj, st, err := prog.SolveStats(ilp.Options{})
				if err != nil {
					return crossCell{}, fmt.Errorf("instance %d ilp: %w", i, err)
				}
				ctrs.record(st)
				return crossCell{n: inst.N(), tokens: inst.NumTokens, tau: tau, ilpBW: obj, bnbBW: bnb.Moves()}, nil
			},
		}
	}
	results, err := runner.Map(seed, cells, runner.Options{Metrics: telemetry.NewRunnerMetrics(em.Telemetry())})
	if err != nil {
		return err
	}
	for i, res := range results {
		em.Emit(i, res.n, res.tokens, res.tau, res.ilpBW, res.bnbBW, res.ilpBW == res.bnbBW)
	}
	return nil
}

// RandomTinyInstances forwards to workload.RandomTinyInstances for the
// benchmark's solver workload, which still calls it here.
func RandomTinyInstances(seed int64, count, n, m int) []*core.Instance {
	return workload.RandomTinyInstances(seed, count, n, m)
}

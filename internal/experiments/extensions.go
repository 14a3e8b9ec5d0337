package experiments

import (
	"fmt"

	"ocd/internal/core"
	"ocd/internal/dynamic"
	"ocd/internal/encoding"
	"ocd/internal/exact"
	"ocd/internal/fault"
	"ocd/internal/heuristics"
	"ocd/internal/runner"
	"ocd/internal/sim"
	"ocd/internal/telemetry"
	"ocd/internal/topology"
	"ocd/internal/underlay"
	"ocd/internal/workload"
)

func init() {
	Register(Spec{
		Name:       "dynamic-conditions",
		Doc:        "§6 changing network conditions: every heuristic under time-varying capacity models",
		SeedPolicy: SeedDerived,
		Params: []Param{
			{Name: "n", Kind: Int, Default: "30", Doc: "number of vertices", Check: checkPositive},
			{Name: "tokens", Kind: Int, Default: "24", Doc: "number of tokens in the file", Check: checkPositive},
			{Name: "seed", Kind: Int64, Default: "1", Doc: "random seed (topology, models, strategies)"},
		},
		Smoke: map[string]string{"n": "12", "tokens": "6"},
		Run: func(a Args, em *Emitter) error {
			return dynamicConditionsImpl(a.Int("n"), a.Int("tokens"), a.Int64("seed"), em)
		},
	})
	Register(Spec{
		Name:       "loss-coding",
		Doc:        "§6 encoding: uncoded vs (k,n)-coded distribution under per-move loss",
		SeedPolicy: SeedDerived,
		Params: []Param{
			{Name: "n", Kind: Int, Default: "30", Doc: "number of vertices", Check: checkPositive},
			{Name: "tokens", Kind: Int, Default: "24", Doc: "number of tokens in the file", Check: checkPositive},
			{Name: "loss", Kind: Float, Default: "0.2", Doc: "per-move loss probability in [0,1]", Check: checkUnit},
			{Name: "redundancies", Kind: Floats, Default: "1,1.25,1.5,2",
				Doc: "coding redundancy factors (n/k)", Check: checkAll(checkNonEmpty, checkPositive)},
			{Name: "seed", Kind: Int64, Default: "1", Doc: "random seed"},
		},
		Smoke: map[string]string{"n": "12", "tokens": "8", "redundancies": "1,1.5"},
		Run: func(a Args, em *Emitter) error {
			return lossCodingImpl(a.Int("n"), a.Int("tokens"), a.Float("loss"), a.Floats("redundancies"), a.Int64("seed"), em)
		},
	})
	Register(Spec{
		Name:       "underlay",
		Doc:        "§6 realistic topologies: overlay-only capacities vs shared physical links",
		SeedPolicy: SeedDerived,
		Params: []Param{
			{Name: "phys-n", Kind: Int, Default: "30", Doc: "physical network size (approximate)", Check: checkPositive},
			{Name: "hosts", Kind: Int, Default: "12", Doc: "number of overlay hosts", Check: checkPositive},
			{Name: "tokens", Kind: Int, Default: "16", Doc: "number of tokens in the file", Check: checkPositive},
			{Name: "seed", Kind: Int64, Default: "1", Doc: "random seed"},
		},
		Smoke: map[string]string{"phys-n": "12", "hosts": "6", "tokens": "6"},
		Run: func(a Args, em *Emitter) error {
			return underlayComparisonImpl(a.Int("phys-n"), a.Int("hosts"), a.Int("tokens"), a.Int64("seed"), em)
		},
	})
	Register(Spec{
		Name:       "knowledge-delay",
		Doc:        "§5.1 ablation: the Local heuristic with peer views 0..max-delay turns stale",
		SeedPolicy: SeedDerived,
		Params: []Param{
			{Name: "n", Kind: Int, Default: "30", Doc: "number of vertices", Check: checkPositive},
			{Name: "tokens", Kind: Int, Default: "16", Doc: "number of tokens in the file", Check: checkPositive},
			{Name: "max-delay", Kind: Int, Default: "3", Doc: "largest staleness to ablate", Check: checkNonNegative},
			{Name: "seed", Kind: Int64, Default: "1", Doc: "random seed"},
		},
		Smoke: map[string]string{"n": "12", "tokens": "6", "max-delay": "1"},
		Run: func(a Args, em *Emitter) error {
			return knowledgeDelayImpl(a.Int("n"), a.Int("tokens"), a.Int("max-delay"), a.Int64("seed"), em)
		},
	})
	Register(Spec{
		Name:       "tradeoff-curve",
		Doc:        "§3.4 hybrid objective: certified minimum bandwidth at every makespan bound",
		SeedPolicy: SeedNone,
		Params: []Param{
			{Name: "instance", Kind: Instance, Default: "figure1",
				Doc: "problem instance: \"figure1\" or a path to an instance JSON file"},
		},
		Run: func(a Args, em *Emitter) error {
			return tradeoffCurveImpl(a.Instance("instance"), em)
		},
	})
}

// dynamicConditionsImpl reproduces the §6 "Changing network conditions"
// scenario: the same workload under static capacities, cross traffic,
// random link failures, periodic load, node churn, and a possession-aware
// adversary, for each heuristic.
func dynamicConditionsImpl(n, tokens int, seed int64, em *Emitter) error {
	g, err := topology.Random(n, topology.DefaultCaps, seed)
	if err != nil {
		return err
	}
	inst := workload.SingleFile(g, tokens)
	// Plans are built per cell: the possession-aware adversary and the
	// memoizing crash chain mutate internal state while running, and giving
	// every heuristic a freshly constructed plan with the same seed keeps
	// the comparison paired.
	type condition struct {
		name string
		plan func(seed int64) fault.Plan
	}
	capacity := func(mk func(seed int64) dynamic.Model) condition {
		// Model names do not depend on the seed.
		return condition{mk(seed).Name(), func(s int64) fault.Plan { return fault.Plan{Capacity: mk(s)} }}
	}
	conditions := []condition{
		capacity(func(int64) dynamic.Model { return dynamic.Static{} }),
		capacity(func(s int64) dynamic.Model { return dynamic.CrossTraffic{MaxShare: 0.7, Seed: s} }),
		capacity(func(s int64) dynamic.Model { return dynamic.LinkFailure{P: 0.3, Seed: s} }),
		capacity(func(int64) dynamic.Model { return dynamic.Periodic{Period: 8, Floor: 0.2} }),
		// Node churn is a crash chain whose downtime is independent per
		// step: down with probability 0.2 whatever the previous step, state
		// kept across downtime, the source never down.
		{"churn(0.20)", func(s int64) fault.Plan { return fault.Plan{Crashes: fault.NewRandomCrashes(0.2, 0.8, s, 0)} }},
		capacity(func(int64) dynamic.Model { return dynamic.NewAdversary(inst, g.NumArcs()/10) }),
	}
	em.Head(fmt.Sprintf("§6 changing network conditions (n=%d, %d tokens)", n, tokens),
		"model", "heuristic", "moves", "bandwidth", "completed")
	type dynCell struct {
		steps, moves int
		completed    bool
		failed       bool
	}
	var cells []runner.Cell[dynCell]
	for _, c := range conditions {
		for i, factory := range heuristics.All() {
			factory := factory
			cells = append(cells, runner.Cell[dynCell]{
				Key:     c.name + "/" + heuristics.Names()[i],
				SeedKey: "dyn-workload",
				Run: func(cellSeed int64) (dynCell, error) {
					res, err := fault.Run(inst, factory, c.plan(cellSeed), sim.Options{
						Seed: cellSeed, IdlePatience: 30,
					})
					if res != nil {
						// A stalled run's result still holds the steps it executed.
						telemetry.RecordRun(em.Telemetry(), "fault", res.Result)
					}
					if err != nil {
						return dynCell{failed: true}, nil
					}
					return dynCell{steps: res.Steps, moves: res.Moves, completed: res.Completed}, nil
				},
			})
		}
	}
	results, err := runner.Map(seed, cells, runner.Options{Metrics: telemetry.NewRunnerMetrics(em.Telemetry())})
	if err != nil {
		return err
	}
	idx := 0
	for _, c := range conditions {
		for i := range heuristics.All() {
			res := results[idx]
			idx++
			if res.failed {
				em.Emit(c.name, heuristics.Names()[i], "-", "-", false)
				continue
			}
			em.Emit(c.name, heuristics.Names()[i], res.steps, res.moves, res.completed)
		}
	}
	em.Note("§6: capacities varying between turns model cross traffic, channel dynamics, mobility, and DoS")
	em.Note("churn keeps the source up; the adversary cuts the most useful tenth of the arcs each turn")
	return nil
}

// lossCodingImpl reproduces the §6 "Encoding" scenario: under per-move
// loss, compare the uncoded instance against (k, n) coded expansions with
// increasing redundancy.
func lossCodingImpl(n, tokens int, lossRate float64, redundancies []float64, seed int64, em *Emitter) error {
	g, err := topology.Random(n, topology.DefaultCaps, seed)
	if err != nil {
		return err
	}
	inst := workload.SingleFile(g, tokens)
	em.Head(fmt.Sprintf("§6 encoding under %.0f%% loss (n=%d, %d tokens)",
		lossRate*100, n, tokens),
		"scheme", "overhead", "moves", "bandwidth", "lost", "completed")
	// Round Robin is the knowledge-free sender for which coding matters:
	// a lost specific token costs it a full cycle, while a coded receiver
	// accepts any k-of-n arrivals.
	k := 8
	if tokens < k {
		k = tokens
	}
	lossy := func(cellSeed int64) fault.Plan {
		return fault.Plan{Loss: fault.Bernoulli{P: lossRate, Seed: cellSeed}}
	}
	type codedCell struct {
		scheme, overhead   string
		steps, moves, lost int
		completed          bool
	}
	cells := []runner.Cell[codedCell]{{
		Key:     "uncoded",
		SeedKey: "loss-workload",
		Run: func(cellSeed int64) (codedCell, error) {
			base, err := fault.Run(inst, heuristics.RoundRobin, lossy(cellSeed), sim.Options{
				Seed: cellSeed, IdlePatience: 10,
			})
			if err != nil {
				return codedCell{}, fmt.Errorf("uncoded run: %w", err)
			}
			telemetry.RecordRun(em.Telemetry(), "fault", base.Result)
			return codedCell{scheme: "uncoded", overhead: "1.00",
				steps: base.Steps, moves: base.Moves, lost: base.Lost, completed: base.Completed}, nil
		},
	}}
	for _, r := range redundancies {
		nCoded := int(float64(k)*r + 0.5)
		if nCoded < k {
			nCoded = k
		}
		cells = append(cells, runner.Cell[codedCell]{
			Key:     fmt.Sprintf("coded(%d/%d)@r%.2f", k, nCoded, r),
			SeedKey: "loss-workload",
			Run: func(cellSeed int64) (codedCell, error) {
				coded, err := encoding.Expand(inst, k, nCoded)
				if err != nil {
					return codedCell{}, err
				}
				res, err := coded.Run(heuristics.RoundRobin, lossy(cellSeed), sim.Options{
					Seed: cellSeed, IdlePatience: 10,
				})
				if err != nil {
					return codedCell{}, fmt.Errorf("coded run r=%.2f: %w", r, err)
				}
				telemetry.RecordRun(em.Telemetry(), "fault", res.Result)
				return codedCell{scheme: fmt.Sprintf("coded(%d/%d)", k, nCoded),
					overhead: fmt.Sprintf("%.2f", coded.Overhead()),
					steps:    res.Steps, moves: res.Moves, lost: res.Lost, completed: res.Completed}, nil
			},
		})
	}
	results, err := runner.Map(seed, cells, runner.Options{Metrics: telemetry.NewRunnerMetrics(em.Telemetry())})
	if err != nil {
		return err
	}
	for _, res := range results {
		em.Emit(res.scheme, res.overhead, res.steps, res.moves, res.lost, res.completed)
	}
	em.Note("§6: sub-token redundancy trades bandwidth overhead for loss resilience")
	em.Note("completion under coding requires any k of n coded tokens per file")
	return nil
}

// underlayComparisonImpl reproduces the §6 "Realistic topologies"
// scenario: the same overlay workload run with independent logical
// capacities (the paper's model) versus shared physical capacities.
func underlayComparisonImpl(physN, hosts, tokens int, seed int64, em *Emitter) error {
	net, err := underlay.RandomNetwork(physN, hosts, 2, topology.DefaultCaps, seed)
	if err != nil {
		return err
	}
	inst := workload.SingleFile(net.Overlay, tokens)
	em.Head(fmt.Sprintf("§6 realistic topologies: overlay-only vs shared underlay (phys≈%d, hosts=%d, sharing=%.1fx)",
		physN, hosts, net.SharingFactor()),
		"heuristic", "overlay-moves", "underlay-moves", "slowdown", "overlay-bw", "underlay-bw")
	// One cell per heuristic runs both the logical and the physical
	// simulation so the slowdown ratio is computed from a single seed draw.
	type underlayCell struct {
		logicalSteps, physicalSteps int
		logicalMoves, physicalMoves int
	}
	factories := heuristics.All()
	cells := make([]runner.Cell[underlayCell], len(factories))
	for i, factory := range factories {
		factory := factory
		name := heuristics.Names()[i]
		cells[i] = runner.Cell[underlayCell]{
			Key:     "underlay/" + name,
			SeedKey: "underlay-workload",
			Run: func(cellSeed int64) (underlayCell, error) {
				logical, err := sim.Run(inst, factory, sim.Options{Seed: cellSeed})
				telemetry.RecordRun(em.Telemetry(), "sim", logical)
				if err != nil {
					return underlayCell{}, fmt.Errorf("logical %s: %w", name, err)
				}
				physical, err := net.Run(inst, factory, sim.Options{Seed: cellSeed, IdlePatience: 20})
				telemetry.RecordRun(em.Telemetry(), "underlay", physical)
				if err != nil {
					return underlayCell{}, fmt.Errorf("physical %s: %w", name, err)
				}
				return underlayCell{
					logicalSteps: logical.Steps, physicalSteps: physical.Steps,
					logicalMoves: logical.Moves, physicalMoves: physical.Moves,
				}, nil
			},
		}
	}
	results, err := runner.Map(seed, cells, runner.Options{Metrics: telemetry.NewRunnerMetrics(em.Telemetry())})
	if err != nil {
		return err
	}
	for i, res := range results {
		slow := "-"
		if res.logicalSteps > 0 {
			slow = fmt.Sprintf("%.2f", float64(res.physicalSteps)/float64(res.logicalSteps))
		}
		em.Emit(heuristics.Names()[i], res.logicalSteps, res.physicalSteps, slow,
			res.logicalMoves, res.physicalMoves)
	}
	em.Note("§6: logical links sharing physical links make overlay capacities dependent; the overlay-only model is optimistic")
	return nil
}

// knowledgeDelayImpl is the §5.1 relaxation ablation: the Local heuristic
// with peer state views 0..maxDelay turns stale.
func knowledgeDelayImpl(n, tokens, maxDelay int, seed int64, em *Emitter) error {
	g, err := topology.Random(n, topology.DefaultCaps, seed)
	if err != nil {
		return err
	}
	inst := workload.SingleFile(g, tokens)
	em.Head(fmt.Sprintf("§5.1 knowledge-delay ablation for the Local heuristic (n=%d)", n),
		"delay", "moves", "bandwidth", "pruned-bw")
	type delayCell struct {
		steps, moves, pruned int
	}
	cells := make([]runner.Cell[delayCell], maxDelay+1)
	for d := 0; d <= maxDelay; d++ {
		d := d
		cells[d] = runner.Cell[delayCell]{
			Key:     fmt.Sprintf("delay%d", d),
			SeedKey: "delay-workload",
			Run: func(cellSeed int64) (delayCell, error) {
				// A view d turns stale can need (d+1)·H + d steps, past
				// the Theorem 1 horizon H that bounds a live view.
				res, err := sim.Run(inst, heuristics.LocalDelayed(d), sim.Options{
					Seed: cellSeed, Prune: true, IdlePatience: d + 1,
					MaxSteps: (d+1)*inst.TheoremOneHorizon() + d,
				})
				telemetry.RecordRun(em.Telemetry(), "sim", res)
				if err != nil {
					return delayCell{}, fmt.Errorf("delay %d: %w", d, err)
				}
				if !res.Completed {
					return delayCell{}, fmt.Errorf("delay %d: incomplete after %d steps", d, res.Steps)
				}
				return delayCell{steps: res.Steps, moves: res.Moves, pruned: res.PrunedMoves}, nil
			},
		}
	}
	results, err := runner.Map(seed, cells, runner.Options{Metrics: telemetry.NewRunnerMetrics(em.Telemetry())})
	if err != nil {
		return err
	}
	for d, res := range results {
		em.Emit(d, res.steps, res.moves, res.pruned)
	}
	em.Note("stale peer views cost duplicate deliveries (bandwidth) and extra turns; delay 0 is the paper's Local heuristic")
	return nil
}

// tradeoffCurveImpl realizes the §3.4 hybrid objective: the minimum
// bandwidth achievable at every makespan from the FOCD optimum up to the
// EOCD optimum's natural length, certified by the exact solver. The
// endpoints are the two poles of Figure 1.
func tradeoffCurveImpl(inst *core.Instance, em *Emitter) error {
	fast, err := exact.SolveFOCD(inst, exact.Options{})
	if err != nil {
		return fmt.Errorf("tradeoff focd: %w", err)
	}
	cheap, err := exact.SolveEOCD(inst, 0, exact.Options{})
	if err != nil {
		return fmt.Errorf("tradeoff eocd: %w", err)
	}
	em.Head("§3.4 hybrid objective: bandwidth-optimal subject to a makespan bound",
		"tau", "min-bandwidth", "at-focd-optimum", "at-eocd-optimum")
	last := cheap.Makespan()
	if last < fast.Makespan() {
		last = fast.Makespan()
	}
	// The exact solver is deterministic (no PRNG), so the cells ignore their
	// derived seeds; the runner still parallelizes the independent solves.
	var cells []runner.Cell[int]
	for tau := fast.Makespan(); tau <= last; tau++ {
		tau := tau
		cells = append(cells, runner.Cell[int]{
			Key: fmt.Sprintf("tau%d", tau),
			Run: func(int64) (int, error) {
				sched, err := exact.SolveEOCD(inst, tau, exact.Options{})
				if err != nil {
					return 0, fmt.Errorf("tradeoff tau=%d: %w", tau, err)
				}
				return sched.Moves(), nil
			},
		})
	}
	moves, err := runner.Map(0, cells, runner.Options{Metrics: telemetry.NewRunnerMetrics(em.Telemetry())})
	if err != nil {
		return err
	}
	for i, mv := range moves {
		tau := fast.Makespan() + i
		em.Emit(tau, mv, tau == fast.Makespan(), tau == last)
	}
	em.Note("the curve is non-increasing in tau; its endpoints are the Figure 1 poles")
	return nil
}

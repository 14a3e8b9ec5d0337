package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"ocd"
	"ocd/internal/dynamic"
	"ocd/internal/experiments"
	"ocd/internal/ilp"
	"ocd/internal/runner"
	"ocd/internal/underlay"
)

// Engines a cell can run; the per-layer counters are kept per engine.
const (
	engineSim      = "sim"
	engineFault    = "fault"
	engineUnderlay = "underlay"
	engineSolver   = "solver"
)

// outcome is what one cell reports. The counters feed the output digest;
// fail is empty when every check passed and otherwise names the first
// failed check.
type outcome struct {
	index     int
	key       string
	engine    string
	heuristic string
	skipped   bool // started after the pass's time budget ran out

	steps, moves, pruned, rejected, lost, retrans int
	// Solver work counters (solver cells only).
	nodes, iters, warm, flips, restores int

	fail       string
	start, end time.Duration // offsets from the start of the pass
	spans      []span
	plain      *outcome // in a traced pass, the same cell run untraced just before
}

// job is one cell's work over inputs built at set-up. run receives the
// cell's tracer (nil when untraced) and the seed runner.Map derives from
// the run seed and the job key.
type job struct {
	key string
	run func(tr *tracer, seed int64) outcome
}

// scale sizes a workload: the benchmark uses each workload's full scale,
// the tests a reduced one. Each workload reads the fields it needs.
type scale struct {
	sizes        []int // overlay sizes
	graphs       int   // graph seeds (or underlay networks) per shape and size
	repeats      int   // runs per (input, heuristic) pair
	physN, hosts int   // underlay physical network size and overlay hosts
	tiny         int   // solver instances
}

type workload struct {
	name  string
	full  scale
	setup func(seed int64, sc scale, tr *tracer) ([]job, error)
}

// The workloads. One cycle of the first three takes 10-15 s at two workers
// on the 2-core benchmark host, so a 10 s run sees each cell at most once
// and its percentiles weigh every distinct cell equally; the solver's cycle
// takes ~6 s. The README gives the reasons for each workload.
var workloads = []workload{
	{"static-grid", scale{sizes: []int{100, 200, 400}, graphs: 16, repeats: 2}, setupStaticGrid},
	{"multifile-sparse", scale{sizes: []int{200}, graphs: 24, repeats: 1}, setupMultifile},
	{"faulted", scale{sizes: []int{200}, graphs: 20, repeats: 1, physN: 400, hosts: 60}, setupFaulted},
	{"solver", scale{tiny: 3000}, setupSolver},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// bounds are the §5.1 lower bounds of an instance, computed at set-up.
type bounds struct{ makespan, bandwidth int }

// input is one instance with its bounds.
type input struct {
	key  string
	inst *ocd.Instance
	lb   bounds
}

// build makes one instance inside a "workload.build" span and its bounds
// inside a "core.bounds" span.
func build(tr *tracer, key string, mk func() (*ocd.Instance, error)) (input, error) {
	sp := tr.begin("workload.build", 0)
	inst, err := mk()
	tr.end(sp)
	if err != nil {
		return input{}, fmt.Errorf("%s: %w", key, err)
	}
	sp = tr.begin("core.bounds", 0)
	lb := bounds{ocd.MakespanLowerBound(inst), ocd.BandwidthLowerBound(inst)}
	tr.end(sp)
	return input{key, inst, lb}, nil
}

// topology builds one overlay graph inside a "topology.<kind>" span.
func topology(tr *tracer, kind string, n int, seed int64) (*ocd.Graph, error) {
	sp := tr.begin("topology."+kind, 0)
	defer tr.end(sp)
	if kind == "transit_stub" {
		return ocd.TransitStubTopology(n, ocd.DefaultCaps, seed)
	}
	return ocd.RandomTopology(n, ocd.DefaultCaps, seed)
}

// strata groups a workload's jobs by the shape of their work, such as
// (graph kind, size, heuristic), in the order the strata are first named.
type strata struct {
	index map[string]int
	jobs  [][]job
}

func (s *strata) add(stratum string, j job) {
	if s.index == nil {
		s.index = make(map[string]int)
	}
	i, ok := s.index[stratum]
	if !ok {
		i = len(s.jobs)
		s.index[stratum] = i
		s.jobs = append(s.jobs, nil)
	}
	s.jobs[i] = append(s.jobs[i], j)
}

// heuristicJobs adds one job per heuristic and repeat over in, to the
// stratum <stratum>/<heuristic>.
func (s *strata) heuristicJobs(stratum string, in input, repeats int, names []string,
	mk func(in input, h string, f ocd.StrategyFactory) func(*tracer, int64) outcome) error {
	for _, h := range names {
		f, err := ocd.HeuristicFactory(h)
		if err != nil {
			return err
		}
		run := mk(in, h, f)
		for r := 0; r < repeats; r++ {
			s.add(stratum+"/"+h, job{key: fmt.Sprintf("%s/%s/r%d", in.key, h, r), run: run})
		}
	}
	return nil
}

// order shuffles each stratum by the seed and then interleaves the strata
// evenly: the i-th of a stratum's k jobs lands at position (i+u)/k of the
// run, u a seeded offset per stratum. Every prefix of the order then holds
// each stratum in proportion to its size, so a time-bounded pass runs the
// same mix of work however far it gets.
func (s *strata) order(seed int64) []job {
	rng := rand.New(rand.NewSource(seed))
	type slot struct {
		at float64
		j  job
	}
	var slots []slot
	for _, js := range s.jobs {
		rng.Shuffle(len(js), func(a, b int) { js[a], js[b] = js[b], js[a] })
		u := rng.Float64()
		for i, j := range js {
			slots = append(slots, slot{(float64(i) + u) / float64(len(js)), j})
		}
	}
	sort.SliceStable(slots, func(a, b int) bool { return slots[a].at < slots[b].at })
	jobs := make([]job, len(slots))
	for i, sl := range slots {
		jobs[i] = sl.j
	}
	return jobs
}

// setupStaticGrid builds the Figure 2/3 grid: single-file instances of 100
// tokens on random and transit-stub graphs.
func setupStaticGrid(seed int64, sc scale, tr *tracer) ([]job, error) {
	var st strata
	for _, kind := range []string{"random", "transit_stub"} {
		for _, n := range sc.sizes {
			for g := 0; g < sc.graphs; g++ {
				key := fmt.Sprintf("%s/n%d/g%d", kind, n, g)
				graph, err := topology(tr, kind, n, runner.Seed(seed, key))
				if err != nil {
					return nil, fmt.Errorf("%s: %w", key, err)
				}
				in, err := build(tr, key, func() (*ocd.Instance, error) { return ocd.SingleFile(graph, 100), nil })
				if err != nil {
					return nil, err
				}
				if err := st.heuristicJobs(fmt.Sprintf("%s/n%d", kind, n), in, sc.repeats, ocd.Heuristics(), staticRun); err != nil {
					return nil, err
				}
			}
		}
	}
	return st.order(seed), nil
}

// setupMultifile builds the Figure 4-6 shapes on random graphs: receiver
// density 0.2 over 200 tokens, and 16 files of 512 tokens from one source
// or from random per-file sources.
func setupMultifile(seed int64, sc scale, tr *tracer) ([]job, error) {
	shapes := []struct {
		name string
		mk   func(g *ocd.Graph, seed int64) (*ocd.Instance, error)
	}{
		{"density", func(g *ocd.Graph, s int64) (*ocd.Instance, error) { return ocd.ReceiverDensity(g, 200, 0.2, s), nil }},
		{"multifile", func(g *ocd.Graph, _ int64) (*ocd.Instance, error) { return ocd.MultiFile(g, 512, 16) }},
		{"multisender", func(g *ocd.Graph, s int64) (*ocd.Instance, error) { return ocd.MultiSender(g, 512, 16, s) }},
	}
	var st strata
	for _, shape := range shapes {
		for _, n := range sc.sizes {
			for g := 0; g < sc.graphs; g++ {
				key := fmt.Sprintf("%s/n%d/g%d", shape.name, n, g)
				gs := runner.Seed(seed, key)
				graph, err := topology(tr, "random", n, gs)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", key, err)
				}
				in, err := build(tr, key, func() (*ocd.Instance, error) { return shape.mk(graph, gs) })
				if err != nil {
					return nil, err
				}
				if err := st.heuristicJobs(fmt.Sprintf("%s/n%d", shape.name, n), in, sc.repeats, ocd.Heuristics(), staticRun); err != nil {
					return nil, err
				}
			}
		}
	}
	return st.order(seed), nil
}

// staticRun is the ocdsim unit of work: RunStrategy without pruning, then
// Prune, then Validate.
func staticRun(in input, h string, f ocd.StrategyFactory) func(*tracer, int64) outcome {
	return func(tr *tracer, seed int64) outcome {
		o := outcome{engine: engineSim, heuristic: h}
		sp := tr.begin("sim."+h+".kernel", 0)
		res, err := ocd.RunStrategy(in.inst, tr.timed(f, h, sp), ocd.RunOptions{Seed: seed})
		tr.end(sp)
		if err != nil {
			o.fail = fmt.Sprintf("run: %v", err)
			return o
		}
		o.steps, o.moves, o.rejected, o.lost = res.Steps, res.Moves, res.Rejected, res.Lost
		o.pruned, o.fail = verifyStatic(tr, in, res)
		return o
	}
}

// verifyStatic prunes and replays a static run and checks it against the
// instance's lower bounds, returning the pruned move count and the first
// failed check.
func verifyStatic(tr *tracer, in input, res *ocd.RunResult) (int, string) {
	sp := tr.begin("core.prune", 0)
	pruned := ocd.Prune(in.inst, res.Schedule).Moves()
	tr.end(sp)
	sp = tr.begin("core.validate", 0)
	err := ocd.Validate(in.inst, res.Schedule)
	tr.end(sp)
	switch {
	case err != nil:
		return pruned, fmt.Sprintf("validate: %v", err)
	case !res.Completed:
		return pruned, "run did not complete"
	case res.Steps < in.lb.makespan:
		return pruned, fmt.Sprintf("makespan %d below its lower bound %d", res.Steps, in.lb.makespan)
	case pruned < in.lb.bandwidth:
		return pruned, fmt.Sprintf("pruned moves %d below the bandwidth lower bound %d", pruned, in.lb.bandwidth)
	case pruned > res.Moves:
		return pruned, fmt.Sprintf("pruning grew %d moves to %d", res.Moves, pruned)
	}
	return pruned, ""
}

// faultPlan is one network-conditions plan. build is called afresh for the
// run and again for its validation: the models keep state.
type faultPlan struct {
	name  string
	build func(seed int64) ocd.FaultPlan
}

// faultPlans are chosen so that every run completes; vertex 0, the source
// of every single-file instance, never crashes.
var faultPlans = []faultPlan{
	{"none", func(int64) ocd.FaultPlan { return ocd.FaultPlan{} }},
	{"cross-traffic", func(s int64) ocd.FaultPlan {
		return ocd.FaultPlan{Capacity: dynamic.CrossTraffic{MaxShare: 0.5, Seed: s}}
	}},
	{"link-failure", func(s int64) ocd.FaultPlan {
		return ocd.FaultPlan{Capacity: dynamic.LinkFailure{P: 0.1, Seed: s}}
	}},
	{"loss-partition", func(s int64) ocd.FaultPlan {
		return ocd.FaultPlan{
			Loss:       ocd.GilbertElliottLoss(0.05, 0.25, 0.025, 0.65, s),
			Partitions: ocd.RandomPartitions(2, 0.05, 4, s+1),
		}
	}},
	{"crash-keep", func(s int64) ocd.FaultPlan {
		return ocd.FaultPlan{Crashes: ocd.RandomCrashes(0.01, 0.5, s, 0), StateLoss: ocd.KeepState}
	}},
}

// setupFaulted builds single-file instances of 100 tokens on random graphs
// for the fault engine, and single-file instances over random underlay
// networks for the shared-physical-capacity engine.
func setupFaulted(seed int64, sc scale, tr *tracer) ([]job, error) {
	var st strata
	for _, n := range sc.sizes {
		for g := 0; g < sc.graphs; g++ {
			key := fmt.Sprintf("random/n%d/g%d", n, g)
			graph, err := topology(tr, "random", n, runner.Seed(seed, key))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", key, err)
			}
			in, err := build(tr, key, func() (*ocd.Instance, error) { return ocd.SingleFile(graph, 100), nil })
			if err != nil {
				return nil, err
			}
			for _, p := range faultPlans {
				pin := in
				pin.key = in.key + "/" + p.name
				if err := st.heuristicJobs(p.name, pin, sc.repeats, ocd.Heuristics(), faultRun(p)); err != nil {
					return nil, err
				}
			}
		}
	}
	// Round robin is left out on the underlay: a single run takes ~12k steps.
	var underlayHeuristics []string
	for _, h := range ocd.Heuristics() {
		if h != "roundrobin" {
			underlayHeuristics = append(underlayHeuristics, h)
		}
	}
	for g := 0; g < sc.graphs; g++ {
		key := fmt.Sprintf("underlay/phys%d/h%d/g%d", sc.physN, sc.hosts, g)
		sp := tr.begin("underlay.build", 0)
		net, err := underlay.RandomNetwork(sc.physN, sc.hosts, 2, ocd.DefaultCaps, runner.Seed(seed, key))
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", key, err)
		}
		in, err := build(tr, key, func() (*ocd.Instance, error) { return ocd.SingleFile(net.Overlay, 100), nil })
		if err != nil {
			return nil, err
		}
		if err := st.heuristicJobs("underlay", in, sc.repeats, underlayHeuristics, underlayRun(net)); err != nil {
			return nil, err
		}
	}
	return st.order(seed), nil
}

func faultRun(p faultPlan) func(input, string, ocd.StrategyFactory) func(*tracer, int64) outcome {
	return func(in input, h string, f ocd.StrategyFactory) func(*tracer, int64) outcome {
		return func(tr *tracer, seed int64) outcome {
			o := outcome{engine: engineFault, heuristic: h}
			sp := tr.begin("fault."+p.name+".engine", 0)
			res, err := ocd.RunFaultedStrategy(in.inst, tr.timed(f, h, sp), p.build(seed),
				ocd.RunOptions{Seed: seed, IdlePatience: 40})
			tr.end(sp)
			if err != nil {
				o.fail = fmt.Sprintf("run under %s: %v", p.name, err)
				return o
			}
			o.steps, o.moves, o.rejected, o.lost, o.retrans = res.Steps, res.Moves, res.Rejected, res.Lost, res.Retransmissions
			o.fail = verifyFaulted(tr, in, res, p.build(seed))
			return o
		}
	}
}

// verifyFaulted replays a faulted run under a fresh copy of its plan.
func verifyFaulted(tr *tracer, in input, res *ocd.FaultResult, plan ocd.FaultPlan) string {
	sp := tr.begin("fault.validate", 0)
	err := ocd.ValidateFaulted(in.inst, res.Schedule, plan)
	tr.end(sp)
	switch {
	case err != nil:
		return fmt.Sprintf("validate: %v", err)
	case !res.Completed:
		return fmt.Sprintf("run ended %s", res.Liveness)
	case res.Steps < in.lb.makespan:
		return fmt.Sprintf("makespan %d below its lower bound %d", res.Steps, in.lb.makespan)
	}
	return ""
}

func underlayRun(net *underlay.Network) func(input, string, ocd.StrategyFactory) func(*tracer, int64) outcome {
	return func(in input, h string, f ocd.StrategyFactory) func(*tracer, int64) outcome {
		return func(tr *tracer, seed int64) outcome {
			o := outcome{engine: engineUnderlay, heuristic: h}
			sp := tr.begin("underlay.engine", 0)
			res, err := net.Run(in.inst, tr.timed(f, h, sp), ocd.RunOptions{Seed: seed, IdlePatience: 20})
			tr.end(sp)
			if err != nil {
				o.fail = fmt.Sprintf("underlay run: %v", err)
				return o
			}
			o.steps, o.moves, o.rejected = res.Steps, res.Moves, res.Rejected
			sp = tr.begin("underlay.validate", 0)
			err = net.Validate(in.inst, res.Schedule)
			tr.end(sp)
			switch {
			case err != nil:
				o.fail = fmt.Sprintf("underlay validate: %v", err)
			case res.Steps < in.lb.makespan:
				o.fail = fmt.Sprintf("makespan %d below its lower bound %d", res.Steps, in.lb.makespan)
			}
			return o
		}
	}
}

// setupSolver draws seeded tiny instances with n=5 and m=3, the size of the
// ILP-vs-B&B experiment, keeping only those whose fastest schedule takes two
// steps. Solver time is heavy-tailed: at n=5 a few instances with a longer
// optimum take a second, and at n=6 even two-step instances range from
// 1 ms to 1.6 s. Such a tail made throughput depend on which instances a
// seed drew; two-step n=5 instances keep it to ~12x the mean.
func setupSolver(seed int64, sc scale, tr *tracer) ([]job, error) {
	sp := tr.begin("experiments.tiny", 0)
	insts, err := twoStepInstances(runner.Seed(seed, "tiny"), sc.tiny, 5)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	var st strata
	for i, inst := range insts {
		key := fmt.Sprintf("tiny/i%d", i)
		in, err := build(tr, key, func() (*ocd.Instance, error) { return inst, nil })
		if err != nil {
			return nil, err
		}
		st.add("tiny", job{key: key, run: func(tr *tracer, _ int64) outcome { return solve(tr, in) }})
	}
	return st.order(seed), nil
}

// twoStepInstances returns the first count instances of the seeded
// RandomTinyInstances stream whose FOCD optimum is two steps.
func twoStepInstances(seed int64, count, n int) ([]*ocd.Instance, error) {
	var kept []*ocd.Instance
	for drawn, size := 0, 2*count; len(kept) < count; drawn, size = size, 2*size {
		for _, inst := range experiments.RandomTinyInstances(seed, size, n, 3)[drawn:] {
			fast, err := ocd.SolveFOCD(inst, ocd.ExactOptions{})
			if err != nil {
				return nil, fmt.Errorf("tiny n=%d: focd: %w", n, err)
			}
			if fast.Makespan() == 2 {
				if kept = append(kept, inst); len(kept) == count {
					break
				}
			}
		}
	}
	return kept, nil
}

// solve certifies one instance: the FOCD optimum τ*, then the EOCD optimum
// by branch and bound and by the §3.4 ILP, both at τ = τ* + 1.
func solve(tr *tracer, in input) outcome {
	o := outcome{engine: engineSolver}
	sp := tr.begin("exact.focd", 0)
	fast, err := ocd.SolveFOCD(in.inst, ocd.ExactOptions{})
	tr.end(sp)
	if err != nil {
		o.fail = fmt.Sprintf("focd: %v", err)
		return o
	}
	tau := fast.Makespan() + 1
	sp = tr.begin("exact.eocd", 0)
	bnb, err := ocd.SolveEOCD(in.inst, tau, ocd.ExactOptions{})
	tr.end(sp)
	if err != nil {
		o.fail = fmt.Sprintf("eocd: %v", err)
		return o
	}
	sp = tr.begin("ilp.build", 0)
	prog, err := ilp.Build(in.inst, tau)
	tr.end(sp)
	if err != nil {
		o.fail = fmt.Sprintf("ilp build: %v", err)
		return o
	}
	sp = tr.begin("ilp.solve", 0)
	sched, obj, st, err := prog.SolveStats(ilp.Options{})
	tr.end(sp)
	if err != nil {
		o.fail = fmt.Sprintf("ilp solve: %v", err)
		return o
	}
	o.steps, o.moves, o.pruned = fast.Makespan(), bnb.Moves(), obj
	o.nodes, o.iters, o.warm, o.flips, o.restores = st.Nodes, st.SimplexIterations, st.WarmStarts, st.BoundFlips, st.DualRestorations
	o.fail = verifySolver(tr, in, tau, fast, bnb, sched, obj)
	return o
}

// verifySolver replays the three optimal schedules and checks that the
// solvers agree with each other and with the lower bounds.
func verifySolver(tr *tracer, in input, tau int, fast, bnb, sched *ocd.Schedule, obj int) string {
	for _, s := range []struct {
		name  string
		sched *ocd.Schedule
	}{{"focd", fast}, {"eocd", bnb}, {"ilp", sched}} {
		sp := tr.begin("core.validate", 0)
		err := ocd.Validate(in.inst, s.sched)
		tr.end(sp)
		if err != nil {
			return fmt.Sprintf("%s validate: %v", s.name, err)
		}
	}
	switch {
	case obj != bnb.Moves() || sched.Moves() != obj:
		return fmt.Sprintf("ilp objective %d (schedule %d moves) differs from eocd %d moves", obj, sched.Moves(), bnb.Moves())
	case fast.Makespan() < in.lb.makespan:
		return fmt.Sprintf("focd makespan %d below its lower bound %d", fast.Makespan(), in.lb.makespan)
	case bnb.Moves() < in.lb.bandwidth:
		return fmt.Sprintf("eocd moves %d below the bandwidth lower bound %d", bnb.Moves(), in.lb.bandwidth)
	case bnb.Makespan() > tau || sched.Makespan() > tau:
		return fmt.Sprintf("eocd or ilp schedule longer than τ=%d", tau)
	}
	return ""
}

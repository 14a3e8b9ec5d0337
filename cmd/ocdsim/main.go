// Command ocdsim runs the reproduction from the command line, in one of two
// modes.
//
// A single run executes one of the distribution strategies on a generated
// or loaded topology and workload, printing makespan ("moves" in the
// paper's §5 terminology), bandwidth, pruned bandwidth, and the §5.1 lower
// bounds.
//
// Spec mode runs the declarative experiment registry: -list prints every
// registered experiment with its parameter schema, -experiment <name> runs
// one with -param name=value overrides, and -spec file.json replays a JSON
// sweep file. It writes ASCII tables, or CSV with -csv, and -jsonl streams
// every row into a JSONL file as it is produced. The harness flags -seed,
// -journal (crash-safety journal: a killed sweep re-invoked with the same
// journal resumes from its completed cells with byte-identical output),
// -monitor (kernel invariant monitor; any violation fails the run) and
// -parallelism set the experiment parameter of the same name in every
// invocation that declares it.
//
// Both modes take -seed, -telemetry and the pprof profile flags. A flag
// the selected mode does not read fails the run by name.
//
// Examples:
//
//	ocdsim -topology transit-stub -n 200 -tokens 200 -heuristic local -seed 7
//	ocdsim -instance saved.json -heuristic all
//	ocdsim -n 50 -heuristic tree -dump-schedule out.json
//	ocdsim -list
//	ocdsim -experiment graph-size -param sizes=25,50 -param tokens=64
//	ocdsim -experiment chaos -param intensities=0,0.5 -param heuristics=local -csv
//	ocdsim -experiment crashed-source -param n=30 -param tokens=60 -param crash-at=2
//	ocdsim -experiment partition -param k=2 -param heal=0,4,16,-1 -monitor
//	ocdsim -experiment churn -param leave=0.01,0.05,0.1 -journal sweep.jsonl
//	ocdsim -spec paper-figures.json -jsonl rows.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"ocd"
	"ocd/internal/experiments"
	"ocd/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ocdsim:", err)
		os.Exit(1)
	}
}

// singleRun holds the flags only a single run reads, plus the seed.
type singleRun struct {
	topo, work, heuristic, instPath, dumpInst, dumpSched, steptrace string
	n, tokens, files, maxSteps, patience                            int
	density, loss                                                   float64
	oracle, timeline                                                bool
	seed                                                            int64
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ocdsim", flag.ContinueOnError)
	var s singleRun
	fs.StringVar(&s.topo, "topology", "random", "topology: random | transit-stub")
	fs.IntVar(&s.n, "n", 100, "number of vertices")
	fs.IntVar(&s.tokens, "tokens", 200, "number of tokens in the file")
	fs.StringVar(&s.heuristic, "heuristic", "local", "strategy: roundrobin | random | local | bandwidth | global | tree | forest-K | protocol-local | local-delayed-K | all")
	fs.StringVar(&s.work, "workload", "singlefile", "workload: singlefile | density | multifile | multisender")
	fs.Float64Var(&s.density, "density", 0.5, "receiver density threshold (density workload)")
	fs.IntVar(&s.files, "files", 4, "number of files (multifile workloads)")
	fs.IntVar(&s.maxSteps, "max-steps", 0, "timestep limit (0 = Theorem 1 horizon m·(n−1) plus -patience)")
	fs.BoolVar(&s.oracle, "oracle", false, "wrap the heuristic in the §4.2 propagate-then-plan oracle")
	fs.Float64Var(&s.loss, "loss", 0, "per-move loss probability (§6 lossy channels)")
	fs.IntVar(&s.patience, "patience", 10, "idle turns tolerated before declaring a stall")
	fs.StringVar(&s.instPath, "instance", "", "load the instance from this JSON file instead of generating one")
	fs.StringVar(&s.dumpInst, "dump-instance", "", "write the instance as JSON to this file")
	fs.StringVar(&s.dumpSched, "dump-schedule", "", "write the last schedule as JSON to this file")
	fs.StringVar(&s.steptrace, "steptrace", "", "write the last run's per-step trace as JSONL to this file")
	fs.BoolVar(&s.timeline, "timeline", false, "print the last schedule as a per-step timeline")
	fs.Int64Var(&s.seed, "seed", 1, "random seed")
	fs.String("journal", "", "crash-safety journal path; re-invoking with the same journal resumes from completed cells")
	fs.Bool("monitor", false, "attach the kernel invariant monitor; any violation fails the run")
	parallelism := fs.Int("parallelism", 0, "experiment runner worker count (0 = GOMAXPROCS); output is identical at every setting")
	telPath := fs.String("telemetry", "", "write the run's metric stream to this JSONL file; never changes the experiment output")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
	experiment := fs.String("experiment", "", "run a registered experiment by name (see -list)")
	list := fs.Bool("list", false, "list the experiment registry with parameter schemas and exit")
	specFile := fs.String("spec", "", "run the experiment invocations in this JSON spec file")
	jsonl := fs.String("jsonl", "", "stream experiment rows into this JSONL file as they are produced")
	csv := fs.Bool("csv", false, "write experiment tables as CSV instead of ASCII")
	var params paramFlag
	fs.Var(&params, "param", "override one experiment parameter as name=value (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	specMode := *list || *experiment != "" || *specFile != "" || len(params) > 0
	if err := checkFlags(fs, specMode, s.oracle, s.instPath != ""); err != nil {
		return err
	}
	if *parallelism < 0 {
		return fmt.Errorf("-parallelism must be non-negative, got %d", *parallelism)
	}
	// Flag, parameter and spec-file errors fail here, before any file is
	// created or any cell runs.
	var invs []experiments.Invocation
	if specMode {
		var err error
		if invs, err = invocations(fs, *list, *experiment, *specFile, params); err != nil {
			return err
		}
	} else if err := s.validate(); err != nil {
		return err
	}

	var reg *telemetry.Registry
	if *telPath != "" {
		reg = telemetry.New()
	}
	stopCPU, err := startCPUProfile(*cpuProfile)
	if err != nil {
		return err
	}
	switch {
	case *list:
		err = experiments.Describe(stdout)
	case specMode:
		err = runSpecs(stdout, invs, *jsonl, *csv, reg)
	default:
		err = s.run(stdout, reg)
	}
	// Every profile and telemetry write or close error reaches the exit
	// code, joined with the run's own: a stream that cannot flush must fail
	// the process, not vanish in a defer.
	errs := []error{err, flagErr("cpuprofile", stopCPU())}
	if *memProfile != "" {
		errs = append(errs, flagErr("memprofile", writeFile(*memProfile, func(w io.Writer) error {
			runtime.GC() // materialize up-to-date allocation statistics
			return pprof.WriteHeapProfile(w)
		})))
	}
	if *telPath != "" {
		errs = append(errs, flagErr("telemetry", writeFile(*telPath, reg.WriteJSONL)))
	}
	return errors.Join(errs...)
}

// Which flags each mode reads: spec mode reads specFlags and bothFlags, a
// single run reads every flag outside specFlags, and a single run of a
// loaded instance reads none of the generatorFlags.
var (
	specFlags      = []string{"experiment", "list", "spec", "param", "jsonl", "csv", "journal", "monitor", "parallelism"}
	bothFlags      = []string{"seed", "telemetry", "cpuprofile", "memprofile"}
	generatorFlags = []string{"topology", "n", "tokens", "workload", "density", "files"}
	// The §4.2 oracle runs lossless to completion from the seed alone, with
	// no step observer.
	oracleIgnores = []string{"loss", "max-steps", "patience", "steptrace"}
)

// checkFlags fails an invocation that explicitly sets a flag its mode does
// not read, naming the flag, instead of ignoring it and exiting 0.
func checkFlags(fs *flag.FlagSet, specMode, oracle, loaded bool) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		switch {
		case err != nil:
		case specMode && !slices.Contains(specFlags, f.Name) && !slices.Contains(bothFlags, f.Name):
			err = fmt.Errorf("-%s is not read by -experiment, -spec or -list; set experiment parameters with -param", f.Name)
		case !specMode && slices.Contains(specFlags, f.Name):
			err = fmt.Errorf("-%s must be used with -experiment or -spec; a single run ignores it", f.Name)
		case oracle && slices.Contains(oracleIgnores, f.Name):
			err = fmt.Errorf("-%s cannot be combined with -oracle", f.Name)
		case loaded && slices.Contains(generatorFlags, f.Name):
			err = fmt.Errorf("-%s cannot be combined with -instance; the loaded file is the instance", f.Name)
		}
	})
	return err
}

// harnessFlags are the flags that set the experiment parameter of the same
// name.
var harnessFlags = []string{"seed", "journal", "monitor", "parallelism"}

// invocations resolves the spec-mode flags into the experiment runs they
// name (none for -list). Each harness flag the user set is merged into
// every invocation that declares its parameter, and an explicit -param
// wins. A harness flag no invocation declares fails by name; only -seed is
// dropped instead, since an experiment without one has nothing to seed.
func invocations(fs *flag.FlagSet, list bool, experiment, specFile string, params paramFlag) ([]experiments.Invocation, error) {
	var invs []experiments.Invocation
	reader := "-list"
	switch {
	case list:
		if experiment != "" || specFile != "" || len(params) > 0 {
			return nil, fmt.Errorf("-list does not combine with -experiment, -spec, or -param")
		}
	case experiment != "" && specFile != "":
		return nil, fmt.Errorf("-experiment and -spec are mutually exclusive")
	case experiment == "" && len(params) > 0:
		return nil, fmt.Errorf("-param requires -experiment")
	case experiment != "":
		if _, ok := experiments.Lookup(experiment); !ok {
			// Surface the registry's canonical unknown-name error, which
			// lists the catalogue.
			_, err := experiments.Run(experiment, nil, nil)
			return nil, err
		}
		invs = []experiments.Invocation{{Experiment: experiment, Params: params}}
		reader = "experiment " + experiment
	default:
		loaded, err := experiments.LoadSpecFile(specFile)
		if err != nil {
			return nil, err
		}
		invs = loaded
		reader = "any invocation in " + specFile
	}

	set := make(map[string]bool, len(harnessFlags))
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	declared := make(map[string]bool, len(harnessFlags))
	for i, inv := range invs {
		spec, _ := experiments.Lookup(inv.Experiment)
		merged := make(map[string]string, len(inv.Params)+len(harnessFlags))
		maps.Copy(merged, inv.Params)
		for _, name := range harnessFlags {
			if !set[name] || !spec.HasParam(name) {
				continue
			}
			declared[name] = true
			if _, explicit := merged[name]; !explicit {
				merged[name] = fs.Lookup(name).Value.String()
			}
		}
		invs[i].Params = merged
	}
	for _, name := range harnessFlags {
		if set[name] && !declared[name] && name != "seed" {
			return nil, fmt.Errorf("-%s is not read by %s (no %s parameter)", name, reader, name)
		}
	}
	return invs, nil
}

// runSpecs runs each invocation and writes its table to w, CSV when csv is
// set, separated by a blank line. With a jsonlPath, every row also streams
// into that file as it is produced.
func runSpecs(w io.Writer, invs []experiments.Invocation, jsonlPath string, csv bool, reg *telemetry.Registry) (err error) {
	var sinks []experiments.Sink
	if jsonlPath != "" {
		f, cerr := os.Create(jsonlPath)
		if cerr != nil {
			return cerr
		}
		// A row log whose tail never reached the disk is corrupt, so the
		// close error reaches the exit code.
		defer func() { err = errors.Join(err, flagErr("jsonl", f.Close())) }()
		sinks = append(sinks, &experiments.JSONLSink{W: f})
	}
	for i, inv := range invs {
		tab, rerr := experiments.Run(inv.Experiment, inv.Params, reg, sinks...)
		if rerr != nil {
			return rerr
		}
		text := tab.ASCII()
		if csv {
			text = tab.CSV()
		}
		if i > 0 {
			text = "\n" + text
		}
		// A closed pipe or a full disk fails the run instead of exiting 0
		// with a truncated table.
		if _, err := io.WriteString(w, text); err != nil {
			return fmt.Errorf("writing table: %w", err)
		}
	}
	return nil
}

// paramFlag is the repeatable -param name=value flag.
type paramFlag map[string]string

func (p paramFlag) String() string {
	// Flag printing only; the zero value renders empty.
	if len(p) == 0 {
		return ""
	}
	return fmt.Sprintf("%d params", len(p))
}

// Set records one name=value override.
func (p *paramFlag) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok || k == "" {
		return fmt.Errorf("want name=value, got %q", s)
	}
	if *p == nil {
		*p = make(paramFlag)
	}
	if _, dup := (*p)[k]; dup {
		return fmt.Errorf("duplicate param %q", k)
	}
	(*p)[k] = v
	return nil
}

// startCPUProfile starts a pprof CPU profile into path, if one is named.
// The returned stop function ends it and reports the file's close error.
func startCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, flagErr("cpuprofile", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// flagErr names the flag a non-nil error came from.
func flagErr(name string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("-%s: %w", name, err)
}

// validate rejects out-of-range parameters up front with a clear message
// instead of letting them wander into generators and the engine as
// undefined behavior (a negative patience, for example, would make every
// idle step a stall).
func (s *singleRun) validate() error {
	switch {
	case s.n <= 0:
		return fmt.Errorf("-n must be positive, got %d", s.n)
	case s.tokens <= 0:
		return fmt.Errorf("-tokens must be positive, got %d", s.tokens)
	case !inUnit(s.loss):
		return fmt.Errorf("-loss must be in [0,1], got %v", s.loss)
	case !inUnit(s.density):
		return fmt.Errorf("-density must be in [0,1], got %v", s.density)
	case s.patience < 0:
		return fmt.Errorf("-patience must be non-negative, got %d", s.patience)
	case s.maxSteps < 0:
		return fmt.Errorf("-max-steps must be non-negative, got %d", s.maxSteps)
	case s.files <= 0:
		return fmt.Errorf("-files must be positive, got %d", s.files)
	}
	return nil
}

// inUnit reports whether x lies in [0,1]. NaN does not: it fails every
// comparison, so a test for being out of range would let it through.
func inUnit(x float64) bool { return x >= 0 && x <= 1 }

// run executes the single run, recording each heuristic's kernel
// step-phase totals into reg.
func (s *singleRun) run(stdout io.Writer, reg *telemetry.Registry) error {
	inst, err := s.instance()
	if err != nil {
		return err
	}

	source := "workload=" + s.work
	if s.instPath != "" {
		source = "instance=" + s.instPath
	}
	fmt.Fprintf(stdout, "graph: n=%d arcs=%d tokens=%d %s\n",
		inst.N(), inst.G.NumArcs(), inst.NumTokens, source)
	fmt.Fprintf(stdout, "bounds: moves(timesteps) >= %d, bandwidth >= %d\n",
		ocd.MakespanLowerBound(inst), ocd.BandwidthLowerBound(inst))

	if s.dumpInst != "" {
		if err := writeFile(s.dumpInst, func(w io.Writer) error {
			return ocd.EncodeInstanceJSON(w, inst)
		}); err != nil {
			return err
		}
	}

	names := []string{s.heuristic}
	if s.heuristic == "all" {
		names = ocd.Heuristics()
	}
	var last *ocd.Schedule
	var lastTrace *ocd.StepCollector
	for _, name := range names {
		var res *ocd.RunResult
		validate := func(sched *ocd.Schedule) error { return ocd.Validate(inst, sched) }
		if s.oracle {
			res, err = ocd.RunOracle(inst, name, s.seed)
		} else {
			opts := ocd.RunOptions{
				MaxSteps: s.maxSteps, Seed: s.seed, Prune: s.loss == 0, IdlePatience: s.patience,
			}
			if s.steptrace != "" {
				col := ocd.NewStepCollector(inst)
				opts.Observer = col
				lastTrace = col
			}
			if s.loss == 0 {
				res, err = ocd.RunHeuristic(inst, name, opts)
				if err == nil && !res.Completed {
					// A run cut off at the step limit is incomplete, not
					// invalid: only its moves must be legal.
					validate = func(sched *ocd.Schedule) error { return ocd.ValidateConstraints(inst, sched) }
				}
			} else {
				// -max-steps 0 keeps its static meaning; the fault engine's
				// default would be four Theorem 1 horizons.
				plan := ocd.FaultPlan{Loss: ocd.BernoulliLoss(s.loss, s.seed)}
				if opts.MaxSteps == 0 {
					opts.MaxSteps = inst.TheoremOneHorizon() + s.patience
				}
				var fres *ocd.FaultResult
				if fres, err = ocd.RunFaulted(inst, name, plan, opts); fres != nil {
					res = fres.Result
				}
				validate = func(sched *ocd.Schedule) error { return ocd.ValidateFaulted(inst, sched, plan) }
			}
		}
		// A stalled run's result still holds the steps it executed.
		telemetry.RecordRun(reg, "sim", res)
		if err != nil {
			return fmt.Errorf("heuristic %s: %w", name, err)
		}
		if verr := validate(res.Schedule); verr != nil {
			return fmt.Errorf("heuristic %s produced invalid schedule: %w", name, verr)
		}
		// Only a lossless run that completed is pruned.
		pruned := "-"
		if s.loss == 0 && res.Completed {
			pruned = strconv.Itoa(res.PrunedMoves)
		}
		fmt.Fprintf(stdout, "%-14s moves=%-5d bandwidth=%-8d pruned=%-8s lost=%-6d completed=%v\n",
			res.Strategy, res.Steps, res.Moves, pruned, res.Lost, res.Completed)
		last = res.Schedule
	}
	if s.timeline && last != nil {
		fmt.Fprint(stdout, ocd.RenderTimeline(inst, last, 8))
	}
	if s.dumpSched != "" && last != nil {
		if err := writeFile(s.dumpSched, func(w io.Writer) error {
			return ocd.EncodeScheduleJSON(w, last)
		}); err != nil {
			return err
		}
	}
	if s.steptrace != "" && lastTrace != nil {
		if err := writeFile(s.steptrace, func(w io.Writer) error {
			return ocd.EncodeStepTraceJSONL(w, lastTrace.Records)
		}); err != nil {
			return err
		}
	}
	return nil
}

// instance loads or generates the problem instance.
func (s *singleRun) instance() (*ocd.Instance, error) {
	if s.instPath != "" {
		f, err := os.Open(s.instPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return ocd.DecodeInstanceJSON(f)
	}

	var g *ocd.Graph
	var err error
	switch s.topo {
	case "random":
		g, err = ocd.RandomTopology(s.n, ocd.DefaultCaps, s.seed)
	case "transit-stub":
		g, err = ocd.TransitStubTopology(s.n, ocd.DefaultCaps, s.seed)
	default:
		return nil, fmt.Errorf("unknown topology %q", s.topo)
	}
	if err != nil {
		return nil, err
	}

	switch s.work {
	case "singlefile":
		return ocd.SingleFile(g, s.tokens), nil
	case "density":
		return ocd.ReceiverDensity(g, s.tokens, s.density, s.seed+1), nil
	case "multifile":
		return ocd.MultiFile(g, s.tokens, s.files)
	case "multisender":
		return ocd.MultiSender(g, s.tokens, s.files, s.seed+1)
	default:
		return nil, fmt.Errorf("unknown workload %q", s.work)
	}
}

// writeFile creates path and streams enc into it. The close error is
// checked — it is where buffered write failures surface, and losing it
// would let a truncated file exit zero.
func writeFile(path string, enc func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := enc(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

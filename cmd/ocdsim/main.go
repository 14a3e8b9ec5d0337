// Command ocdsim runs one of the distribution strategies on a generated or
// loaded topology and workload, printing makespan ("moves" in the paper's
// §5 terminology), bandwidth, pruned bandwidth, and the §5.1 lower bounds.
//
// The binary also speaks the declarative registry: -list prints every
// registered experiment with its parameter schema, -experiment <name> runs
// one with -param name=value overrides, and -spec file.json replays a JSON
// sweep file.
//
// Examples:
//
//	ocdsim -topology transit-stub -n 200 -tokens 200 -heuristic local -seed 7
//	ocdsim -instance saved.json -heuristic all
//	ocdsim -n 50 -heuristic tree -dump-schedule out.json
//	ocdsim -list
//	ocdsim -experiment graph-size -param sizes=25,50 -param tokens=64
//	ocdsim -spec paper-figures.json -jsonl rows.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"ocd"
	"ocd/internal/cliutil"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ocdsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ocdsim", flag.ContinueOnError)
	var (
		topo      = fs.String("topology", "random", "topology: random | transit-stub")
		n         = fs.Int("n", 100, "number of vertices")
		tokens    = fs.Int("tokens", 200, "number of tokens in the file")
		heuristic = fs.String("heuristic", "local", "strategy: roundrobin | random | local | bandwidth | global | tree | forest-K | protocol-local | local-delayed-K | all")
		work      = fs.String("workload", "singlefile", "workload: singlefile | density | multifile | multisender")
		density   = fs.Float64("density", 0.5, "receiver density threshold (density workload)")
		files     = fs.Int("files", 4, "number of files (multifile workloads)")
		maxSteps  = fs.Int("max-steps", 0, "timestep limit (0 = Theorem 1 horizon)")
		oracle    = fs.Bool("oracle", false, "wrap the heuristic in the §4.2 propagate-then-plan oracle")
		loss      = fs.Float64("loss", 0, "per-move loss probability (§6 lossy channels)")
		patience  = fs.Int("patience", 10, "idle turns tolerated before declaring a stall")
		instPath  = fs.String("instance", "", "load the instance from this JSON file instead of generating one")
		dumpInst  = fs.String("dump-instance", "", "write the instance as JSON to this file")
		dumpSched = fs.String("dump-schedule", "", "write the last schedule as JSON to this file")
		steptrace = fs.String("steptrace", "", "write the last run's per-step trace as JSONL to this file")
		timeline  = fs.Bool("timeline", false, "print the last schedule as a per-step timeline")
	)
	harness := cliutil.AddHarness(fs)
	spec := cliutil.AddSpecMode(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := spec.CheckFlags(fs, "jsonl", "journal", "monitor", "parallelism"); err != nil {
		return err
	}
	if err := harness.Validate(); err != nil {
		return err
	}
	if err := harness.Start(); err != nil {
		return err
	}
	// Finish carries the telemetry/profile write errors; it must reach the
	// exit code even when the run itself failed first.
	err := runModes(fs, stdout, harness, spec, classicFlags{
		topo: *topo, n: *n, tokens: *tokens, heuristic: *heuristic, work: *work,
		density: *density, files: *files, maxSteps: *maxSteps, oracle: *oracle,
		loss: *loss, patience: *patience, instPath: *instPath, dumpInst: *dumpInst,
		dumpSched: *dumpSched, steptrace: *steptrace, timeline: *timeline,
	})
	if ferr := harness.Finish(); ferr != nil && err == nil {
		err = ferr
	}
	return err
}

// classicFlags bundles the classic (non-spec) mode's parsed flags.
type classicFlags struct {
	topo, work, heuristic, instPath, dumpInst, dumpSched, steptrace string
	n, tokens, files, maxSteps, patience                            int
	density, loss                                                   float64
	oracle, timeline                                                bool
}

func runModes(fs *flag.FlagSet, stdout io.Writer, harness *cliutil.Harness, spec *cliutil.SpecMode, cf classicFlags) error {
	if spec.Active() {
		return spec.Execute(fs, stdout, false, harness)
	}
	return runClassic(fs, stdout, harness, cf)
}

func runClassic(fs *flag.FlagSet, stdout io.Writer, harness *cliutil.Harness, cf classicFlags) error {
	topo, n, tokens, heuristic := &cf.topo, &cf.n, &cf.tokens, &cf.heuristic
	work, density, files, maxSteps := &cf.work, &cf.density, &cf.files, &cf.maxSteps
	oracle, loss, patience := &cf.oracle, &cf.loss, &cf.patience
	instPath, dumpInst, dumpSched := &cf.instPath, &cf.dumpInst, &cf.dumpSched
	steptrace, timeline := &cf.steptrace, &cf.timeline
	seed := &harness.Seed
	if err := validateFlags(*n, *tokens, *loss, *density, *patience, *maxSteps, *files); err != nil {
		return err
	}
	if *oracle {
		// The §4.2 oracle runs lossless to completion from the seed alone,
		// with no step observer.
		var err error
		fs.Visit(func(f *flag.Flag) {
			if err == nil && slices.Contains([]string{"loss", "max-steps", "patience", "steptrace"}, f.Name) {
				err = fmt.Errorf("-%s cannot be combined with -oracle", f.Name)
			}
		})
		if err != nil {
			return err
		}
	}

	inst, err := buildInstance(*instPath, *topo, *work, *n, *tokens, *density, *files, *seed)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "graph: n=%d arcs=%d tokens=%d workload=%s\n",
		inst.N(), inst.G.NumArcs(), inst.NumTokens, *work)
	fmt.Fprintf(stdout, "bounds: moves(timesteps) >= %d, bandwidth >= %d\n",
		ocd.MakespanLowerBound(inst), ocd.BandwidthLowerBound(inst))

	if *dumpInst != "" {
		if err := writeJSON(*dumpInst, func(w io.Writer) error {
			return ocd.EncodeInstanceJSON(w, inst)
		}); err != nil {
			return err
		}
	}

	names := []string{*heuristic}
	if *heuristic == "all" {
		names = ocd.Heuristics()
	}
	var last *ocd.Schedule
	var lastTrace *ocd.StepCollector
	for _, name := range names {
		var res *ocd.RunResult
		validate := func(s *ocd.Schedule) error { return ocd.Validate(inst, s) }
		if *oracle {
			res, err = ocd.RunOracle(inst, name, *seed)
		} else {
			opts := ocd.RunOptions{
				MaxSteps: *maxSteps, Seed: *seed, Prune: *loss == 0, IdlePatience: *patience,
			}
			if *steptrace != "" {
				// The kernel has one Observer seat; the explicit step trace
				// wins over telemetry's step-phase counters.
				col := ocd.NewStepCollector(inst)
				opts.Observer = col
				lastTrace = col
			} else {
				opts.Observer = ocd.NewKernelObserver(harness.Registry(), "sim").Observer()
			}
			if *loss == 0 {
				res, err = ocd.RunHeuristic(inst, name, opts)
			} else {
				// -max-steps 0 keeps its static meaning; the fault engine's
				// default would be four Theorem 1 horizons.
				plan := ocd.FaultPlan{Loss: ocd.BernoulliLoss(*loss, *seed)}
				if opts.MaxSteps == 0 {
					opts.MaxSteps = inst.TheoremOneHorizon() + *patience
				}
				var fres *ocd.FaultResult
				if fres, err = ocd.RunFaulted(inst, name, plan, opts); err == nil {
					res = fres.Result
				}
				validate = func(s *ocd.Schedule) error { return ocd.ValidateFaulted(inst, s, plan) }
			}
		}
		if err != nil {
			return fmt.Errorf("heuristic %s: %w", name, err)
		}
		if verr := validate(res.Schedule); verr != nil {
			return fmt.Errorf("heuristic %s produced invalid schedule: %w", name, verr)
		}
		fmt.Fprintf(stdout, "%-14s moves=%-5d bandwidth=%-8d pruned=%-8d lost=%-6d completed=%v\n",
			res.Strategy, res.Steps, res.Moves, res.PrunedMoves, res.Lost, res.Completed)
		last = res.Schedule
	}
	if *timeline && last != nil {
		fmt.Fprint(stdout, ocd.RenderTimeline(inst, last, 8))
	}
	if *dumpSched != "" && last != nil {
		if err := writeJSON(*dumpSched, func(w io.Writer) error {
			return ocd.EncodeScheduleJSON(w, last)
		}); err != nil {
			return err
		}
	}
	if *steptrace != "" && lastTrace != nil {
		if err := writeJSON(*steptrace, func(w io.Writer) error {
			return ocd.EncodeStepTraceJSONL(w, lastTrace.Records)
		}); err != nil {
			return err
		}
	}
	return nil
}

// validateFlags rejects out-of-range parameters up front with a clear
// message instead of letting them wander into generators and the engine as
// undefined behavior (a negative patience, for example, would make every
// idle step a stall).
func validateFlags(n, tokens int, loss, density float64, patience, maxSteps, files int) error {
	switch {
	case n <= 0:
		return fmt.Errorf("-n must be positive, got %d", n)
	case tokens <= 0:
		return fmt.Errorf("-tokens must be positive, got %d", tokens)
	case !inUnit(loss):
		return fmt.Errorf("-loss must be in [0,1], got %v", loss)
	case !inUnit(density):
		return fmt.Errorf("-density must be in [0,1], got %v", density)
	case patience < 0:
		return fmt.Errorf("-patience must be non-negative, got %d", patience)
	case maxSteps < 0:
		return fmt.Errorf("-max-steps must be non-negative, got %d", maxSteps)
	case files <= 0:
		return fmt.Errorf("-files must be positive, got %d", files)
	}
	return nil
}

// inUnit reports whether x lies in [0,1]. NaN does not: it fails every
// comparison, so a test for being out of range would let it through.
func inUnit(x float64) bool { return x >= 0 && x <= 1 }

// buildInstance loads or generates the problem instance.
func buildInstance(instPath, topo, work string, n, tokens int, density float64, files int, seed int64) (*ocd.Instance, error) {
	if instPath != "" {
		f, err := os.Open(instPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return ocd.DecodeInstanceJSON(f)
	}

	var g *ocd.Graph
	var err error
	switch topo {
	case "random":
		g, err = ocd.RandomTopology(n, ocd.DefaultCaps, seed)
	case "transit-stub":
		g, err = ocd.TransitStubTopology(n, ocd.DefaultCaps, seed)
	default:
		return nil, fmt.Errorf("unknown topology %q", topo)
	}
	if err != nil {
		return nil, err
	}

	switch work {
	case "singlefile":
		return ocd.SingleFile(g, tokens), nil
	case "density":
		return ocd.ReceiverDensity(g, tokens, density, seed+1), nil
	case "multifile":
		return ocd.MultiFile(g, tokens, files)
	case "multisender":
		return ocd.MultiSender(g, tokens, files, seed+1)
	default:
		return nil, fmt.Errorf("unknown workload %q", work)
	}
}

// writeJSON creates path and streams enc into it. The close error is
// checked — it is where buffered write failures surface, and losing it
// would let a truncated dump exit zero.
func writeJSON(path string, enc func(io.Writer) error) error {
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

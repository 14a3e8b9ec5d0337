// Command ocdchaos is the fault-injection harness. Each -scenario value
// names a registered experiment, and the scenario flags are that
// experiment's parameters:
//
//	-scenario sweep         → chaos: fault intensity × heuristic under the
//	                          canonical chaos plan (bursty Gilbert–Elliott
//	                          loss, crash/recovery churn with download loss,
//	                          gossip loss), with makespan inflation over a
//	                          fault-free baseline
//	-scenario crash-source  → crashed-source: the sole holder crash-stops
//	                          mid-distribution; graceful termination with an
//	                          explicit unsatisfiable-receiver report
//	-scenario partition     → partition: k-way partition heal time × heuristic
//	-scenario churn         → churn: membership leave rate (-churn-rates sets
//	                          leave) × heuristic; members lose all state and
//	                          rejoin empty
//
// A scenario run is the same run as -experiment <name> with those
// parameters: the spec's checks validate the flags, -telemetry and -jsonl
// apply to every scenario, and the partition and churn sweeps also take
// -monitor (kernel invariant monitor; any violation fails the run) and
// -journal (crash-safety journal: a killed sweep re-invoked with the same
// journal resumes from its completed cells with byte-identical output).
//
// The binary also speaks the declarative registry directly: -list prints
// every registered experiment with its parameter schema, -experiment
// <name> runs one with -param name=value overrides, and -spec file.json
// replays a JSON sweep file.
//
// Examples:
//
//	ocdchaos -n 30 -tokens 24 -intensities 0,0.25,0.5,1 -heuristics local,retry-local
//	ocdchaos -scenario crash-source -n 30 -tokens 60 -crash-at 2
//	ocdchaos -scenario partition -k 2 -heal 0,4,16,-1 -monitor
//	ocdchaos -scenario churn -churn-rates 0.01,0.05,0.1 -rejoin 0.5 -journal sweep.jsonl
//	ocdchaos -list
//	ocdchaos -experiment chaos -param intensities=0,0.5 -param heuristics=local -csv
//	ocdchaos -spec sweeps.json -monitor
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ocd/internal/cliutil"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ocdchaos:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ocdchaos", flag.ContinueOnError)
	scenario := fs.String("scenario", "sweep", "scenario: sweep | crash-source | partition | churn")
	fs.Int("n", 30, "number of vertices")
	fs.Int("tokens", 24, "number of tokens in the file")
	fs.String("intensities", "0,0.25,0.5,0.75,1", "comma-separated fault intensities in [0,1] (sweep)")
	fs.String("heuristics", "local,bandwidth,retry-local", "comma-separated heuristic names; retry-<name> wraps in the backoff sender")
	fs.Int("crash-at", 2, "step at which the sole source crash-stops (crash-source)")
	fs.Int("k", 2, "number of partition sides (partition)")
	fs.String("heal", "0,4,16,-1", "comma-separated partition heal times in steps, -1 = never heals (partition)")
	fs.String("churn-rates", "0,0.02,0.05,0.1", "comma-separated per-step leave probabilities (churn)")
	fs.Float64("rejoin", 0.5, "per-step rejoin probability for absent members, 0 = departures are permanent (churn)")
	csv := fs.Bool("csv", false, "emit CSV instead of the ASCII table")
	harness := cliutil.AddHarness(fs)
	spec := cliutil.AddSpecMode(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := spec.CheckFlags(fs); err != nil {
		return err
	}
	if !spec.Active() {
		if err := useScenario(fs, *scenario, spec); err != nil {
			return err
		}
	}
	if err := harness.Validate(); err != nil {
		return err
	}
	if err := harness.Start(); err != nil {
		return err
	}
	// Finish carries the telemetry/profile write errors; it must reach the
	// exit code even when the run itself failed first.
	err := spec.Execute(fs, stdout, *csv, harness)
	if ferr := harness.Finish(); ferr != nil && err == nil {
		err = ferr
	}
	return err
}

// scenarios maps each -scenario value to the registered experiment it
// runs and the scenario flags that experiment takes.
var scenarios = map[string]struct {
	experiment string
	flags      []string
}{
	"sweep":        {"chaos", []string{"n", "tokens", "intensities", "heuristics"}},
	"crash-source": {"crashed-source", []string{"n", "tokens", "crash-at"}},
	"partition":    {"partition", []string{"n", "tokens", "k", "heal", "heuristics"}},
	"churn":        {"churn", []string{"n", "tokens", "churn-rates", "rejoin", "heuristics"}},
}

// useScenario turns a -scenario invocation into the -experiment one it
// names: each of the scenario's flags becomes the experiment parameter of
// the same name (-churn-rates sets leave), so the spec's checks are the
// only validation and the run takes the same path as -experiment.
func useScenario(fs *flag.FlagSet, name string, m *cliutil.SpecMode) error {
	sc, ok := scenarios[name]
	if !ok {
		return fmt.Errorf("unknown scenario %q (have sweep, crash-source, partition, churn)", name)
	}
	m.Experiment = sc.experiment
	m.Params = make(cliutil.Params, len(sc.flags))
	for _, f := range sc.flags {
		param := f
		if f == "churn-rates" {
			param = "leave"
		}
		m.Params[param] = fs.Lookup(f).Value.String()
	}
	return nil
}

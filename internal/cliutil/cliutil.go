// Package cliutil holds the command-line plumbing shared by cmd/ocdsim and
// cmd/ocdchaos: the common harness flags (seed, journal, monitor,
// parallelism, telemetry, profiles), table writing, and the registry-
// driven spec mode (-experiment/-param/-list/-spec) that lowers both
// binaries onto the declarative experiment pipeline.
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"ocd/internal/experiments"
	"ocd/internal/telemetry"
)

// Harness bundles the flags every experiment-running binary shares: the
// base seed, the sweep harness ring (crash-safety journal, kernel
// invariant monitor, runner parallelism), and the observability ring
// (telemetry JSONL stream, pprof CPU/heap profiles). The lifecycle is
// Validate → Start → run → Finish; Finish's error must reach the exit
// code, since it carries the profile and telemetry write/close errors.
type Harness struct {
	Seed        int64
	Journal     string
	Monitor     bool
	Parallelism int
	Telemetry   string
	CPUProfile  string
	MemProfile  string

	reg     *telemetry.Registry
	cpuFile *os.File
}

// AddHarness registers the shared harness flags on fs.
func AddHarness(fs *flag.FlagSet) *Harness {
	h := &Harness{}
	fs.Int64Var(&h.Seed, "seed", 1, "random seed")
	fs.StringVar(&h.Journal, "journal", "", "crash-safety journal path; re-invoking with the same journal resumes from completed cells")
	fs.BoolVar(&h.Monitor, "monitor", false, "attach the kernel invariant monitor; any violation fails the run")
	fs.IntVar(&h.Parallelism, "parallelism", 0, "experiment runner worker count (0 = GOMAXPROCS); output is identical at every setting")
	fs.StringVar(&h.Telemetry, "telemetry", "", "write the run's metric stream to this JSONL file; never changes the experiment output")
	fs.StringVar(&h.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&h.MemProfile, "memprofile", "", "write a pprof heap profile to this file at exit")
	return h
}

// Validate rejects harness flag values no mode accepts.
func (h *Harness) Validate() error {
	if h.Parallelism < 0 {
		return fmt.Errorf("-parallelism must be non-negative, got %d", h.Parallelism)
	}
	return nil
}

// Start begins the observability ring: it allocates the telemetry
// registry when -telemetry was given and starts CPU profiling when
// -cpuprofile was given. Finish must run (even on error paths) once
// Start has succeeded.
func (h *Harness) Start() error {
	if h.Telemetry != "" {
		h.reg = telemetry.New()
	}
	if h.CPUProfile != "" {
		f, err := os.Create(h.CPUProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		h.cpuFile = f
	}
	return nil
}

// Registry returns the run's metric registry — nil when -telemetry is
// off, which every instrumented seam treats as "record nothing".
func (h *Harness) Registry() *telemetry.Registry { return h.reg }

// Finish ends the observability ring: it stops the CPU profile, writes
// the heap profile and the telemetry JSONL stream, and checks every
// close. All failures are joined — a telemetry stream that cannot flush
// must fail the process, not vanish in a defer.
func (h *Harness) Finish() error {
	var errs []error
	if h.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := h.cpuFile.Close(); err != nil {
			errs = append(errs, fmt.Errorf("-cpuprofile: %w", err))
		}
		h.cpuFile = nil
	}
	if h.MemProfile != "" {
		if err := writeHeapProfile(h.MemProfile); err != nil {
			errs = append(errs, fmt.Errorf("-memprofile: %w", err))
		}
	}
	if h.reg != nil && h.Telemetry != "" {
		if err := writeTelemetry(h.Telemetry, h.reg); err != nil {
			errs = append(errs, fmt.Errorf("-telemetry: %w", err))
		}
	}
	return errors.Join(errs...)
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // materialize up-to-date allocation statistics
	werr := pprof.WriteHeapProfile(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

func writeTelemetry(path string, reg *telemetry.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := reg.WriteJSONL(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// harnessParamNames maps the shared harness flag names onto the spec
// parameter names they override (they coincide by construction).
var harnessParamNames = []string{"seed", "journal", "monitor", "parallelism"}

// overrides merges the harness flags the user explicitly set into the
// parameter overrides of one spec invocation: only flags the spec declares
// are forwarded, and explicit -param values win.
func (h *Harness) overrides(fs *flag.FlagSet, spec *experiments.Spec, params map[string]string) map[string]string {
	set := make(map[string]bool, len(harnessParamNames))
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	out := make(map[string]string, len(params)+len(harnessParamNames))
	for k, v := range params {
		out[k] = v
	}
	for _, name := range harnessParamNames {
		if !set[name] || !spec.HasParam(name) {
			continue
		}
		if _, explicit := out[name]; explicit {
			continue
		}
		out[name] = fs.Lookup(name).Value.String()
	}
	return out
}

// WriteTable renders one experiment table to w, as CSV or ASCII. Write
// failures (closed pipe, full disk) are reported instead of silently
// exiting zero with a truncated table.
func WriteTable(w io.Writer, t *experiments.Table, csv bool) error {
	var err error
	if csv {
		_, err = fmt.Fprint(w, t.CSV())
	} else {
		_, err = fmt.Fprint(w, t.ASCII())
	}
	if err != nil {
		return fmt.Errorf("writing table: %w", err)
	}
	return nil
}

// Params is the repeatable -param k=v flag.
type Params map[string]string

func (p Params) String() string {
	// Flag printing only; the zero value renders empty.
	if len(p) == 0 {
		return ""
	}
	return fmt.Sprintf("%d params", len(p))
}

// Set records one k=v override.
func (p *Params) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok || k == "" {
		return fmt.Errorf("want name=value, got %q", s)
	}
	if *p == nil {
		*p = make(Params)
	}
	if _, dup := (*p)[k]; dup {
		return fmt.Errorf("duplicate param %q", k)
	}
	(*p)[k] = v
	return nil
}

// SpecMode bundles the registry-driven flags: -list prints the registry,
// -experiment runs one spec with -param overrides, -spec runs a JSON sweep
// file, and -jsonl streams every row into a JSONL sink as it is produced.
type SpecMode struct {
	Experiment string
	List       bool
	SpecFile   string
	JSONL      string
	Params     Params
}

// AddSpecMode registers the spec-mode flags on fs.
func AddSpecMode(fs *flag.FlagSet) *SpecMode {
	m := &SpecMode{}
	fs.StringVar(&m.Experiment, "experiment", "", "run a registered experiment by name (see -list)")
	fs.BoolVar(&m.List, "list", false, "list the experiment registry with parameter schemas and exit")
	fs.StringVar(&m.SpecFile, "spec", "", "run the experiment invocations in this JSON spec file")
	fs.StringVar(&m.JSONL, "jsonl", "", "stream experiment rows into this JSONL file as they are produced")
	fs.Var(&m.Params, "param", "override one experiment parameter as name=value (repeatable)")
	return m
}

// Active reports whether any spec-mode flag was used, i.e. whether Execute
// will handle the invocation instead of the binary's classic mode.
func (m *SpecMode) Active() bool {
	return m.List || m.Experiment != "" || m.SpecFile != "" || len(m.Params) > 0
}

// specModeFlags are the flags a spec-mode invocation reads: SpecMode's and
// Harness's own, and -csv in a binary that has it.
var specModeFlags = []string{
	"experiment", "list", "spec", "jsonl", "param",
	"seed", "journal", "monitor", "parallelism", "telemetry", "cpuprofile", "memprofile",
	"csv",
}

// CheckFlags fails an invocation that explicitly sets a flag its mode does
// not read, naming the flag, instead of ignoring it and exiting 0. In spec
// mode that is every flag outside specModeFlags; in the binary's own mode
// it is each of specOnly, the flags only spec mode reads there.
func (m *SpecMode) CheckFlags(fs *flag.FlagSet, specOnly ...string) error {
	active := m.Active()
	var err error
	fs.Visit(func(f *flag.Flag) {
		switch {
		case err != nil:
		case active && !slices.Contains(specModeFlags, f.Name):
			err = fmt.Errorf("-%s is not read by -experiment, -spec or -list; set experiment parameters with -param", f.Name)
		case !active && slices.Contains(specOnly, f.Name):
			err = fmt.Errorf("-%s must be used with -experiment or -spec; a single run ignores it", f.Name)
		}
	})
	return err
}

// Execute handles a spec-mode invocation: the registry listing, a single
// -experiment run, or a -spec sweep file. The harness flags the user set
// explicitly are merged into every invocation that declares them. Tables
// are written to w (CSV when csv is set), separated by a blank line.
func (m *SpecMode) Execute(fs *flag.FlagSet, w io.Writer, csv bool, h *Harness) error {
	if m.List {
		if m.Experiment != "" || m.SpecFile != "" || len(m.Params) > 0 {
			return fmt.Errorf("-list does not combine with -experiment, -spec, or -param")
		}
		return experiments.Describe(w)
	}
	if m.Experiment != "" && m.SpecFile != "" {
		return fmt.Errorf("-experiment and -spec are mutually exclusive")
	}
	if m.Experiment == "" && len(m.Params) > 0 {
		return fmt.Errorf("-param requires -experiment")
	}

	var invs []experiments.Invocation
	switch {
	case m.Experiment != "":
		invs = []experiments.Invocation{{Experiment: m.Experiment, Params: m.Params}}
		if _, ok := experiments.Lookup(m.Experiment); !ok {
			// Surface the registry's canonical unknown-name error (with the
			// catalogue) rather than a bare failure downstream.
			_, err := experiments.RunStrings(m.Experiment, nil)
			return err
		}
	case m.SpecFile != "":
		loaded, err := experiments.LoadSpecFile(m.SpecFile)
		if err != nil {
			return err
		}
		invs = loaded
	default:
		return fmt.Errorf("spec mode needs -list, -experiment, or -spec")
	}

	var sinks []experiments.Sink
	var jsonlFile *os.File
	if m.JSONL != "" {
		f, err := os.Create(m.JSONL)
		if err != nil {
			return err
		}
		jsonlFile = f
		sinks = append(sinks, &experiments.JSONLSink{W: f})
	}
	// The close error must reach the caller: a row log whose tail never
	// hit disk is corrupt, and exiting zero would hide it.
	closeJSONL := func(err error) error {
		if jsonlFile == nil {
			return err
		}
		if cerr := jsonlFile.Close(); cerr != nil && err == nil {
			return fmt.Errorf("-jsonl: %w", cerr)
		}
		return err
	}

	for i, inv := range invs {
		spec, _ := experiments.Lookup(inv.Experiment)
		tab, err := experiments.RunStringsTelemetry(inv.Experiment, h.overrides(fs, spec, inv.Params), h.Registry(), sinks...)
		if err != nil {
			return closeJSONL(err)
		}
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return closeJSONL(fmt.Errorf("writing table: %w", err))
			}
		}
		if err := WriteTable(w, tab, csv); err != nil {
			return closeJSONL(err)
		}
	}
	return closeJSONL(nil)
}

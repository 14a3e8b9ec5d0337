package experiments

// The package Registry: every experiment file registers its Spec(s) from
// init, so importing this package is enough to see the full catalogue.
// Lookup is by kebab-case name; Specs() and Describe() iterate in sorted
// order so listings and error messages are deterministic.

import (
	"fmt"
	"io"
	"sort"

	"ocd/internal/telemetry"
)

var registry = make(map[string]*Spec)

// Register adds a spec to the package registry. It panics on an invalid
// declaration or a duplicate name — both are init-time programming errors.
func Register(s Spec) {
	if err := s.validate(); err != nil {
		panic(err)
	}
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("experiments: duplicate spec %q", s.Name))
	}
	registry[s.Name] = &s
}

// Lookup returns the spec registered under name.
func Lookup(name string) (*Spec, bool) {
	s, ok := registry[name]
	return s, ok
}

// Names returns the registered spec names in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Specs returns every registered spec, sorted by name.
func Specs() []*Spec {
	names := Names()
	out := make([]*Spec, len(names))
	for i, name := range names {
		out[i] = registry[name]
	}
	return out
}

// Run resolves typed values against the named spec and executes it — the
// one-line body of every ocd.Experiment* facade function.
func Run(name string, vals Values) (*Table, error) {
	return RunTelemetry(name, vals, nil)
}

// RunTelemetry is Run with a metric registry attached to the run (nil =
// telemetry off). The table is unaffected by tel.
func RunTelemetry(name string, vals Values, tel *telemetry.Registry) (*Table, error) {
	s, ok := Lookup(name)
	if !ok {
		return nil, unknownSpec(name)
	}
	a, err := s.ResolveValues(vals)
	if err != nil {
		return nil, err
	}
	return s.exec(a, tel, nil)
}

// RunStrings resolves string overrides against the named spec and executes
// it, streaming into the given sinks — the CLI and spec-file path.
func RunStrings(name string, overrides map[string]string, sinks ...Sink) (*Table, error) {
	return RunStringsTelemetry(name, overrides, nil, sinks...)
}

// RunStringsTelemetry is RunStrings with a metric registry attached to the
// run (nil = telemetry off). Sharing one registry across calls accumulates
// a single process-wide stream, which is how the CLIs aggregate multi-spec
// sweep files. The table is unaffected by tel.
func RunStringsTelemetry(name string, overrides map[string]string, tel *telemetry.Registry, sinks ...Sink) (*Table, error) {
	s, ok := Lookup(name)
	if !ok {
		return nil, unknownSpec(name)
	}
	a, err := s.ResolveStrings(overrides)
	if err != nil {
		return nil, err
	}
	return s.exec(a, tel, sinks)
}

func unknownSpec(name string) error {
	return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
}

// Describe writes the registry listing — every spec with its parameter
// schema — in sorted order.
func Describe(w io.Writer) error {
	for i, s := range Specs() {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s — %s\n  facade: ocd.%s  seeds: %s\n", s.Name, s.Doc, s.Facade, s.SeedPolicy); err != nil {
			return err
		}
		for _, p := range s.Params {
			if _, err := fmt.Fprintf(w, "  -param %s=<%v>  (default %s)  %s\n",
				p.Name, p.Kind, formatDefault(p), p.Doc); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatDefault renders a parameter default the way it would be typed on
// the command line.
func formatDefault(p Param) string {
	switch v := p.Default.(type) {
	case nil:
		return `""`
	case string:
		if v == "" {
			return `""`
		}
		return v
	case []int:
		if len(v) == 0 {
			return `"" (all)`
		}
		s := ""
		for i, x := range v {
			if i > 0 {
				s += ","
			}
			s += fmt.Sprintf("%d", x)
		}
		return s
	case []float64:
		s := ""
		for i, x := range v {
			if i > 0 {
				s += ","
			}
			s += fmt.Sprintf("%v", x)
		}
		return s
	case []string:
		if len(v) == 0 {
			return `"" (all)`
		}
		s := ""
		for i, x := range v {
			if i > 0 {
				s += ","
			}
			s += x
		}
		return s
	default:
		return fmt.Sprintf("%v", v)
	}
}

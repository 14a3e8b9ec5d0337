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

// Run resolves string overrides against the named spec and executes it,
// streaming into the given sinks. It is the one entry point behind the
// facade, ocdsim's -experiment mode and -spec sweep files. The driver's
// instrumented seams record into tel (nil = telemetry off); sharing one
// registry across calls accumulates a single process-wide stream, which is
// how ocdsim aggregates a multi-spec sweep file. The table is unaffected by
// tel.
func Run(name string, overrides map[string]string, tel *telemetry.Registry, sinks ...Sink) (*Table, error) {
	s, ok := Lookup(name)
	if !ok {
		return nil, unknownSpec(name)
	}
	a, err := s.Resolve(overrides)
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
		if _, err := fmt.Fprintf(w, "%s — %s\n  seeds: %s\n", s.Name, s.Doc, s.SeedPolicy); err != nil {
			return err
		}
		for _, p := range s.Params {
			def := p.Default
			switch {
			case def == "" && (p.Kind == Ints || p.Kind == Floats || p.Kind == Strings):
				def = `"" (all)`
			case def == "":
				def = `""`
			}
			if _, err := fmt.Fprintf(w, "  -param %s=<%v>  (default %s)  %s\n",
				p.Name, p.Kind, def, p.Doc); err != nil {
				return err
			}
		}
	}
	return nil
}

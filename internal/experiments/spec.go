package experiments

// The declarative spec layer: every experiment in this package registers a
// Spec — its name, a self-describing parameter schema with defaults and
// validation, and a driver body — in the package Registry. Callers run
// experiments as data: resolve a parameter map (typed values from the
// facade, strings from a CLI or a JSON sweep file) against the schema and
// execute. The facade's Experiment* functions, the ocdsim/ocdchaos
// -experiment modes, and reproducible -spec sweep files all lower to the
// same path, which is also the layer sharded or distributed sweeps plug
// into: a (spec name, params) pair is a complete, serializable description
// of a run.

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"ocd/internal/core"
	"ocd/internal/fault"
	"ocd/internal/heuristics"
	"ocd/internal/telemetry"
	"ocd/internal/trace"
	"ocd/internal/workload"
)

// Kind is the value type of one experiment parameter.
type Kind int

const (
	// Int is a single integer.
	Int Kind = iota + 1
	// Int64 is a single 64-bit integer (seeds).
	Int64
	// Float is a single float64.
	Float
	// Bool is a boolean.
	Bool
	// String is a free-form string.
	String
	// Ints is a comma-separated integer list.
	Ints
	// Floats is a comma-separated float list.
	Floats
	// Strings is a comma-separated string list.
	Strings
	// Instance is a problem instance: the literal "figure1", a path to an
	// instance JSON file, or (from the facade) an injected *core.Instance.
	Instance
)

func (k Kind) String() string {
	switch k {
	case Int:
		return "int"
	case Int64:
		return "int64"
	case Float:
		return "float"
	case Bool:
		return "bool"
	case String:
		return "string"
	case Ints:
		return "ints"
	case Floats:
		return "floats"
	case Strings:
		return "strings"
	case Instance:
		return "instance"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Param is one declared experiment parameter.
type Param struct {
	// Name is the parameter's key (kebab-case, as typed on a CLI).
	Name string
	// Kind is the value type.
	Kind Kind
	// Default is the value used when the parameter is not supplied; its
	// dynamic type must match Kind.
	Default any
	// Doc is the one-line description shown by -list.
	Doc string
	// Check optionally validates the resolved value.
	Check func(any) error
}

// Seed policies, reported by -list: how a spec consumes randomness.
const (
	// SeedDerived marks specs whose cells derive their PRNG streams from
	// (base seed, cell key) through the runner — parallel-safe and
	// reproducible from the seed parameter alone.
	SeedDerived = "derived"
	// SeedNone marks fully deterministic specs with no seed parameter.
	SeedNone = "none"
)

// Spec declares one runnable experiment: its identity, parameter schema,
// seed policy, and driver body.
type Spec struct {
	// Name is the registry key (kebab-case).
	Name string
	// Facade is the ocd.Experiment* function this spec powers; the
	// registry-completeness test reconciles the two sets.
	Facade string
	// Doc is the one-line description shown by -list.
	Doc string
	// SeedPolicy is SeedDerived or SeedNone.
	SeedPolicy string
	// Params is the parameter schema, in display order.
	Params []Param
	// Smoke holds tiny string overrides for the CI smoke run of this spec;
	// nil means the defaults are already smoke-sized.
	Smoke map[string]string
	// Run is the driver body.
	Run func(a Args, em *Emitter) error
}

// Values carries typed parameter overrides (the facade path).
type Values map[string]any

// Args is a fully resolved parameter set: every declared parameter is
// present with its final typed value. The accessors panic on a missing
// name or kind mismatch — both are driver programming errors, impossible
// for resolved args.
type Args struct {
	spec *Spec
	vals map[string]any
}

func (a Args) get(name string, kind Kind) any {
	v, ok := a.vals[name]
	if !ok {
		panic(fmt.Sprintf("experiments: spec %s has no param %q", a.spec.Name, name))
	}
	if p, _ := a.spec.ParamNamed(name); p.Kind != kind {
		panic(fmt.Sprintf("experiments: spec %s param %q is %v, read as %v", a.spec.Name, name, p.Kind, kind))
	}
	return v
}

// Int returns an Int parameter.
func (a Args) Int(name string) int { return a.get(name, Int).(int) }

// Int64 returns an Int64 parameter.
func (a Args) Int64(name string) int64 { return a.get(name, Int64).(int64) }

// Float returns a Float parameter.
func (a Args) Float(name string) float64 { return a.get(name, Float).(float64) }

// Bool returns a Bool parameter.
func (a Args) Bool(name string) bool { return a.get(name, Bool).(bool) }

// String returns a String parameter.
func (a Args) String(name string) string { return a.get(name, String).(string) }

// Ints returns an Ints parameter.
func (a Args) Ints(name string) []int { return a.get(name, Ints).([]int) }

// Floats returns a Floats parameter.
func (a Args) Floats(name string) []float64 { return a.get(name, Floats).([]float64) }

// Strings returns a Strings parameter.
func (a Args) Strings(name string) []string { return a.get(name, Strings).([]string) }

// Instance returns an Instance parameter, already loaded.
func (a Args) Instance(name string) *core.Instance { return a.get(name, Instance).(*core.Instance) }

// ParamNamed returns the declared parameter with that name.
func (s *Spec) ParamNamed(name string) (Param, bool) {
	for _, p := range s.Params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// HasParam reports whether the schema declares name.
func (s *Spec) HasParam(name string) bool {
	_, ok := s.ParamNamed(name)
	return ok
}

// validate checks the spec declaration itself: used by Register and by the
// registry self-tests.
func (s *Spec) validate() error {
	if s.Name == "" || s.Run == nil {
		return fmt.Errorf("experiments: spec %q incomplete (name and run are required)", s.Name)
	}
	if s.Facade == "" || !strings.HasPrefix(s.Facade, "Experiment") {
		return fmt.Errorf("experiments: spec %s: facade %q does not name an Experiment* function", s.Name, s.Facade)
	}
	if s.SeedPolicy != SeedDerived && s.SeedPolicy != SeedNone {
		return fmt.Errorf("experiments: spec %s: seed policy %q", s.Name, s.SeedPolicy)
	}
	seen := make(map[string]bool, len(s.Params))
	for _, p := range s.Params {
		if p.Name == "" || p.Doc == "" {
			return fmt.Errorf("experiments: spec %s: param %q must have a name and a doc line", s.Name, p.Name)
		}
		if seen[p.Name] {
			return fmt.Errorf("experiments: spec %s: duplicate param %q", s.Name, p.Name)
		}
		seen[p.Name] = true
		if _, err := coerce(p, p.Default); err != nil {
			return fmt.Errorf("experiments: spec %s: default for %s: %w", s.Name, p.Name, err)
		}
	}
	if s.HasParam("seed") != (s.SeedPolicy == SeedDerived) {
		return fmt.Errorf("experiments: spec %s: seed policy %q inconsistent with a %v seed param",
			s.Name, s.SeedPolicy, s.HasParam("seed"))
	}
	return nil
}

// coerce kind-checks (and for Instance, loads) one typed value, then runs
// the param's Check.
func coerce(p Param, v any) (any, error) {
	out, err := coerceKind(p, v)
	if err != nil {
		return nil, err
	}
	if p.Check != nil {
		if err := p.Check(out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func coerceKind(p Param, v any) (any, error) {
	switch p.Kind {
	case Int:
		if x, ok := v.(int); ok {
			return x, nil
		}
	case Int64:
		switch x := v.(type) {
		case int64:
			return x, nil
		case int:
			return int64(x), nil
		}
	case Float:
		switch x := v.(type) {
		case float64:
			return x, nil
		case int:
			return float64(x), nil
		}
	case Bool:
		if x, ok := v.(bool); ok {
			return x, nil
		}
	case String:
		if x, ok := v.(string); ok {
			return x, nil
		}
	case Ints:
		if x, ok := v.([]int); ok {
			return x, nil
		}
		if v == nil {
			return []int(nil), nil
		}
	case Floats:
		if x, ok := v.([]float64); ok {
			return x, nil
		}
		if v == nil {
			return []float64(nil), nil
		}
	case Strings:
		if x, ok := v.([]string); ok {
			return x, nil
		}
		if v == nil {
			return []string(nil), nil
		}
	case Instance:
		switch x := v.(type) {
		case *core.Instance:
			return x, nil
		case string:
			return loadInstance(x)
		}
	}
	return nil, fmt.Errorf("want %v, got %T", p.Kind, v)
}

// parse converts one CLI/spec-file string into the param's kind.
func parse(p Param, s string) (any, error) {
	switch p.Kind {
	case Int:
		return strconv.Atoi(s)
	case Int64:
		return strconv.ParseInt(s, 10, 64)
	case Float:
		return strconv.ParseFloat(s, 64)
	case Bool:
		return strconv.ParseBool(s)
	case String, Instance:
		return s, nil
	case Ints:
		return parseIntList(s)
	case Floats:
		return parseFloatList(s)
	case Strings:
		return splitList(s), nil
	}
	return nil, fmt.Errorf("unhandled kind %v", p.Kind)
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseIntList(s string) ([]int, error) {
	parts := splitList(s)
	out := make([]int, len(parts))
	for i, part := range parts {
		x, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", part, err)
		}
		out[i] = x
	}
	return out, nil
}

func parseFloatList(s string) ([]float64, error) {
	parts := splitList(s)
	out := make([]float64, len(parts))
	for i, part := range parts {
		x, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", part, err)
		}
		out[i] = x
	}
	return out, nil
}

// loadInstance resolves an Instance parameter given as a string: the
// built-in "figure1" gadget or a path to an instance JSON file.
func loadInstance(s string) (*core.Instance, error) {
	if s == "figure1" {
		return workload.Figure1(), nil
	}
	f, err := os.Open(s)
	if err != nil {
		return nil, fmt.Errorf("instance %q is not \"figure1\" and not a readable file: %w", s, err)
	}
	defer f.Close()
	return trace.DecodeInstance(f)
}

// ResolveValues resolves typed overrides (the facade path) against the
// schema: every declared parameter gets its override or default, every
// override must be declared, and all checks must pass.
func (s *Spec) ResolveValues(vals Values) (Args, error) {
	if err := s.checkKnown(len(vals), func(name string) bool { _, ok := vals[name]; return ok }); err != nil {
		return Args{}, err
	}
	return s.resolve(func(name string) (any, bool) {
		v, ok := vals[name]
		return v, ok
	})
}

// ResolveStrings resolves string overrides (the CLI and spec-file path).
func (s *Spec) ResolveStrings(overrides map[string]string) (Args, error) {
	if err := s.checkKnown(len(overrides), func(name string) bool { _, ok := overrides[name]; return ok }); err != nil {
		return Args{}, err
	}
	var firstErr error
	a, err := s.resolve(func(name string) (any, bool) {
		raw, ok := overrides[name]
		if !ok {
			return nil, false
		}
		p, _ := s.ParamNamed(name)
		v, err := parse(p, raw)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("experiments: %s: param %s: %w", s.Name, name, err)
		}
		return v, true
	})
	if firstErr != nil {
		return Args{}, firstErr
	}
	return a, err
}

// checkKnown rejects overrides whose keys the schema does not declare.
// The caller supplies a membership probe instead of the map itself so the
// two override map types share one deterministic implementation (declared
// params are probed in schema order; no map iteration).
func (s *Spec) checkKnown(count int, has func(string) bool) error {
	known := 0
	for _, p := range s.Params {
		if has(p.Name) {
			known++
		}
	}
	if known != count {
		return fmt.Errorf("experiments: %s: unknown param (schema has %s)",
			s.Name, strings.Join(s.paramNames(), ", "))
	}
	return nil
}

func (s *Spec) resolve(lookup func(string) (any, bool)) (Args, error) {
	vals := make(map[string]any, len(s.Params))
	for _, p := range s.Params {
		v, ok := lookup(p.Name)
		if !ok {
			v = p.Default
		}
		out, err := coerce(p, v)
		if err != nil {
			return Args{}, fmt.Errorf("experiments: %s: param %s: %w", s.Name, p.Name, err)
		}
		vals[p.Name] = out
	}
	return Args{spec: s, vals: vals}, nil
}

func (s *Spec) paramNames() []string {
	names := make([]string, len(s.Params))
	for i, p := range s.Params {
		names[i] = p.Name
	}
	return names
}

// exec runs the spec with resolved args, streaming into the given sinks
// and returning the assembled table. The driver's instrumented seams
// record into tel (nil = telemetry off), which may be shared across runs to
// accumulate one process-wide stream; telemetry never feeds the table.
func (s *Spec) exec(a Args, tel *telemetry.Registry, sinks []Sink) (*Table, error) {
	em := newEmitter(sinks)
	em.tel = tel
	if err := s.Run(a, em); err != nil {
		return nil, err
	}
	return em.finish()
}

// Parameter checks, applied element-wise to list kinds.

func eachNumber(v any, f func(float64) error) error {
	switch x := v.(type) {
	case int:
		return f(float64(x))
	case int64:
		return f(float64(x))
	case float64:
		return f(x)
	case []int:
		for _, e := range x {
			if err := f(float64(e)); err != nil {
				return err
			}
		}
		return nil
	case []float64:
		for _, e := range x {
			if err := f(e); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("not numeric: %T", v)
}

// checkPositive requires every element to be > 0.
func checkPositive(v any) error {
	return eachNumber(v, func(x float64) error {
		if x <= 0 {
			return fmt.Errorf("must be positive, got %v", x)
		}
		return nil
	})
}

// checkNonNegative requires every element to be >= 0.
func checkNonNegative(v any) error {
	return eachNumber(v, func(x float64) error {
		if x < 0 {
			return fmt.Errorf("must be non-negative, got %v", x)
		}
		return nil
	})
}

// checkUnit requires every element to lie in [0, 1].
func checkUnit(v any) error {
	return eachNumber(v, func(x float64) error {
		if x < 0 || x > 1 {
			return fmt.Errorf("must be in [0,1], got %v", x)
		}
		return nil
	})
}

// checkNonEmpty requires a list parameter to have at least one element.
func checkNonEmpty(v any) error {
	n := 0
	switch x := v.(type) {
	case []int:
		n = len(x)
	case []float64:
		n = len(x)
	case []string:
		n = len(x)
	default:
		return fmt.Errorf("not a list: %T", v)
	}
	if n == 0 {
		return fmt.Errorf("must not be empty")
	}
	return nil
}

// checkAll chains several checks.
func checkAll(checks ...func(any) error) func(any) error {
	return func(v any) error {
		for _, c := range checks {
			if err := c(v); err != nil {
				return err
			}
		}
		return nil
	}
}

// checkChaosHeuristics validates heuristic names against the chaos-harness
// naming scheme (paper heuristics, protocol-local, retry-<name>).
func checkChaosHeuristics(v any) error {
	names := v.([]string)
	if len(names) == 0 {
		return fmt.Errorf("must name at least one heuristic")
	}
	_, err := ResolveHeuristics(names, fault.Plan{})
	return err
}

// checkSweepHeuristics validates heuristic names against the five paper
// heuristics; an empty list means all five.
func checkSweepHeuristics(v any) error {
	for _, name := range v.([]string) {
		if _, ok := heuristics.Named(name); !ok {
			return fmt.Errorf("experiments: unknown heuristic %q (have %v)", name, heuristics.Names())
		}
	}
	return nil
}

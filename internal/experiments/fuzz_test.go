package experiments

import (
	"sort"
	"strings"
	"testing"
)

// FuzzParseSpecFile hardens the -spec decoder: arbitrary bytes must parse
// or fail with an error, every invocation it accepts must name a
// registered experiment, and resolving that invocation's parameters must
// return Args or an error, never panic. Invocations that set an
// Instance-kind parameter are not resolved, since resolving one opens the
// named file.
func FuzzParseSpecFile(f *testing.F) {
	// The two-invocation sweep file the CI spec-smoke job runs.
	f.Add([]byte(`[
  {"experiment": "figure1"},
  {"experiment": "chaos",
   "params": {"n": "12", "tokens": "6", "intensities": "0,0.5",
              "heuristics": "local,retry-local"}}
]`))
	f.Add([]byte(`{"experiment": "theorem4", "params": {"decoys": "1,4"}}`))
	f.Add([]byte(`{"experiment": "figure1"} {"experiment": "figure1"}`))
	f.Add([]byte(`[{"experiment": "figure1", "parms": {"n": "3"}}]`))
	f.Add([]byte(`[{"experiment": "churn", "params": {"leave": "0,NaN", "rejoin": "0.5"}}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		invs, err := ParseSpecFile(data)
		if err != nil {
			return
		}
		if len(invs) == 0 {
			t.Fatal("ParseSpecFile accepted a file with no invocations")
		}
	invocations:
		for _, inv := range invs {
			spec, ok := Lookup(inv.Experiment)
			if !ok {
				t.Fatalf("ParseSpecFile accepted unknown experiment %q", inv.Experiment)
			}
			for _, p := range spec.Params {
				if _, set := inv.Params[p.Name]; set && p.Kind == Instance {
					continue invocations
				}
			}
			// Either outcome is fine; a panic fails the target.
			_, _ = spec.Resolve(inv.Params)
		}
	})
}

// FuzzSpecResolve hardens the parameter resolver that every experiment
// input goes through: a fuzzed set of name=value lines (a line without
// "=" sets its name to ""; empty lines are skipped), resolved against
// every registered spec, must give an error or Args in which every
// declared parameter reads back through its kind's accessor, never a
// panic. A set that names an Instance-kind parameter is not resolved,
// since resolving one opens the named file.
func FuzzSpecResolve(f *testing.F) {
	for _, s := range Specs() {
		names := make([]string, 0, len(s.Smoke))
		for name := range s.Smoke {
			names = append(names, name)
		}
		sort.Strings(names)
		var lines []string
		for _, name := range names {
			lines = append(lines, name+"="+s.Smoke[name])
		}
		f.Add(strings.Join(lines, "\n"))
	}
	f.Add("")
	f.Add("n=abc")
	f.Add("n=99999999999999999999")
	f.Add("n=-3\ntokens=0")
	f.Add("intensities=0,NaN\nheuristics=")
	f.Add("leave=0,+Inf\nrejoin=-0.5")
	f.Add("heuristics=local,,nope")
	f.Add("seed=-1\nparallelism=0")
	f.Add("no-such-param=1")
	f.Add("n")
	f.Fuzz(func(t *testing.T, body string) {
		params := make(map[string]string)
		for _, line := range strings.Split(body, "\n") {
			if line == "" {
				continue
			}
			name, value, _ := strings.Cut(line, "=")
			params[name] = value
		}
		for _, s := range Specs() {
			if setsInstance(s, params) {
				continue
			}
			args, err := s.Resolve(params)
			if err != nil {
				continue
			}
			for _, p := range s.Params {
				readParam(args, p)
			}
		}
	})
}

// setsInstance reports whether params sets one of s's Instance-kind
// parameters.
func setsInstance(s *Spec, params map[string]string) bool {
	for _, p := range s.Params {
		if _, set := params[p.Name]; set && p.Kind == Instance {
			return true
		}
	}
	return false
}

// readParam reads p from args through the accessor of p's kind; the
// accessors panic on a parameter that is missing or of another kind.
func readParam(args Args, p Param) {
	switch p.Kind {
	case Int:
		args.Int(p.Name)
	case Int64:
		args.Int64(p.Name)
	case Float:
		args.Float(p.Name)
	case Bool:
		args.Bool(p.Name)
	case String:
		args.String(p.Name)
	case Ints:
		args.Ints(p.Name)
	case Floats:
		args.Floats(p.Name)
	case Strings:
		args.Strings(p.Name)
	case Instance:
		args.Instance(p.Name)
	}
}

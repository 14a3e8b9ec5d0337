package experiments

import "testing"

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

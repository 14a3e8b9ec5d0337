package experiments

// Reproducible sweep files: a JSON description of one or more registry
// invocations, runnable via `ocdsim -spec file.json`. The file pins the
// experiment names and every parameter override, so a sweep can be
// archived, diffed, and re-run to byte-identical tables.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Invocation is one experiment run in a spec file: the registry name plus
// string parameter overrides (exactly what -param would pass).
type Invocation struct {
	// Experiment is the registry name (see Names()).
	Experiment string `json:"experiment"`
	// Params overrides the spec's defaults; keys must be declared params.
	Params map[string]string `json:"params,omitempty"`
}

// LoadSpecFile reads a spec file holding either a single invocation object
// or an array of them, and validates every experiment name against the
// registry (parameter values are validated at run time by Spec.Resolve).
func LoadSpecFile(path string) ([]Invocation, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseSpecFile(data)
}

// ParseSpecFile parses spec-file bytes; see LoadSpecFile.
func ParseSpecFile(data []byte) ([]Invocation, error) {
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("experiments: spec file is empty")
	}
	var invs []Invocation
	if trimmed[0] == '[' {
		if err := strictUnmarshal(trimmed, &invs); err != nil {
			return nil, fmt.Errorf("experiments: spec file: %w", err)
		}
	} else {
		var one Invocation
		if err := strictUnmarshal(trimmed, &one); err != nil {
			return nil, fmt.Errorf("experiments: spec file: %w", err)
		}
		invs = []Invocation{one}
	}
	if len(invs) == 0 {
		return nil, fmt.Errorf("experiments: spec file names no experiments")
	}
	for i, inv := range invs {
		if _, ok := Lookup(inv.Experiment); !ok {
			return nil, fmt.Errorf("experiments: spec file entry %d: %w", i, unknownSpec(inv.Experiment))
		}
	}
	return invs, nil
}

// strictUnmarshal decodes JSON rejecting unknown fields, so a typo like
// "parms" fails loudly instead of silently running defaults.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Only a clean EOF may follow: trailing JSON decodes without error and
	// trailing garbage fails with a syntax error, so both are rejected.
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return fmt.Errorf("trailing data after the spec document")
	}
	return nil
}

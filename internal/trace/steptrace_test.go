package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ocd/internal/fault"
	"ocd/internal/heuristics"
	"ocd/internal/sim"
	"ocd/internal/topology"
	"ocd/internal/workload"
)

// lossyPlan is the reference runs' loss model: 20% Bernoulli loss.
var lossyPlan = fault.Plan{Loss: fault.Bernoulli{P: 0.2, Seed: 5}}

// collectRun executes a lossy reference run with a StepCollector attached
// and returns both, so tests can cross-check the trace against the result.
func collectRun(t *testing.T) (*StepCollector, *fault.Result) {
	t.Helper()
	g, err := topology.Random(40, topology.DefaultCaps, 3)
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.SingleFile(g, 30)
	col := NewStepCollector(inst)
	res, err := fault.Run(inst, heuristics.Local, lossyPlan, sim.Options{
		Seed: 5, IdlePatience: 20, Observer: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	return col, res
}

// TestObserverDoesNotPerturbRun is the runtime half of the obspure
// contract: attaching a collector must leave the schedule byte-identical
// to an unobserved run of the same (instance, strategy, seed).
func TestObserverDoesNotPerturbRun(t *testing.T) {
	g, err := topology.Random(40, topology.DefaultCaps, 3)
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.SingleFile(g, 30)
	opts := sim.Options{Seed: 5, IdlePatience: 20}
	bare, err := fault.Run(inst, heuristics.Local, lossyPlan, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Observer = NewStepCollector(inst)
	observed, err := fault.Run(inst, heuristics.Local, lossyPlan, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare.Schedule.Steps, observed.Schedule.Steps) {
		t.Error("attaching a StepCollector changed the schedule")
	}
	if bare.Lost != observed.Lost || bare.Steps != observed.Steps {
		t.Errorf("observer changed run stats: bare %d lost/%d steps, observed %d lost/%d steps",
			bare.Lost, bare.Steps, observed.Lost, observed.Steps)
	}
}

func TestStepCollectorMatchesResult(t *testing.T) {
	col, res := collectRun(t)
	if len(col.Records) != res.Schedule.Makespan() {
		t.Fatalf("collected %d records for makespan %d", len(col.Records), res.Schedule.Makespan())
	}
	moves, losses := 0, 0
	for i, rec := range col.Records {
		if rec.Step != i {
			t.Fatalf("record %d has step %d", i, rec.Step)
		}
		if got := len(res.Schedule.Steps[i]); rec.Moves != got {
			t.Errorf("step %d: record says %d moves, schedule has %d", i, rec.Moves, got)
		}
		if rec.MaxArcLoad > 0 && rec.ArcsUsed == 0 {
			t.Errorf("step %d: max arc load %d with no arcs used", i, rec.MaxArcLoad)
		}
		if rec.MinHolders > rec.MaxHolders || rec.MeanHolders < float64(rec.MinHolders) ||
			rec.MeanHolders > float64(rec.MaxHolders) {
			t.Errorf("step %d: holder spread inconsistent: %+v", i, rec)
		}
		moves += rec.Moves
		losses += rec.Losses
	}
	if moves != res.Schedule.Moves() {
		t.Errorf("trace delivered %d moves, schedule has %d", moves, res.Schedule.Moves())
	}
	if losses != res.Lost {
		t.Errorf("trace recorded %d losses, result has %d", losses, res.Lost)
	}
	if losses == 0 {
		t.Error("reference run lost no moves; the lossy path went unexercised")
	}
}

func TestStepTraceJSONLRoundTrip(t *testing.T) {
	col, _ := collectRun(t)
	var buf bytes.Buffer
	if err := EncodeStepTraceJSONL(&buf, col.Records); err != nil {
		t.Fatal(err)
	}
	// JSONL: exactly one JSON object per non-empty line.
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(col.Records) {
		t.Fatalf("encoded %d lines for %d records", len(lines), len(col.Records))
	}
	for i, line := range lines {
		if !strings.HasPrefix(line, "{") || !strings.HasSuffix(line, "}") {
			t.Fatalf("line %d is not a single JSON object: %q", i, line)
		}
	}
	got, err := DecodeStepTraceJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, col.Records) {
		t.Error("decoded step trace differs from the encoded records")
	}
}

func TestDecodeStepTraceJSONLRejectsBrokenInput(t *testing.T) {
	cases := map[string]string{
		"not json":            "garbage\n",
		"non-contiguous step": `{"step":1,"moves":0}` + "\n",
		"negative counter":    `{"step":0,"moves":-3}` + "\n",
	}
	for name, input := range cases {
		if _, err := DecodeStepTraceJSONL(strings.NewReader(input)); err == nil {
			t.Errorf("%s: decode accepted %q", name, input)
		}
	}
	// Lines that decode as JSON but are not step records: each error must
	// name the offending line. Line 0 is a valid record where the broken
	// line is line 1.
	const good = `{"step":0,"moves":1,"min_holders":1,"mean_holders":1.5,"max_holders":2}` + "\n"
	for _, c := range []struct {
		name, input, line string
	}{
		{"null", "null\n", "line 0"},
		{"null after a record", good + "null\n", "line 1"},
		{"empty object", "{}\n", "line 0"},
		{"no step", `{"moves":3}` + "\n", "line 0"},
		{"null step", good + `{"step":null}` + "\n", "line 1"},
		{"negative min_holders", `{"step":0,"min_holders":-4,"max_holders":-1,"mean_holders":-2,"utilization":-0.5}` + "\n", "line 0"},
		{"negative max_holders", good + `{"step":1,"max_holders":-1}` + "\n", "line 1"},
		{"negative mean_holders", `{"step":0,"mean_holders":-2}` + "\n", "line 0"},
		{"negative utilization", `{"step":0,"utilization":-0.5}` + "\n", "line 0"},
		{"min above max", good + `{"step":1,"min_holders":3,"mean_holders":2,"max_holders":2}` + "\n", "line 1"},
	} {
		recs, err := DecodeStepTraceJSONL(strings.NewReader(c.input))
		switch {
		case err == nil:
			t.Errorf("%s: decode accepted %q as %+v", c.name, c.input, recs)
		case !strings.Contains(err.Error(), c.line):
			t.Errorf("%s: error %q does not name %s", c.name, err, c.line)
		}
	}
	// Empty input is a valid, empty trace.
	if recs, err := DecodeStepTraceJSONL(strings.NewReader("")); err != nil || len(recs) != 0 {
		t.Errorf("empty input: got %v, %v; want empty trace", recs, err)
	}
}

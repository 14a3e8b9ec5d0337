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

// FuzzDecodeInstance hardens the decoder against hostile input: it must
// never panic, and whenever it succeeds the result must satisfy the
// instance invariants (Check).
func FuzzDecodeInstance(f *testing.F) {
	f.Add(`{"vertices":2,"numTokens":1,"arcs":[{"from":0,"to":1,"cap":1}],"have":[[0],[]],"want":[[],[0]]}`)
	f.Add(`{"vertices":0,"numTokens":0,"arcs":[],"have":[],"want":[]}`)
	f.Add(`{`)
	f.Add(`[]`)
	f.Add(`{"vertices":-5}`)
	f.Add(`{"vertices":3,"numTokens":2,"arcs":[{"from":9,"to":1,"cap":1}],"have":[[],[],[]],"want":[[],[],[]]}`)
	// A real serialized instance as a corpus seed.
	g, err := topology.Random(6, topology.DefaultCaps, 1)
	if err == nil {
		var buf bytes.Buffer
		if EncodeInstance(&buf, workload.SingleFile(g, 3)) == nil {
			f.Add(buf.String())
		}
	}
	f.Fuzz(func(t *testing.T, body string) {
		inst, err := DecodeInstance(strings.NewReader(body))
		if err != nil {
			return
		}
		if cerr := inst.Check(); cerr != nil {
			t.Errorf("decoder accepted an inconsistent instance: %v", cerr)
		}
	})
}

// FuzzDecodeSchedule hardens the schedule decoder the same way.
func FuzzDecodeSchedule(f *testing.F) {
	f.Add(`{"steps":[[{"from":0,"to":1,"token":0}]]}`)
	f.Add(`{"steps":[]}`)
	f.Add(`{`)
	f.Fuzz(func(t *testing.T, body string) {
		sched, err := DecodeSchedule(strings.NewReader(body))
		if err != nil {
			return
		}
		// Metrics must be callable on anything the decoder accepts.
		_ = sched.Makespan()
		_ = sched.Moves()
	})
}

// FuzzDecodeStepTraceJSONL hardens the step-trace read-back: arbitrary
// bytes must decode or fail with an error, never panic, every record the
// decoder accepts must have a non-negative utilization and holder spread
// with min_holders ≤ max_holders, and every stream it accepts must
// re-encode and decode to the same records.
func FuzzDecodeStepTraceJSONL(f *testing.F) {
	// A real trace: a lossy Local run with a collector attached.
	g, err := topology.Random(12, topology.DefaultCaps, 2)
	if err != nil {
		f.Fatal(err)
	}
	inst := workload.SingleFile(g, 6)
	col := NewStepCollector(inst)
	plan := fault.Plan{Loss: fault.Bernoulli{P: 0.2, Seed: 3}}
	if _, err := fault.Run(inst, heuristics.Local, plan, sim.Options{Seed: 3, IdlePatience: 10, Observer: col}); err != nil {
		f.Fatal(err)
	}
	var real bytes.Buffer
	if err := EncodeStepTraceJSONL(&real, col.Records); err != nil {
		f.Fatal(err)
	}
	f.Add(real.String())
	f.Add(real.String()[:real.Len()/2]) // torn mid-record
	f.Add(`{"step":0,"moves":-1}` + "\n")
	f.Add(`{"step":1,"moves":2}` + "\n")
	f.Add(`{"step":0,"kind":"capacity","moves":3,"utilization":0.5}` + "\n")
	f.Add("")
	f.Add("null\n")
	f.Add("{}\n")
	f.Add(`{"moves":3}` + "\n")
	f.Add(`{"step":0,"min_holders":-4,"max_holders":-1,"mean_holders":-2,"utilization":-0.5}` + "\n")
	f.Add(`{"step":0,"min_holders":3,"mean_holders":2,"max_holders":2}` + "\n")
	f.Fuzz(func(t *testing.T, body string) {
		recs, err := DecodeStepTraceJSONL(strings.NewReader(body))
		if err != nil {
			return
		}
		for _, rec := range recs {
			if rec.Utilization < 0 || rec.MinHolders < 0 || rec.MeanHolders < 0 || rec.MinHolders > rec.MaxHolders {
				t.Fatalf("decoder accepted an impossible holder spread or utilization: %+v", rec)
			}
		}
		var buf bytes.Buffer
		if err := EncodeStepTraceJSONL(&buf, recs); err != nil {
			t.Fatalf("re-encoding accepted records: %v", err)
		}
		again, err := DecodeStepTraceJSONL(&buf)
		if err != nil {
			t.Fatalf("re-encoded stream does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("round trip changed the records:\n got %+v\nwant %+v", again, recs)
		}
	})
}

// FuzzDecodeViolationsJSONL hardens the invariant-violation read-back the
// same way.
func FuzzDecodeViolationsJSONL(f *testing.F) {
	var real bytes.Buffer
	if err := EncodeViolationsJSONL(&real, []InvariantViolation{
		{Step: 0, Kind: ViolationPossession, From: 1, To: 0, Token: 3, Detail: "tok 3 not held"},
		{Step: 2, Kind: ViolationCapacity, From: 0, To: 1, Token: 1, Detail: "arc carried 2 accepted moves, capacity 1"},
		{Step: 2, Kind: ViolationDownSilence, From: 0, To: 1, Token: 0},
		{Step: 5, Kind: ViolationConservation, From: -1, To: 4, Token: 0},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(real.String())
	f.Add(real.String()[:real.Len()/2]) // torn mid-record
	f.Add(`{"step":-1,"kind":"capacity"}` + "\n")
	f.Add(`{"step":0,"kind":"nonsense"}` + "\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, body string) {
		recs, err := DecodeViolationsJSONL(strings.NewReader(body))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeViolationsJSONL(&buf, recs); err != nil {
			t.Fatalf("re-encoding accepted records: %v", err)
		}
		again, err := DecodeViolationsJSONL(&buf)
		if err != nil {
			t.Fatalf("re-encoded stream does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("round trip changed the records:\n got %+v\nwant %+v", again, recs)
		}
	})
}

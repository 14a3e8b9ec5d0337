package trace_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"ocd/internal/core"
	"ocd/internal/dynamic"
	"ocd/internal/fault"
	"ocd/internal/graph"
	"ocd/internal/heuristics"
	"ocd/internal/sim"
	"ocd/internal/tokenset"
	"ocd/internal/topology"
	"ocd/internal/trace"
	"ocd/internal/underlay"
	"ocd/internal/workload"
)

// TestInvariantMonitorZeroViolationsAcrossEngines is the acceptance check:
// the monitor, re-deriving every invariant independently, must find nothing
// on the golden-configuration runs of all three engines — including the
// fault engine under a §6 capacity model, partitions and churn.
func TestInvariantMonitorZeroViolationsAcrossEngines(t *testing.T) {
	size, tokens := 36, 24
	if testing.Short() {
		size, tokens = 20, 12
	}
	g, err := topology.TransitStubN(size, topology.DefaultCaps, 7)
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.SingleFile(g, tokens)

	net, err := underlay.RandomNetwork(60, 14, 2, topology.DefaultCaps, 9)
	if err != nil {
		t.Fatal(err)
	}
	instU := workload.SingleFile(net.Overlay, 16)

	check := func(t *testing.T, name string, m *trace.InvariantMonitor) {
		t.Helper()
		if err := m.Err(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	for i, factory := range heuristics.All() {
		name := heuristics.Names()[i]

		m := trace.NewInvariantMonitor(inst, trace.InvariantConfig{})
		if _, err := sim.Run(inst, factory, sim.Options{Seed: 11, IdlePatience: 20, Observer: m}); err != nil {
			t.Fatalf("base/%s: %v", name, err)
		}
		check(t, "base/"+name, m)

		plan := fault.Plan{Loss: fault.Bernoulli{P: 0.15, Seed: 11}}
		m = trace.NewInvariantMonitor(inst, trace.InvariantConfig{
			Down: plan.DownAt, Capacity: plan.EffectiveCapacity,
		})
		if _, err := fault.Run(inst, factory, plan, sim.Options{Seed: 11, IdlePatience: 30, Observer: m}); err != nil {
			t.Fatalf("fault-bernoulli/%s: %v", name, err)
		}
		check(t, "fault-bernoulli/"+name, m)

		plan = fault.Plan{Capacity: dynamic.CrossTraffic{MaxShare: 0.6, Seed: 3}}
		m = trace.NewInvariantMonitor(inst, trace.InvariantConfig{
			Down: plan.DownAt, Capacity: plan.EffectiveCapacity,
		})
		if _, err := fault.Run(inst, factory, plan, sim.Options{Seed: 11, IdlePatience: 30, Observer: m}); err != nil {
			t.Fatalf("dynamic-cross/%s: %v", name, err)
		}
		check(t, "dynamic-cross/"+name, m)

		plan = fault.AtIntensity(0.35, 13, 0)
		m = trace.NewInvariantMonitor(inst, trace.InvariantConfig{
			Down: plan.DownAt, Capacity: plan.EffectiveCapacity,
		})
		if _, err := fault.Run(inst, factory, plan, sim.Options{Seed: 11, IdlePatience: 40, Observer: m}); err != nil {
			t.Fatalf("fault-chaos/%s: %v", name, err)
		}
		check(t, "fault-chaos/"+name, m)

		plan = fault.Plan{
			Partitions: fault.NewRandomPartitions(2, 0.1, 4, 21),
			Crashes:    fault.NewRandomChurn(0.05, 0.5, 21, 0),
			StateLoss:  fault.DropAll,
			Loss:       fault.Bernoulli{P: 0.05, Seed: 21},
		}
		m = trace.NewInvariantMonitor(inst, trace.InvariantConfig{
			Down: plan.DownAt, Capacity: plan.EffectiveCapacity,
		})
		if _, err := fault.Run(inst, factory, plan, sim.Options{Seed: 11, IdlePatience: 40, Observer: m}); err != nil {
			t.Fatalf("fault-partition-churn/%s: %v", name, err)
		}
		check(t, "fault-partition-churn/"+name, m)

		m = trace.NewInvariantMonitor(instU, trace.InvariantConfig{})
		if _, err := net.Run(instU, factory, sim.Options{Seed: 11, IdlePatience: 30, Observer: m}); err != nil {
			t.Fatalf("underlay/%s: %v", name, err)
		}
		check(t, "underlay/"+name, m)
	}
}

// violatingStrategy proposes a move the engine admits legitimately; the
// violation tests below drive the monitor's hooks directly instead, with
// states a correct kernel would never produce.
func monitorFixture(t *testing.T) (*core.Instance, *sim.State) {
	t.Helper()
	g := graph.New(2)
	if err := g.AddArc(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	inst := core.NewInstance(g, 2)
	inst.Have[0].AddRange(0, 2)
	inst.Want[1].AddRange(0, 2)
	st := &sim.State{Inst: inst, Possess: inst.InitialPossession(), Rand: rand.New(rand.NewSource(1))}
	return inst, st
}

func kinds(m *trace.InvariantMonitor) []string {
	var out []string
	for _, v := range m.Violations {
		out = append(out, v.Kind)
	}
	return out
}

func TestInvariantMonitorCatchesPossessionBreach(t *testing.T) {
	inst, st := monitorFixture(t)
	m := trace.NewInvariantMonitor(inst, trace.InvariantConfig{})
	// Vertex 1 never possessed token 0 — a kernel admitting 1→? would be
	// broken. Arc ID 0 is the only arc.
	m.OnMove(0, core.Move{From: 1, To: 0, Token: 0}, 0, false, st)
	if got := kinds(m); len(got) != 1 || got[0] != trace.ViolationPossession {
		t.Fatalf("violations = %v, want exactly one %s", got, trace.ViolationPossession)
	}
	if m.Err() == nil {
		t.Fatal("Err() returned nil despite a violation")
	}
}

func TestInvariantMonitorCatchesCapacityBreach(t *testing.T) {
	inst, st := monitorFixture(t)
	m := trace.NewInvariantMonitor(inst, trace.InvariantConfig{})
	mv := core.Move{From: 0, To: 1, Token: 0}
	m.OnMove(3, mv, 0, false, st)
	m.OnMove(3, core.Move{From: 0, To: 1, Token: 1}, 0, true, st) // lost moves consume capacity too
	if got := kinds(m); len(got) != 1 || got[0] != trace.ViolationCapacity {
		t.Fatalf("violations = %v, want exactly one %s", got, trace.ViolationCapacity)
	}
	// A new step resets the usage: no further violation.
	m.OnMove(4, mv, 0, false, st)
	if len(m.Violations) != 1 {
		t.Fatalf("per-step usage did not reset: %v", kinds(m))
	}
}

func TestInvariantMonitorCatchesDownSilenceBreach(t *testing.T) {
	inst, st := monitorFixture(t)
	m := trace.NewInvariantMonitor(inst, trace.InvariantConfig{
		Down: func(_, v int) bool { return v == 1 },
	})
	m.OnMove(0, core.Move{From: 0, To: 1, Token: 0}, 0, false, st)
	if got := kinds(m); len(got) != 1 || got[0] != trace.ViolationDownSilence {
		t.Fatalf("violations = %v, want exactly one %s", got, trace.ViolationDownSilence)
	}
}

func TestInvariantMonitorCatchesConservationBreach(t *testing.T) {
	inst, st := monitorFixture(t)
	m := trace.NewInvariantMonitor(inst, trace.InvariantConfig{})
	// Token 1 appears at vertex 1 with no delivery ever observed.
	st.Possess[1].Add(1)
	m.OnStep(0, nil, st)
	if got := kinds(m); len(got) != 1 || got[0] != trace.ViolationConservation {
		t.Fatalf("violations = %v, want exactly one %s", got, trace.ViolationConservation)
	}
	// After an observed delivery the same possession is legitimate.
	m2 := trace.NewInvariantMonitor(inst, trace.InvariantConfig{})
	m2.OnStep(0, core.Step{{From: 0, To: 1, Token: 1}}, st)
	if len(m2.Violations) != 0 {
		t.Fatalf("delivered token flagged as conservation breach: %v", kinds(m2))
	}
	// State wipes only remove tokens: still clean.
	st.Possess[1] = tokenset.New(inst.NumTokens)
	m2.OnStep(1, nil, st)
	if len(m2.Violations) != 0 {
		t.Fatalf("state wipe flagged as conservation breach: %v", kinds(m2))
	}
}

func TestViolationsJSONLRoundTrip(t *testing.T) {
	recs := []trace.InvariantViolation{
		{Step: 0, Kind: trace.ViolationPossession, From: 1, To: 0, Token: 3, Detail: "x"},
		{Step: 7, Kind: trace.ViolationConservation, From: -1, To: 4, Token: 0},
	}
	var buf bytes.Buffer
	if err := trace.EncodeViolationsJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := trace.DecodeViolationsJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) || got[0] != recs[0] || got[1] != recs[1] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := trace.DecodeViolationsJSONL(strings.NewReader(`{"step":0,"kind":"nonsense"}`)); err == nil {
		t.Fatal("decoder accepted an unknown violation kind")
	}
}

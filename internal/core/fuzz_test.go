package core_test

import (
	"testing"

	"ocd/internal/core"
	"ocd/internal/flow"
	"ocd/internal/graph"
	"ocd/internal/tokenset"
)

// bitReader hands out the fuzz input bit by bit, then zeros once it runs
// out, so every input decodes to some instance.
type bitReader struct {
	data []byte
	pos  int
}

func (r *bitReader) bits(k int) int {
	v := 0
	for i := 0; i < k; i++ {
		if r.pos < 8*len(r.data) && r.data[r.pos/8]>>(r.pos%8)&1 == 1 {
			v |= 1 << i
		}
		r.pos++
	}
	return v
}

// decodeBoundsInput turns fuzz bytes into a digraph of at most 12 vertices
// whose arcs may be one-way, up to 70 tokens, and arbitrary have, want and
// possession sets: the first byte gives n, the second m, then three bits
// per ordered pair give an arc (capacity 1-3 when the value is 5 or more)
// and three bits per (vertex, token) give have, want and possession.
func decodeBoundsInput(data []byte) (*core.Instance, []tokenset.Set) {
	r := &bitReader{data: data}
	n := 1 + r.bits(8)%12
	m := r.bits(8) % 71
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if c := r.bits(3); u != v && c >= 5 {
				_ = g.AddArc(u, v, c-4)
			}
		}
	}
	inst := core.NewInstance(g, m)
	possess := make([]tokenset.Set, n)
	for v := 0; v < n; v++ {
		possess[v] = tokenset.New(m)
		for t := 0; t < m; t++ {
			if r.bits(1) == 1 {
				inst.Have[v].Add(t)
			}
			if r.bits(1) == 1 {
				inst.Want[v].Add(t)
			}
			if r.bits(1) == 1 {
				possess[v].Add(t)
			}
		}
	}
	return inst, possess
}

// FuzzMakespanLowerBound checks the arrival table against the
// per-receiver reference on arbitrary small instances: the makespan bound
// at the initial and at an arbitrary possession, every receiver's M(v),
// Satisfiable and the flow bound must match, and nothing may panic.
func FuzzMakespanLowerBound(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 3, 0xff, 0xff, 0xff, 0x0f, 0x24, 0x92, 0x49})
	f.Fuzz(func(t *testing.T, data []byte) {
		inst, possess := decodeBoundsInput(data)
		a := core.NewArrivals(inst, nil)
		if got, want := a.Bound(), refMakespanLowerBound(inst, nil); got != want {
			t.Errorf("Bound = %d, reference %d", got, want)
		}
		if got, want := a.Satisfiable(), refSatisfiable(inst); got != want {
			t.Errorf("Satisfiable = %v, reference %v", got, want)
		}
		got, err := flow.FlowMakespanLowerBound(inst)
		if want, rerr := refFlowMakespanLowerBound(inst); err != nil || rerr != nil || got != want {
			t.Errorf("FlowMakespanLowerBound = %d (%v), reference %d (%v)", got, err, want, rerr)
		}
		a.Refresh(possess)
		if got, want := a.Bound(), refMakespanLowerBound(inst, possess); got != want {
			t.Errorf("Bound at possession = %d, reference %d", got, want)
		}
		for v := 0; v < inst.N(); v++ {
			if got, want := a.Receiver(v), refReceiver(inst, possess, v); got != want {
				t.Errorf("M(%d) at possession = %d, reference %d", v, got, want)
			}
		}
		if got, want := core.MakespanLowerBound(inst, possess), refMakespanLowerBound(inst, possess); got != want {
			t.Errorf("MakespanLowerBound = %d, reference %d", got, want)
		}
	})
}

// decodePruneInput turns fuzz bytes into an instance of at most 8
// vertices and 16 tokens with arbitrary have and want sets, and a
// schedule of up to 15 steps of up to 15 moves each. Every move joins
// in-range vertices, From may equal To, and a token may be −1 or m, one
// past either end; small n and m make duplicate deliveries common, and a
// step of length 0 is an empty step. Prune reads no arcs, so the graph
// has none.
func decodePruneInput(data []byte) (*core.Instance, *core.Schedule) {
	r := &bitReader{data: data}
	n := 1 + r.bits(3)
	m := r.bits(4) + 1
	inst := core.NewInstance(graph.New(n), m)
	for v := 0; v < n; v++ {
		for t := 0; t < m; t++ {
			if r.bits(1) == 1 {
				inst.Have[v].Add(t)
			}
			if r.bits(1) == 1 {
				inst.Want[v].Add(t)
			}
		}
	}
	sched := &core.Schedule{}
	for i, steps := 0, r.bits(4); i < steps; i++ {
		st := make(core.Step, r.bits(4))
		for j := range st {
			st[j] = core.Move{From: r.bits(3) % n, To: r.bits(3) % n, Token: r.bits(5)%(m+2) - 1}
		}
		sched.Append(st)
	}
	return inst, sched
}

// FuzzPrune checks Prune against the two-pass reference on arbitrary small
// schedules, valid or not: the output must match move for move, every
// output step must be capped at its length, and nothing may panic.
func FuzzPrune(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x23, 0x5a, 0xc3, 0x0f, 0xff, 0x81, 0x42, 0x99, 0x3c, 0xe7, 0x18, 0x66})
	f.Fuzz(func(t *testing.T, data []byte) {
		inst, sched := decodePruneInput(data)
		checkPrune(t, "fuzz", inst, sched)
	})
}

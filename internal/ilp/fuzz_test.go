package ilp

import (
	"fmt"
	"testing"

	"ocd/internal/core"
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

// decodePresolveInput turns fuzz bytes into an instance of at most 6
// vertices and 3 tokens with a horizon τ ≤ 4: the first three bytes give
// n, m and τ, then two bits per ordered pair give a one-way arc (capacity
// 1 or 2 when the value is 2 or 3) and two bits per (vertex, token) give
// have and want. A token nobody has is wanted by nobody, so that Build
// accepts the instance.
func decodePresolveInput(data []byte) (*core.Instance, int) {
	r := &bitReader{data: data}
	n := 1 + r.bits(8)%6
	m := 1 + r.bits(8)%3
	tau := 1 + r.bits(8)%4
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if c := r.bits(2); u != v && c >= 2 {
				_ = g.AddArc(u, v, c-1)
			}
		}
	}
	inst := core.NewInstance(g, m)
	held := tokenset.New(m)
	for v := 0; v < n; v++ {
		for t := 0; t < m; t++ {
			if r.bits(1) == 1 {
				inst.Have[v].Add(t)
				held.Add(t)
			}
			if r.bits(1) == 1 {
				inst.Want[v].Add(t)
			}
		}
	}
	for v := 0; v < n; v++ {
		inst.Want[v].IntersectWith(held)
	}
	return inst, tau
}

// FuzzPresolve checks the presolved program against the full one on
// arbitrary small instances and horizons: the same root LP status and
// value, the same optimum or the same infeasibility, a decoded schedule
// that validates within τ, and no more variables.
func FuzzPresolve(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 1, 0xf0, 0x00, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		inst, tau := decodePresolveInput(data)
		comparePresolve(t, fmt.Sprintf("n%d m%d tau%d", inst.N(), inst.NumTokens, tau), inst, tau)
	})
}

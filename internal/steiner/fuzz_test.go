package steiner

import (
	"testing"

	"ocd/internal/core"
	"ocd/internal/graph"
	"ocd/internal/tokenset"
)

// decodeForestInput turns fuzz bytes into an instance of at most 7
// vertices and 3 tokens and a possession of it, reading the input bit by
// bit and zeros once it runs out: the first two bytes give n and m, then
// two bits per ordered pair give a one-way arc when the value is 2 or 3,
// and three bits per (vertex, token) give have, want and possession.
// Nothing ties the three together, so a wanted token may have no holder.
func decodeForestInput(data []byte) (*core.Instance, []tokenset.Set) {
	pos := 0
	bits := func(k int) int {
		v := 0
		for i := 0; i < k; i++ {
			if pos < 8*len(data) && data[pos/8]>>(pos%8)&1 == 1 {
				v |= 1 << i
			}
			pos++
		}
		return v
	}
	n, m := 1+bits(8)%7, 1+bits(8)%3
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if c := bits(2); u != v && c >= 2 {
				_ = g.AddArc(u, v, c-1)
			}
		}
	}
	inst := core.NewInstance(g, m)
	possess := make([]tokenset.Set, n)
	for v := range possess {
		possess[v] = tokenset.New(m)
		for t := 0; t < m; t++ {
			if bits(1) == 1 {
				inst.Have[v].Add(t)
			}
			if bits(1) == 1 {
				inst.Want[v].Add(t)
			}
			if bits(1) == 1 {
				possess[v].Add(t)
			}
		}
	}
	return inst, possess
}

// FuzzForestBoundMatchesReference requires Dreyfus–Wagner to give the
// definitional forest, or the same unreachable verdict, on fuzzed
// directed instances from fuzzed possessions and from their have sets.
func FuzzForestBoundMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 1, 0xaa, 0xaa, 0xaa, 0xaa, 0x92, 0x24})
	f.Add([]byte{6, 2, 0xff, 0x0f, 0xf0, 0x3c, 0xc3, 0x5a, 0xa5, 0x12, 0x48, 0x24, 0x81, 0x66})
	f.Fuzz(func(t *testing.T, data []byte) {
		inst, possess := decodeForestInput(data)
		fb := NewForestBound(inst)
		for _, p := range [][]tokenset.Set{possess, inst.Have} {
			got, ok := fb.Bound(p)
			want, wantOK := referenceForest(inst, p)
			if ok != wantOK || got != want {
				t.Fatalf("n %d m %d: bound %d (ok %v), reference %d (ok %v)", inst.N(), inst.NumTokens, got, ok, want, wantOK)
			}
		}
	})
}

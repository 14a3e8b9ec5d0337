package tokenset

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if !s.Empty() {
		t.Error("new set not empty")
	}
	if got := s.Count(); got != 0 {
		t.Errorf("Count() = %d, want 0", got)
	}
	if got := s.Universe(); got != 100 {
		t.Errorf("Universe() = %d, want 100", got)
	}
	if s.Has(0) || s.Has(99) {
		t.Error("empty set reports membership")
	}
}

func TestAddRemoveHas(t *testing.T) {
	s := New(130)
	for _, tok := range []int{0, 1, 63, 64, 65, 127, 129} {
		s.Add(tok)
		if !s.Has(tok) {
			t.Errorf("Has(%d) = false after Add", tok)
		}
	}
	if got := s.Count(); got != 7 {
		t.Errorf("Count() = %d, want 7", got)
	}
	s.Remove(64)
	if s.Has(64) {
		t.Error("Has(64) = true after Remove")
	}
	if got := s.Count(); got != 6 {
		t.Errorf("Count() = %d, want 6", got)
	}
}

func TestOutOfRangeIgnored(t *testing.T) {
	s := New(10)
	s.Add(-1)
	s.Add(10)
	s.Add(1000)
	if !s.Empty() {
		t.Error("out-of-range Add modified the set")
	}
	if s.Has(-1) || s.Has(10) {
		t.Error("out-of-range Has returned true")
	}
	s.Remove(-1) // must not panic
	s.Remove(99)
}

func TestFull(t *testing.T) {
	for _, universe := range []int{1, 63, 64, 65, 128, 200} {
		f := Full(universe)
		if got := f.Count(); got != universe {
			t.Errorf("Full(%d).Count() = %d", universe, got)
		}
		if f.Has(universe) {
			t.Errorf("Full(%d) contains %d", universe, universe)
		}
	}
}

// TestWord checks that Word exposes each token's bit at word t/64, bit
// t%64, and that a full set's last partial word holds no bit past the
// universe.
func TestWord(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, universe := range []int{1, 63, 64, 65, 130} {
		s := New(universe)
		for tok := 0; tok < universe; tok++ {
			if rng.Intn(3) == 0 {
				s.Add(tok)
			}
		}
		words := (universe + 63) / 64
		for tok := 0; tok < words*64; tok++ {
			if got := s.Word(tok/64)>>(tok%64)&1 == 1; got != s.Has(tok) {
				t.Fatalf("universe %d: bit %d of Word(%d) is %v, Has(%d) is %v", universe, tok%64, tok/64, got, tok, s.Has(tok))
			}
		}
		if got, want := Full(universe).Word(words-1), ^uint64(0)>>(words*64-universe); got != want {
			t.Errorf("Full(%d).Word(%d) = %#x, want %#x", universe, words-1, got, want)
		}
	}
}

func TestSetAlgebra(t *testing.T) {
	a := FromSlice(10, []int{1, 2, 3, 4})
	b := FromSlice(10, []int{3, 4, 5, 6})

	if got := a.Union(b).Slice(); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 5, 6}) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b).Slice(); !reflect.DeepEqual(got, []int{3, 4}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Difference(b).Slice(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("Difference = %v", got)
	}
	if a.Equal(b) {
		t.Error("distinct sets reported Equal")
	}
	if !a.Intersects(b) {
		t.Error("overlapping sets reported disjoint")
	}
	if got := a.IntersectionCount(b); got != 2 {
		t.Errorf("IntersectionCount = %d, want 2", got)
	}
	if got := a.DifferenceCount(b); got != 2 {
		t.Errorf("DifferenceCount = %d, want 2", got)
	}
}

func TestSubsetOf(t *testing.T) {
	a := FromSlice(10, []int{2, 5})
	b := FromSlice(10, []int{1, 2, 5, 7})
	if !a.SubsetOf(b) {
		t.Error("a ⊆ b reported false")
	}
	if b.SubsetOf(a) {
		t.Error("b ⊆ a reported true")
	}
	if !New(10).SubsetOf(a) {
		t.Error("∅ ⊆ a reported false")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice(10, []int{1, 2})
	c := a.Clone()
	c.Add(9)
	if a.Has(9) {
		t.Error("mutating clone changed the original")
	}
	a.Remove(1)
	if !c.Has(1) {
		t.Error("mutating original changed the clone")
	}
}

func TestFirstNextAfter(t *testing.T) {
	s := FromSlice(200, []int{5, 64, 130})
	if got := s.First(); got != 5 {
		t.Errorf("First = %d, want 5", got)
	}
	if got := s.NextAfter(5); got != 64 {
		t.Errorf("NextAfter(5) = %d, want 64", got)
	}
	if got := s.NextAfter(64); got != 130 {
		t.Errorf("NextAfter(64) = %d, want 130", got)
	}
	if got := s.NextAfter(130); got != -1 {
		t.Errorf("NextAfter(130) = %d, want -1", got)
	}
	if got := s.NextAfter(-5); got != 5 {
		t.Errorf("NextAfter(-5) = %d, want 5", got)
	}
	if got := New(10).First(); got != -1 {
		t.Errorf("empty First = %d, want -1", got)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := FromSlice(100, []int{1, 2, 3, 4, 5})
	var seen []int
	s.ForEach(func(tok int) bool {
		seen = append(seen, tok)
		return len(seen) < 3
	})
	if !reflect.DeepEqual(seen, []int{1, 2, 3}) {
		t.Errorf("early stop visited %v", seen)
	}
}

func TestAddRangeClear(t *testing.T) {
	s := New(100)
	s.AddRange(10, 20)
	if got := s.Count(); got != 10 {
		t.Errorf("AddRange count = %d, want 10", got)
	}
	if s.Has(9) || s.Has(20) || !s.Has(10) || !s.Has(19) {
		t.Error("AddRange boundaries wrong")
	}
	s.Clear()
	if !s.Empty() {
		t.Error("Clear left tokens")
	}
}

func TestString(t *testing.T) {
	if got := FromSlice(10, []int{1, 5, 9}).String(); got != "{1, 5, 9}" {
		t.Errorf("String = %q", got)
	}
	if got := New(10).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

func TestHashDistinguishes(t *testing.T) {
	a := FromSlice(100, []int{1, 2, 3})
	b := FromSlice(100, []int{1, 2, 4})
	if a.Hash() == b.Hash() {
		t.Error("different sets hash equal (collision on trivial case)")
	}
	if a.Hash() != a.Clone().Hash() {
		t.Error("clone hashes differently")
	}
}

// randomSet builds a pseudo-random set plus its reference map model.
func randomSet(rng *rand.Rand, universe int) (Set, map[int]bool) {
	s := New(universe)
	ref := make(map[int]bool)
	for i := 0; i < universe/2; i++ {
		tok := rng.Intn(universe)
		s.Add(tok)
		ref[tok] = true
	}
	return s, ref
}

func TestQuickAgainstMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		universe := 1 + rng.Intn(300)
		s, ref := randomSet(rng, universe)
		if s.Count() != len(ref) {
			t.Fatalf("trial %d: Count %d != model %d", trial, s.Count(), len(ref))
		}
		for tok := range ref {
			if !s.Has(tok) {
				t.Fatalf("trial %d: missing %d", trial, tok)
			}
		}
		for _, tok := range s.Slice() {
			if !ref[tok] {
				t.Fatalf("trial %d: extra %d", trial, tok)
			}
		}
	}
}

func TestQuickUnionCommutes(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a := New(1 << 16)
		b := New(1 << 16)
		for _, x := range xs {
			a.Add(int(x))
		}
		for _, y := range ys {
			b.Add(int(y))
		}
		return a.Union(b).Equal(b.Union(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	// |A ∪ B| = |A| + |B| − |A ∩ B| and A \ B = A ∩ ¬B.
	f := func(xs, ys []uint8) bool {
		a := New(256)
		b := New(256)
		for _, x := range xs {
			a.Add(int(x))
		}
		for _, y := range ys {
			b.Add(int(y))
		}
		if a.Union(b).Count() != a.Count()+b.Count()-a.IntersectionCount(b) {
			return false
		}
		notB := Full(256)
		notB.DifferenceWith(b)
		return a.Difference(b).Equal(a.Intersect(notB))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickSubsetAfterDifference(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a := New(256)
		b := New(256)
		for _, x := range xs {
			a.Add(int(x))
		}
		for _, y := range ys {
			b.Add(int(y))
		}
		d := a.Difference(b)
		return d.SubsetOf(a) && !d.Intersects(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTokenSetOps(b *testing.B) {
	// Ablation: bitset vs map[int]bool for the hot difference operation.
	const universe = 512
	x := New(universe)
	y := New(universe)
	for i := 0; i < universe; i += 2 {
		x.Add(i)
	}
	for i := 0; i < universe; i += 3 {
		y.Add(i)
	}
	b.Run("bitset-difference-count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = x.DifferenceCount(y)
		}
	})
	b.Run("map-difference-count", func(b *testing.B) {
		mx := make(map[int]bool)
		my := make(map[int]bool)
		for i := 0; i < universe; i += 2 {
			mx[i] = true
		}
		for i := 0; i < universe; i += 3 {
			my[i] = true
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := 0
			for k := range mx {
				if !my[k] {
					n++
				}
			}
			_ = n
		}
	})
}

// naiveCyclic states AppendCyclic from its definition: up to k members at
// or after from, ascending, then up to the rest of k members before it.
func naiveCyclic(s Set, from, k int) []int {
	var out []int
	for _, before := range []bool{false, true} {
		for t := 0; t < s.Universe(); t++ {
			if s.Has(t) && (t < from) == before && len(out) < k {
				out = append(out, t)
			}
		}
	}
	return out
}

// TestAppendCyclic checks the word walk against the definition and, for a
// cursor inside the universe, against the per-token circular scan it
// replaced in Round Robin, on universes around the word size with empty,
// full and random sets; the appended tokens follow dst's prefix.
func TestAppendCyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, universe := range []int{0, 1, 2, 63, 64, 65, 100, 127, 128, 129, 512} {
		sets := []Set{New(universe), Full(universe)}
		for i := 0; i < 6; i++ {
			s, _ := randomSet(rng, max(universe, 1))
			if universe == 0 {
				s = New(0)
			}
			sets = append(sets, s)
		}
		sparse := New(universe)
		if universe > 0 {
			sparse.Add(universe - 1)
		}
		sets = append(sets, sparse)
		for _, s := range sets {
			froms := []int{-3, 0, universe / 2, universe - 1, universe, universe + 5}
			for i := 0; i < 8 && universe > 0; i++ {
				froms = append(froms, rng.Intn(universe))
			}
			for _, from := range froms {
				for _, k := range []int{-1, 0, 1, 3, 64, universe, universe + 1} {
					prefix := []int{-7}
					got := s.AppendCyclic(prefix, from, k)
					want := append([]int{-7}, naiveCyclic(s, from, k)...)
					if !slices.Equal(got, want) {
						t.Fatalf("universe %d set %v: AppendCyclic(from %d, k %d) = %v, want %v", universe, s, from, k, got, want)
					}
					if from < 0 || from >= universe {
						continue
					}
					var scan []int
					for scanned := 0; scanned < universe && len(scan) < k; scanned++ {
						if tok := (from + scanned) % universe; s.Has(tok) {
							scan = append(scan, tok)
						}
					}
					if !slices.Equal(got[1:], scan) {
						t.Fatalf("universe %d set %v: AppendCyclic(from %d, k %d) = %v, circular scan %v", universe, s, from, k, got[1:], scan)
					}
				}
			}
		}
	}
}

// FuzzAppendCyclic decodes a universe, a cursor, a count and a set from
// fuzzed bytes and checks AppendCyclic against its definition.
//
// data[0] and data[1] give the universe (up to 300), data[2] the cursor
// (offset so that it can fall outside the universe), data[3] the count,
// and every further byte pair a token to add.
func FuzzAppendCyclic(f *testing.F) {
	f.Add([]byte{64, 0, 10, 5, 3, 0, 63, 0, 9, 0})
	f.Add([]byte{65, 0, 70, 65, 64, 0, 0, 0})
	f.Add([]byte{44, 1, 255, 200, 1, 1, 2, 1, 200, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		universe := (int(data[0]) | int(data[1])<<8) % 301
		from, k := int(data[2])-8, int(data[3])
		s := New(universe)
		for b := data[4:]; len(b) >= 2; b = b[2:] {
			s.Add((int(b[0]) | int(b[1])<<8) % max(universe, 1))
		}
		got := s.AppendCyclic(nil, from, k)
		if want := naiveCyclic(s, from, k); !slices.Equal(got, want) {
			t.Fatalf("universe %d set %v: AppendCyclic(from %d, k %d) = %v, want %v", universe, s, from, k, got, want)
		}
	})
}

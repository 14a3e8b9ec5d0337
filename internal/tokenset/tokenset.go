// Package tokenset provides a dense bitset over token identifiers.
//
// The Overlay Content Distribution model (paper §3.1) manipulates sets of
// unit-sized tokens constantly: every vertex tracks which tokens it has and
// wants, every heuristic intersects and differences those sets each
// timestep. A packed bitset keeps those operations O(m/64) and allocation
// free on the hot path.
package tokenset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a bitset over token IDs in [0, Universe). The zero value is an
// empty set with universe 0; use New to create a set with capacity.
type Set struct {
	words    []uint64
	universe int
}

// New returns an empty set able to hold tokens in [0, universe).
func New(universe int) Set {
	if universe < 0 {
		universe = 0
	}
	return Set{
		words:    make([]uint64, (universe+wordBits-1)/wordBits),
		universe: universe,
	}
}

// FromSlice returns a set over [0, universe) containing the given tokens.
func FromSlice(universe int, tokens []int) Set {
	s := New(universe)
	for _, t := range tokens {
		s.Add(t)
	}
	return s
}

// Full returns the set containing every token in [0, universe).
func Full(universe int) Set {
	s := New(universe)
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
	return s
}

// Universe reports the exclusive upper bound on token IDs.
func (s Set) Universe() int { return s.universe }

// trim clears bits beyond the universe in the last word.
func (s Set) trim() {
	if s.universe%wordBits == 0 || len(s.words) == 0 {
		return
	}
	s.words[len(s.words)-1] &= (uint64(1) << uint(s.universe%wordBits)) - 1
}

// Add inserts token t. Tokens outside [0, Universe) are ignored.
func (s Set) Add(t int) {
	if t < 0 || t >= s.universe {
		return
	}
	s.words[t/wordBits] |= uint64(1) << uint(t%wordBits)
}

// Remove deletes token t if present.
func (s Set) Remove(t int) {
	if t < 0 || t >= s.universe {
		return
	}
	s.words[t/wordBits] &^= uint64(1) << uint(t%wordBits)
}

// Has reports whether token t is in the set.
func (s Set) Has(t int) bool {
	if t < 0 || t >= s.universe {
		return false
	}
	return s.words[t/wordBits]&(uint64(1)<<uint(t%wordBits)) != 0
}

// Word returns the set's i-th 64-bit word: bit b stands for token
// i*64+b. Bits at or past Universe are zero. It lets a caller combine
// sets with masks of its own a word at a time.
func (s Set) Word(i int) uint64 { return s.words[i] }

// Count returns the number of tokens in the set.
func (s Set) Count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no tokens.
func (s Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	c := Set{words: make([]uint64, len(s.words)), universe: s.universe}
	copy(c.words, s.words)
	return c
}

// CopyFrom overwrites the receiver's contents with o's. Universes must match.
func (s Set) CopyFrom(o Set) {
	copy(s.words, o.words)
}

// UnionWith adds every token of o to s in place.
func (s Set) UnionWith(o Set) {
	for i := range o.words {
		s.words[i] |= o.words[i]
	}
}

// IntersectWith removes tokens not in o, in place.
func (s Set) IntersectWith(o Set) {
	for i := range s.words {
		s.words[i] &= o.words[i]
	}
}

// DifferenceWith removes every token of o from s in place.
func (s Set) DifferenceWith(o Set) {
	for i := range o.words {
		s.words[i] &^= o.words[i]
	}
}

// SetDifference overwrites the receiver with a \ b without allocating.
// All three universes must match.
func (s Set) SetDifference(a, b Set) {
	for i := range s.words {
		s.words[i] = a.words[i] &^ b.words[i]
	}
}

// SetIntersection overwrites the receiver with a ∩ b without allocating.
// All three universes must match.
func (s Set) SetIntersection(a, b Set) {
	for i := range s.words {
		s.words[i] = a.words[i] & b.words[i]
	}
}

// Fill adds every token in [0, Universe) to the set in place.
func (s Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// Union returns a new set with all tokens in s or o.
func (s Set) Union(o Set) Set {
	c := s.Clone()
	c.UnionWith(o)
	return c
}

// Intersect returns a new set with the tokens present in both s and o.
func (s Set) Intersect(o Set) Set {
	c := s.Clone()
	c.IntersectWith(o)
	return c
}

// Difference returns a new set with the tokens of s that are not in o.
func (s Set) Difference(o Set) Set {
	c := s.Clone()
	c.DifferenceWith(o)
	return c
}

// Equal reports whether s and o contain exactly the same tokens.
func (s Set) Equal(o Set) bool {
	if s.universe != o.universe {
		return false
	}
	for i := range s.words {
		if s.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every token of s is also in o.
func (s Set) SubsetOf(o Set) bool {
	for i := range s.words {
		if s.words[i]&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s and o share at least one token.
func (s Set) Intersects(o Set) bool {
	for i := range s.words {
		if s.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// IntersectionCount returns |s ∩ o| without allocating.
func (s Set) IntersectionCount(o Set) int {
	n := 0
	for i := range s.words {
		n += bits.OnesCount64(s.words[i] & o.words[i])
	}
	return n
}

// DifferenceCount returns |s \ o| without allocating.
func (s Set) DifferenceCount(o Set) int {
	n := 0
	for i := range s.words {
		n += bits.OnesCount64(s.words[i] &^ o.words[i])
	}
	return n
}

// First returns the smallest token in the set, or -1 if empty.
func (s Set) First() int {
	for i, w := range s.words {
		if w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// NextAfter returns the smallest token strictly greater than t, or -1.
func (s Set) NextAfter(t int) int {
	if t < -1 {
		t = -1
	}
	start := t + 1
	if start >= s.universe {
		return -1
	}
	i := start / wordBits
	w := s.words[i] >> uint(start%wordBits)
	if w != 0 {
		return start + bits.TrailingZeros64(w)
	}
	for i++; i < len(s.words); i++ {
		if s.words[i] != 0 {
			return i*wordBits + bits.TrailingZeros64(s.words[i])
		}
	}
	return -1
}

// ForEach calls fn for every token in ascending order. Iteration stops early
// if fn returns false.
func (s Set) ForEach(fn func(t int) bool) {
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(i*wordBits + b) {
				return
			}
			w &^= uint64(1) << uint(b)
		}
	}
}

// Slice returns the tokens in ascending order.
func (s Set) Slice() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(t int) bool {
		out = append(out, t)
		return true
	})
	return out
}

// AppendTo appends the tokens in ascending order to buf and returns the
// extended slice. Reusing buf[:0] across calls keeps the hot path
// allocation free once the buffer has grown to its steady-state size.
func (s Set) AppendTo(buf []int) []int {
	s.ForEach(func(t int) bool {
		buf = append(buf, t)
		return true
	})
	return buf
}

// AppendCyclic appends up to k tokens of the set to dst in cyclic order
// from token from — first those at or after from, then those before it,
// each part ascending — and returns the extended slice. It walks the set
// a 64-bit word at a time, so absent tokens are skipped a word at a time,
// not tested one by one: a circular queue's next k present tokens, as
// §5.1's Round Robin sends them.
func (s Set) AppendCyclic(dst []int, from, k int) []int {
	from = min(max(from, 0), s.universe)
	dst, k = s.appendRange(dst, from, s.universe, k)
	dst, _ = s.appendRange(dst, 0, from, k)
	return dst
}

// appendRange appends up to k tokens of the set in [lo, hi) to dst in
// ascending order, and returns the extended slice and how many of the k
// it did not use. It requires 0 ≤ lo and hi ≤ Universe.
func (s Set) appendRange(dst []int, lo, hi, k int) ([]int, int) {
	if lo >= hi || k <= 0 {
		return dst, k
	}
	i, last := lo/wordBits, (hi-1)/wordBits
	w := s.words[i] &^ (uint64(1)<<uint(lo%wordBits) - 1)
	for {
		if i == last && hi%wordBits != 0 {
			w &= uint64(1)<<uint(hi%wordBits) - 1
		}
		for ; w != 0 && k > 0; k-- {
			dst = append(dst, i*wordBits+bits.TrailingZeros64(w))
			w &= w - 1
		}
		if i == last || k == 0 {
			return dst, k
		}
		i++
		w = s.words[i]
	}
}

// Clear removes every token from the set.
func (s Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// AddRange inserts every token in [lo, hi).
func (s Set) AddRange(lo, hi int) {
	for t := lo; t < hi; t++ {
		s.Add(t)
	}
}

// Hash returns a 64-bit FNV-style hash of the set contents, suitable for
// memoization keys in the exact solvers.
func (s Set) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, w := range s.words {
		h ^= w
		h *= prime
	}
	return h
}

// String renders the set as "{1, 5, 9}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(t int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", t)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
